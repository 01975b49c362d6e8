"""Bar invariance of the e/f structure constants in the canonical basis.

Bar commutes with e_j and f_j, and each G(lam) is bar-invariant, so for
every restricted mu and residue j the coordinates of f_j G(mu) and
e_j G(mu) in the G basis are bar-invariant Laurent polynomials.  They
come from a unitriangular solve: the lex-least term of the vector sits at
a restricted lam, its coefficient c is the coordinate there, and
subtracting c G(lam) removes it, since G(lam) is 1 at lam and lives lex
above it.  The straightening assumes that f_i^(k) G(nu) is bar-invariant;
this checks the columns it produced against that theorem, beyond the
weights the closed formulas reach.

Positivity is not asserted: A^(2)_{2n} is not symmetric, the i = 0
factors 1 - (-q^2)^b are signed, and some coordinates have a negative
coefficient.
"""

import pytest

import barfock.canonical as cb
import barfock.fock as fock
import barfock.partitions as pt
from barfock.laurent import ZERO

# (h, weight) -> largest core size; every core up to it is swept
SWEEP = {(3, 3): 10, (5, 3): 10, (7, 3): 8, (3, 4): 8, (5, 4): 8}
OPERATORS = (("f", fock.apply_f), ("e", fock.apply_e))


def _canonical_column(lam, h):
	"""G(lam), read from the matrix of lam's own block."""
	block = pt.BlockId(h, pt.bar_core(lam, h), pt.bar_weight(lam, h))
	return cb.canonical_basis(block).columns[lam]


def coordinates(vec):
	"""(lam, c) for the G-basis expansion of a Fock vector, lex ascending."""
	h = vec.h
	rest = dict(vec.terms)
	out = []
	while rest:
		lam = min(rest)
		pt.require(pt.is_restricted(lam, h),
			"lex-least term %s is not restricted", pt.partition_str(lam))
		c = rest[lam]
		for nu, d in _canonical_column(lam, h).items():
			e = rest.get(nu, ZERO) - c * d
			if e:
				rest[nu] = e
			else:
				del rest[nu]
		out.append((lam, c))
	return out


def bar_failures(block):
	"""One line for every coordinate of f_j G(mu) or e_j G(mu), mu a column
	of the block, that is not bar-invariant, or for every such vector whose
	expansion fails; and the number of coordinates checked."""
	m = cb.canonical_basis(block)
	failures, checked = [], 0
	for mu in m.cols:
		for j in range(pt.n_of(block.h) + 1):
			for name, op in OPERATORS:
				where = "%s: %s_%d G%s" % (block, name, j, pt.partition_str(mu))
				try:
					coords = coordinates(op(m.column(mu), j))
				except pt.InvariantError as e:
					failures.append("%s: %s" % (where, e))
					continue
				for lam, c in coords:
					checked += 1
					if c.bar() != c:
						failures.append("%s at G%s has %s" % (where, pt.partition_str(lam), c))
	return failures, checked


def sweep_blocks(h, weight):
	for core in pt.enumerate_cores(h, SWEEP[(h, weight)]):
		yield pt.BlockId(h, core, weight)


@pytest.mark.parametrize("h,weight", sorted(SWEEP))
def test_structure_constants_are_bar_invariant(h, weight):
	failures, checked = [], 0
	for block in sweep_blocks(h, weight):
		bad, n = bar_failures(block)
		failures += bad
		checked += n
	assert checked
	assert failures == []
