"""Level-1 Fock space combinatorics: vectors, f/e operators.

Vectors are finite Z[q,q^-1]-combinations of h-strict partitions.  The
divided powers f_i^(k) and e_i^(k) act directly: f_i^(k) lam sums over the
mu obtained by adding k of lam's addable i-nodes, e_i^(k) lam over those
obtained by removing k of its removable ones: the targets are the
k-subsets of those nodes that partitions.move_nodes accepts.  Both read
the coefficient off lam's two i-node sets.  For each moved node, in
column c, count lam's i-nodes of the moving kind (addable for f,
removable for e) that did not move, minus its i-nodes of the other kind,
left of c for f and right of c for e.  With s the total, the coefficient
is q_i^s, where q_i = q, q^2, q^4 for i = 0, 0 < i < n, i = n.  For i = 0
each pair of columns {mh, mh+1} (m >= 1) of which only the outer one
moved (mh+1 for f, mh for e) contributes a further factor 1 - (-q^2)^b,
b the number of parts of lam equal to mh.  e is the mirror image of f:
negating the columns turns "right of c" into "left of c", so one routine
serves both.

Both operators are linear, so they act term by term: the image of one
partition, f_i^(k) lam or e_i^(k) lam as a tuple of (mu, coefficient), is
computed once per (lam, i, k, h, direction) and kept in one LRU cache of
IMAGE_CACHE_SIZE entries; a vector's image is the sum of its terms' images
scaled by their coefficients.  Overlapping canonical-basis columns reach
the same partitions again and again, within a block and across blocks, and
the cache is keyed by the whole input, so every caller (the oracle on
every block, the pair checks) shares it.  Sharing is safe because an
image is immutable: a tuple of tuples of partitions and Laurent values, and
callers get a FockVector over a fresh dict built from it.  Equal
coefficients are one Laurent object, which keeps the cached images small.
The library's own vectors come from FockVector.wrap, which takes a clean
dict as it is; the checking constructor is for callers outside.
"""

from bisect import bisect_left
from functools import cache, lru_cache
from itertools import combinations

from . import partitions as pt
from .laurent import Laurent, ONE, ZERO, q_power, _q_i_exponent

# images kept by _image, the one bounded table: twice the 6,217 distinct
# images of the h=7 w=6 block, so the largest blocks in use never evict
# their own working set.  At h=7 w=8 an unbounded _image cut misses from
# 75,059 to 44,093 with the same wall time and 3-4 MiB more RSS.
IMAGE_CACHE_SIZE = 1 << 14

_new = object.__new__


class FockVector:
	"""A finite combination of h-strict partitions over Z[q, q^-1]."""

	__slots__ = ("h", "terms")

	def __init__(self, h, terms=None):
		self.h = pt.check_h(h)
		tt = {}
		for lam, c in (terms or {}).items():
			lam = pt.check_partition(lam)
			if not pt.is_h_strict(lam, h):
				raise ValueError("%s is not %d-strict" % (pt.partition_str(lam), h))
			c = c if isinstance(c, Laurent) else Laurent(c)
			if c:
				tt[lam] = c
		self.terms = tt

	@classmethod
	def basis(cls, h, lam, coeff=1):
		return cls(h, {tuple(lam): coeff})

	@classmethod
	def wrap(cls, h, terms):
		"""A vector over terms, taken as it is: the library's own zero-free
		{partition tuple: Laurent} dicts skip the constructor's checks."""
		vec = _new(cls)
		vec.h = h
		vec.terms = terms
		return vec

	def support(self):
		"""Partitions with nonzero coefficient, lex ascending."""
		return sorted(self.terms)

	def __bool__(self):
		return bool(self.terms)

	def __len__(self):
		return len(self.terms)

	def __add__(self, other):
		pt.require(isinstance(other, FockVector) and other.h == self.h,
			"adding %r to a Fock vector of h=%d", other, self.h)
		tt = dict(self.terms)
		for lam, c in other.terms.items():
			tt[lam] = tt.get(lam, ZERO) + c
		return FockVector(self.h, tt)

	def scale(self, c):
		c = c if isinstance(c, Laurent) else Laurent(c)
		return FockVector(self.h, {lam: v * c for lam, v in self.terms.items()})

	def __eq__(self, other):
		return isinstance(other, FockVector) and \
			(self.h, self.terms) == (other.h, other.terms)

	def items(self):
		"""(partition, coefficient) pairs, lex ascending."""
		return [(lam, self.terms[lam]) for lam in sorted(self.terms)]

	def __str__(self):
		if not self.terms:
			return "0"
		bits = []
		for lam, c in self.items():
			cs = str(c)
			if cs == "1":
				bits.append(pt.partition_str(lam))
			elif "+" in cs or "-" in cs[1:]:
				bits.append("(%s)*%s" % (cs, pt.partition_str(lam)))
			else:
				bits.append("%s*%s" % (cs, pt.partition_str(lam)))
		return " + ".join(bits)

	def __repr__(self):
		return "FockVector(h=%d, %s)" % (self.h, self)


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _image(lam, i, k, h, raising):
	"""f_i^(k) lam (raising) or e_i^(k) lam (lowering) on one basis vector,
	as a tuple of (mu, coefficient) by the rule in the module docstring.

	Let lam+ be lam completed by its addable i-nodes.  Every h-strict mu
	reached from lam by adding i-nodes lies rowwise between lam and lam+,
	the pointwise optimum (see the node-set walks in partitions).  So lam+
	is a valid superpartition of mu and mu+ one of lam, whence mu+ = lam+:
	mu's addable set is lam's minus the moved nodes, and likewise for e
	with removable sets.  Two node-set calls thus serve every target, and
	one serves when lam has fewer than k nodes of the moving kind, whose
	image is empty.

	The moved nodes are therefore a k-subset of reach, lam's nodes of the
	moving kind, and the targets are the subsets that move_nodes accepts:
	each row must take a run of its reach nodes at its edge.  That is
	C(|reach|, k) subsets to try.  Blocks up to h=3 w=14 never have
	|reach| > 9, so at most C(9, 4) = 126 per image; cold, the
	oracle_large benchmark blocks try 13,011 subsets for 10,448 targets,
	and h=3 w=14 tries 206,521 for 132,823.
	"""
	sign = 1 if raising else -1
	reach_of, other_of = (pt.addable_i_nodes, pt.removable_i_nodes) if raising \
		else (pt.removable_i_nodes, pt.addable_i_nodes)
	reach = reach_of(lam, i, h)
	if len(reach) < k:
		return ()  # fewer than k nodes can move
	other = other_of(lam, i, h)
	free = sorted(sign * x for _, x in reach)
	blocking = sorted(sign * x for _, x in other)
	out = []
	for nodes in combinations(reach, k):
		mu = pt.move_nodes(lam, nodes, h, sign)
		if mu is None:
			continue
		cols = [x for _, x in nodes]
		moved = sorted(sign * x for x in cols)
		s = sum(bisect_left(free, y) - bisect_left(moved, y) - bisect_left(blocking, y)
			for y in moved)
		bs = []
		if i == 0:
			for x in cols:
				# the outer column of a pair {mh, mh+1} moved alone
				mh = x - 1 if raising else x
				if mh and mh % h == 0 and x - sign not in cols:
					bs.append(lam.count(mh))
		out.append((mu, _coefficient(_q_i_exponent(i, h) * s, tuple(sorted(bs)))))
	return tuple(out)


@cache
def _coefficient(e, bs):
	"""q^e times 1 - (-q^2)^b for each b in bs, one object per value."""
	coeff = q_power(e)
	for b in bs:
		coeff = coeff * (ONE - Laurent({2 * b: (-1) ** b}))
	return coeff


def _apply(vec, i, k, raising):
	"""f_i^(k) (raising) or e_i^(k) (lowering) on a Fock vector: the sum of
	its terms' cached images, each scaled by the term's coefficient.  The
	result's terms are always a fresh dict, which the caller may keep."""
	if k < 0:
		raise ValueError("divided powers need k >= 0, got k=%d" % k)
	h = vec.h
	if k == 0:
		return FockVector.wrap(h, dict(vec.terms))
	acc = {}
	for lam, c in vec.terms.items():
		for mu, coeff in _image(lam, i, k, h, raising):
			nc = c * coeff
			acc[mu] = acc[mu] + nc if mu in acc else nc
	return FockVector.wrap(h, {mu: c for mu, c in acc.items() if c})


def apply_f(vec, i, k=1):
	"""Divided power f_i^(k) applied to a Fock vector."""
	return _apply(vec, i, k, True)


def apply_e(vec, i, k=1):
	"""Divided power e_i^(k) applied to a Fock vector."""
	return _apply(vec, i, k, False)


def monomial_apply(seq, h):
	"""Apply a word of divided powers to the empty partition.

	seq is a list of (i, k); the word acts left to right, i.e. the first
	pair is applied first.
	"""
	v = FockVector.basis(h, ())
	for i, k in seq:
		v = apply_f(v, i, k)
		pt.require(v, "monomial killed the vector (bad peel sequence)")
	return v
