"""Block pairs under psi_i: detection, exceptional structure, verification."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

import barfock.partitions as pt
import barfock.canonical as cb
import barfock.formulas as fm
import barfock.pairs as pr
from barfock.laurent import parse as L

from test_partitions import compare_colex


def pairs_at_scale(hs=(3, 5, 7), max_core=6, skip_zero_k1=True):
	"""Every pair whose source core fits the size bound."""
	out = []
	for h in hs:
		for core in pt.enumerate_cores(h, max_core):
			for d in pr.detect_pairs(core, h):
				if skip_zero_k1 and d.i == 0 and d.k == 1:
					continue
				out.append(d)
	return out


def has_exceptional(d, w=2):
	sblock = pt.BlockId(d.h, d.source, w)
	return any(not pr.is_unexceptional(lam, d, "source")
		for lam in pt.enumerate_block(sblock))


def linked(mu, hat, i, h):
	"""Diagrams differing only in i-nodes."""
	rows = max(len(mu), len(hat))
	for r in range(rows):
		a = mu[r] if r < len(mu) else 0
		b = hat[r] if r < len(hat) else 0
		for c in range(min(a, b) + 1, max(a, b) + 1):
			if pt.residue(c, h) != i:
				return False
	return True


class TestDetection:
	def test_displayed_kinds(self):
		def one(core, i):
			ds = [d for d in pr.detect_pairs(core, 7) if d.i == i]
			assert len(ds) == 1
			return ds[0]
		a = one((8, 2, 1), 1)
		assert (a.kind, a.k, a.target) == ("A", 1, (9, 2, 1))
		b = one((3, 1), 1)
		assert (b.kind, b.k, b.target) == ("B", 1, (3, 2))
		c = one((5, 4), 1)
		assert (c.kind, c.k, c.target) == ("C", 1, (6, 4))

	def test_descriptor_invariants(self):
		for d in pairs_at_scale(max_core=5, skip_zero_k1=False):
			assert pt.is_core(d.target, d.h)
			assert d.target == cb.psi(d.source, d.i, d.h)
			assert d.k == len(pt.addable_i_nodes(d.source, d.i, d.h)) >= 1

	def test_zero_residue_k_is_odd(self):
		for d in pairs_at_scale(max_core=8, skip_zero_k1=False):
			if d.i == 0:
				assert d.k % 2 == 1


class TestScopesKessar:
	"""The sufficient equivalence criteria, against the ground-truth scan."""

	def test_weight1_criterion(self):
		for d in pairs_at_scale(max_core=7, skip_zero_k1=False):
			if d.i != 0 or d.k >= 3:
				assert not has_exceptional(d, w=1), d

	def test_weight2_residue_n(self):
		for d in pairs_at_scale(max_core=7, skip_zero_k1=False):
			if d.i == pt.n_of(d.h):
				assert not has_exceptional(d, w=2), d

	def test_weight2_middle_residue(self):
		for d in pairs_at_scale(max_core=7):
			if 1 <= d.i < pt.n_of(d.h) and d.k >= 2:
				assert not has_exceptional(d, w=2), d

	def test_weight2_residue_zero(self):
		for d in pairs_at_scale(max_core=8):
			if d.i == 0 and d.k >= 5:
				assert not has_exceptional(d, w=2), d

	def test_exceptional_shapes_have_exceptionals(self):
		for d in pairs_at_scale(max_core=6):
			if (d.k == 1 and 1 <= d.i < pt.n_of(d.h)) or (d.i == 0 and d.k == 3):
				assert has_exceptional(d, w=2), d


class TestExceptionalTriples:
	def supported(self, max_core=6):
		for d in pairs_at_scale(max_core=max_core):
			n = pt.n_of(d.h)
			if (d.k == 1 and 1 <= d.i < n) or (d.i == 0 and d.k == 3):
				yield d

	def test_chains_and_psi_action(self):
		seen = 0
		for d in self.supported():
			t = pr.exceptional_triples(d)
			a, b, g = t.source()
			ah, bh, gh = t.target()
			assert pt.strictly_dominates(b, a) and pt.strictly_dominates(g, b)
			assert pt.strictly_dominates(bh, ah) and pt.strictly_dominates(gh, bh)
			assert cb.psi(a, d.i, d.h) == ah
			assert cb.psi(b, d.i, d.h) == gh
			assert cb.psi(g, d.i, d.h) == bh
			seen += 1
		assert seen >= 10

	def test_exactly_the_exceptional_members(self):
		for d in self.supported(max_core=5):
			t = pr.exceptional_triples(d)
			sblock = pt.BlockId(d.h, d.source, 2)
			exc = [lam for lam in pt.enumerate_block(sblock)
				if not pr.is_unexceptional(lam, d, "source")]
			assert sorted(exc) == sorted(t.source())

	def test_unsupported_shapes_rejected(self):
		for d in pairs_at_scale(max_core=6, skip_zero_k1=False):
			n = pt.n_of(d.h)
			ok = (d.k == 1 and 1 <= d.i < n) or (d.i == 0 and d.k == 3)
			if not ok:
				with pytest.raises(ValueError):
					pr.exceptional_triples(d)
				break

	def test_triple_statistics(self):
		for d in self.supported():
			t = pr.exceptional_triples(d)
			b2 = pt.BlockId(d.h, d.source, 2)
			t2 = pt.BlockId(d.h, d.target, 2)
			a, b, g = (fm.weight2_profile(x, b2) for x in t.source())
			ah, bh, gh = (fm.weight2_profile(x, t2) for x in t.target())
			dd = a.spread
			assert dd >= 1
			assert g.spread == bh.spread == dd
			assert ah.spread == b.spread == gh.spread == dd - 1
			assert a.colour == g.colour == bh.colour
			assert ah.colour == b.colour == gh.colour

	def test_unexceptional_dominance_separation(self):
		# unexceptional members with nearby ddd sit entirely above gamma
		# or entirely below alpha, and their images agree with that side
		for d in self.supported(max_core=5):
			t = pr.exceptional_triples(d)
			b2 = pt.BlockId(d.h, d.source, 2)
			dd = fm.weight2_profile(t.alpha, b2).spread
			for lam in pt.enumerate_block(b2):
				if not pr.is_unexceptional(lam, d, "source"):
					continue
				if abs(fm.weight2_profile(lam, b2).spread - dd) > 1:
					continue
				img = cb.psi(lam, d.i, d.h)
				if pt.strictly_dominates(lam, t.gamma):
					assert pt.strictly_dominates(img, t.beta_hat), (d, lam)
				else:
					assert pt.strictly_dominates(t.alpha, lam), (d, lam)
					assert pt.strictly_dominates(t.beta_hat, img), (d, lam)


class TestUnexceptionalTransport:
	def test_operator_identity(self):
		# apply_f^(k) moves an unexceptional source member straight to its image
		import barfock.fock as fock
		for d in pairs_at_scale(max_core=5, skip_zero_k1=False):
			for w in (1, 2):
				sblock = pt.BlockId(d.h, d.source, w)
				for lam in pt.enumerate_block(sblock):
					if not pr.is_unexceptional(lam, d, "source"):
						continue
					assert len(pt.addable_i_nodes(lam, d.i, d.h)) == d.k
					got = fock.apply_f(fock.FockVector.basis(d.h, lam), d.i, d.k)
					want = fock.FockVector.basis(d.h, cb.psi(lam, d.i, d.h))
					assert got == want, (d, lam)

	def test_ddd_colour_h_membership_preserved(self):
		for d in pairs_at_scale(max_core=6):
			h = d.h
			b2 = pt.BlockId(h, d.source, 2)
			t2 = pt.BlockId(h, d.target, 2)
			for lam in pt.enumerate_block(b2):
				if not pr.is_unexceptional(lam, d, "source"):
					continue
				img = cb.psi(lam, d.i, h)
				p, q = fm.weight2_profile(img, t2), fm.weight2_profile(lam, b2)
				assert (p.spread, p.colour) == (q.spread, q.colour)
				assert (h in lam or 2 * h in lam) == (h in img or 2 * h in img)

	def test_dominance_transport(self):
		for d in pairs_at_scale(max_core=5):
			b2 = pt.BlockId(d.h, d.source, 2)
			members = pt.enumerate_block(b2)
			unex = [lam for lam in members
				if pr.is_unexceptional(lam, d, "source")]
			dds = {lam: fm.weight2_profile(lam, b2).spread for lam in unex}
			for lam in unex:
				for mu in unex:
					if abs(dds[lam] - dds[mu]) > 1:
						continue
					before = pt.dominates(mu, lam)
					after = pt.dominates(cb.psi(mu, d.i, d.h), cb.psi(lam, d.i, d.h))
					assert before == after, (d, lam, mu)

	def test_lex_colex_transport(self):
		for d in pairs_at_scale(max_core=5):
			b2 = pt.BlockId(d.h, d.source, 2)
			t2 = pt.BlockId(d.h, d.target, 2)
			members = pt.enumerate_block(b2)
			targets = pt.enumerate_block(t2)
			unex = [lam for lam in members
				if pr.is_unexceptional(lam, d, "source")]
			for lam in unex:
				lhat = cb.psi(lam, d.i, d.h)
				for mu in members:
					for muhat in targets:
						if not linked(mu, muhat, d.i, d.h):
							continue
						if lam > mu:
							assert lhat > muhat
						if compare_colex(lam, mu) == -1:
							assert compare_colex(lhat, muhat) == -1

	def test_special_partition_transport(self):
		for d in pairs_at_scale(max_core=6):
			n = pt.n_of(d.h)
			shaped = (d.k == 1 and 1 <= d.i < n) or (d.i == 0 and d.k == 3)
			trip = pr.exceptional_triples(d) if shaped else None
			s_named = fm.special_partitions(d.source, d.h)
			t_named = fm.special_partitions(d.target, d.h)
			for name, lam in s_named.items():
				if name in ("xx", "shp", "nat"):
					assert pr.is_unexceptional(lam, d, "source"), (d, name)
					assert cb.psi(lam, d.i, d.h) == t_named[name], (d, name)
				else:
					if pr.is_unexceptional(lam, d, "source"):
						assert cb.psi(lam, d.i, d.h) == t_named[name], (d, name)
					else:
						assert trip is not None and lam == trip.beta, (d, name)
						assert t_named[name] == trip.alpha_hat, (d, name)


class TestVerifyPair:
	def test_type_a_pair(self):
		d = [x for x in pr.detect_pairs((8, 2, 1), 7) if x.i == 1][0]
		rep = pr.verify_pair(d, 2)
		assert rep.ok
		names = [n for n, _, _ in rep.checks]
		assert "exceptional-triples" in names
		assert "column-patterns" in names

	def test_two_three_pair(self):
		d = [x for x in pr.detect_pairs((4,), 5) if x.i == 0][0]
		assert d.k == 3
		rep = pr.verify_pair(d, 2)
		assert rep.ok

	def test_equivalent_pair(self):
		# residue n is always equivalent: matrices must transport verbatim
		d = [x for x in pr.detect_pairs((2,), 5) if x.i == 2][0]
		rep = pr.verify_pair(d, 2)
		assert rep.ok
		assert any(n == "matrix-transport" for n, _, _ in rep.checks)

	def test_zero_residue_k1_declined(self):
		d = [x for x in pr.detect_pairs((), 5) if x.i == 0][0]
		assert d.k == 1
		rep = pr.verify_pair(d, 2)
		assert [s for _, s, _ in rep.checks] == ["skipped"]

	def test_report_shape(self):
		d = [x for x in pr.detect_pairs((5, 4), 7) if x.i == 1][0]
		rep = pr.verify_pair(d, 2)
		obj = rep.to_json_obj()
		assert obj["ok"] is True
		assert obj["kind"] == "C"
		assert all(c["status"] in ("pass", "fail", "skipped") for c in obj["checks"])

	def test_sweep_small(self):
		# every supported pair at this scale verifies end to end
		count = 0
		for d in pairs_at_scale(max_core=5):
			rep = pr.verify_pair(d, 2)
			assert rep.ok, (d, rep.to_json_obj())
			count += 1
		assert count >= 20

	def test_sweep_weights_3_and_4(self):
		# above weight 2 no closed formula checks the oracle; the pairs with
		# no exceptional source member transport whole matrices under psi_i,
		# which the theorem promises, so the oracle is checked there too
		reports = []
		for w, caps in ((3, {3: 10, 5: 10, 7: 8}), (4, {3: 8, 5: 8})):
			for h, cap in caps.items():
				for core in pt.enumerate_cores(h, cap):
					for d in pr.detect_pairs(core, h):
						reports.append(pr.verify_pair(d, w))
		assert len(reports) == 70
		for rep in reports:
			assert rep.ok, rep.to_json_obj()
		transported = [rep for rep in reports
			if ("matrix-transport", "pass") in ((n, s) for n, s, _ in rep.checks)]
		assert len(transported) == 15


class TestTables:
	def test_shapes(self):
		assert len(pr.SHAPES["21"].table) == 12 and len(pr.SHAPES["21"].forbidden) == 4
		assert len(pr.SHAPES["23"].table) == 10 and len(pr.SHAPES["23"].forbidden) == 3

	def test_forbidden_disjoint_from_allowed(self):
		for shape in pr.SHAPES.values():
			lefts = {row[0] for row in shape.table}
			assert not (set(shape.forbidden) & lefts)


# one pair of each shape: the type-A pair over (8,2,1) at h=7, i=1, and the
# 2-3 pair over (4) at h=5, i=0
SHAPE_PAIRS = {"21": ((8, 2, 1), 7, 1), "23": ((4,), 5, 0)}


@pytest.mark.parametrize("key", sorted(SHAPE_PAIRS))
@pytest.mark.parametrize("field", ["bottom", "f_images", "e_images", "table", "forbidden"])
def test_each_shape_field_is_read_by_the_checks_that_state_it(monkeypatch, key, field):
	# one wrong field fails exactly the checks that state its fact, each
	# with its own detail: a check never carries over another's
	core, h, i = SHAPE_PAIRS[key]
	d = [x for x in pr.detect_pairs(core, h) if x.i == i][0]
	shape = pr.SHAPES[key]
	assert pr._pair_shape(d, 2) is shape
	alpha = pt.partition_str(pr.exceptional_triples(d).alpha)
	wrong = {
		"bottom": {"bottom": shape.bottom[:2] + shape.bottom[1:2]},
		"f_images": {"f_images": shape.f_images[1:2] + shape.f_images[1:]},
		"e_images": {"e_images": (L("1"),) + shape.e_images[1:]},
		"table": {"table": tuple(r for r in shape.table if r[0] != shape.bottom)},
		"forbidden": {"forbidden": shape.forbidden + (shape.bottom,)},
	}[field]
	want = {
		"bottom": {
			"exceptional-e-identities": "f-image of the partition below the triple is ",
			"exceptional-column-source": "G at the source triple bottom is "},
		"f_images": {"exceptional-f-identities": "f-image of %s is " % alpha},
		"e_images": {"exceptional-e-identities": "e-image of %s is " % alpha},
		"table": {"column-patterns": "unlisted pattern at column %s: " % alpha},
		"forbidden": {"column-patterns": "forbidden pattern at column %s" % alpha},
	}[field]
	monkeypatch.setitem(pr.SHAPES, key, dataclasses.replace(shape, **wrong))
	failed = {name: detail for name, status, detail in pr.verify_pair(d, 2).checks
		if status == "fail"}
	assert set(failed) == set(want)
	for name, prefix in want.items():
		assert failed[name].startswith(prefix), (name, failed[name])


def _swap(monkeypatch, x, y, in_psi=True):
	"""Let fock.apply_f, and pairs.psi unless in_psi is false, act on y
	where they meet x and on x where they meet y."""
	swap = {x: y, y: x}
	real_f, real_psi = pr.fock.apply_f, pr.psi
	monkeypatch.setattr(pr.fock, "apply_f", lambda vec, i, k: real_f(
		pr.fock.FockVector(vec.h, {swap.get(lam, lam): c for lam, c in vec.items()}), i, k))
	if in_psi:
		monkeypatch.setattr(pr, "psi", lambda lam, i, h: real_psi(swap.get(lam, lam), i, h))


def _add_to_e_image(monkeypatch, lam):
	"""Let fock.apply_e put lam itself into lam's e-image."""
	real_e = pr.fock.apply_e
	monkeypatch.setattr(pr.fock, "apply_e", lambda vec, i, k: real_e(vec, i, k) + (
		pr.fock.FockVector.basis(vec.h, lam) if vec.support() == [lam] else
		pr.fock.FockVector(vec.h)))


# a mutant that breaks one fact the named check states, on a pair with
# exceptional triples ((8,2,1) at h=7, i=1) or an equivalent one ((2,) at
# h=5, i=2): the check that fails, and how its detail begins
MUTANTS = {
	"no-single-source": (((8, 2, 1), 7, 1),
		lambda mp, d: _add_to_e_image(mp, (15, 9, 1)),
		"exceptional-e-identities",
		"no single source below the triple: [(15,8,1), (15,9,1)]"),
	"image-not-restricted": (((8, 2, 1), 7, 1),
		lambda mp, d: _swap(mp, (8, 7, 4, 3, 2, 1), (15, 4, 3, 2, 1)),
		"column-patterns",
		"involution image of column (8,7,4,3,2,1) is not restricted"),
	"partner-column": (((8, 2, 1), 7, 1),
		lambda mp, d: _swap(mp, (8, 7, 4, 3, 2, 1), (8, 7, 7, 2, 1)),
		"column-patterns",
		"partner column (9,7,7,2,1) does not match the pattern table"),
	"unexceptional-transport": (((8, 2, 1), 7, 1),
		lambda mp, d: _swap(mp, (15, 4, 3, 2, 1), (15, 7, 2, 1)),
		"column-patterns",
		"unexceptional transport fails at ((15,4,3,2,1), (11,8,3,2,1))"),
	"f-image": (((8, 2, 1), 7, 1),
		lambda mp, d: _swap(mp, (8, 7, 4, 3, 2, 1), (15, 4, 3, 2, 1), in_psi=False),
		"unexceptional-f-transport",
		"f-image of unexceptional (8,7,4,3,2,1) is "),
	"addable-count": (((2,), 5, 2),
		lambda mp, d: dataclasses.replace(d, k=d.k + 1),
		"unexceptional-f-transport",
		"(5,4,2,1) has the wrong number of addable nodes"),
	"matrix-transport": (((2,), 5, 2),
		lambda mp, d: _swap(mp, (9, 2, 1), (10, 2)),
		"matrix-transport",
		"matrices differ at ((9,2,1), (5,5,2))"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_named_check_fails_on_its_mutant(monkeypatch, name):
	# the unmutated pair passes, with its matrices built before any
	# operator is mutated; the mutant then fails exactly one check
	(core, h, i), mutate, check, detail = MUTANTS[name]
	d = [x for x in pr.detect_pairs(core, h) if x.i == i][0]
	assert pr.verify_pair(d, 2).ok
	d = mutate(monkeypatch, d) or d
	failed = {n: dd for n, status, dd in pr.verify_pair(d, 2).checks if status == "fail"}
	assert list(failed) == [check]
	assert failed[check].startswith(detail), failed[check]


def test_transport_reads_each_column_once(monkeypatch):
	# the first failing row is the one a cell-by-cell read through entry
	# finds, each call reads its two columns once, and an image outside
	# the target block raises as entry does
	d = [x for x in pr.detect_pairs((2,), 5) if x.i == 2][0]
	ms = cb.canonical_basis(pt.BlockId(5, d.source, 2))
	mt = cb.canonical_basis(pt.BlockId(5, d.target, 2))
	images = {lam: pr.psi(lam, d.i, 5) for lam in ms.rows}

	def by_entry(images, mu):
		return next((lam for lam in ms.rows
			if ms.entry(lam, mu) != mt.entry(images[lam], images[mu])), None)

	reads = []
	column = cb.CanonicalBasisMatrix._column
	monkeypatch.setattr(cb.CanonicalBasisMatrix, "_column",
		lambda self, mu: reads.append(mu) or column(self, mu))
	x, y = (9, 2, 1), (10, 2)
	swapped = {**images, x: images[y], y: images[x]}
	for mu in ms.cols:
		for imgs in (images, swapped):
			want = by_entry(imgs, mu)
			del reads[:]
			assert pr._transport_failure(ms, mt, imgs, ms.rows, mu) == want
			assert len(reads) == 2
	assert by_entry(swapped, (5, 5, 2)) == x
	outside = {**images, ms.rows[1]: (99,)}
	with pytest.raises(ValueError, match=r"^\(99\) is not a row of "):
		pr._transport_failure(ms, mt, outside, ms.rows, ms.cols[0])


def test_pair_and_formula_checks_survive_optimised_mode():
	# python -O strips asserts, but not these checks: a psi that fixes
	# everything breaks the triples' permutation, a reversed weight-1 chain
	# is not the block's member list, a block without ppi leaves the
	# natural column's clauses without a partition to point at, and the
	# incomparable (6,3,3) and (5,5,2) above (4,4,4) are no chain, neither
	# for mu+ nor as an exceptional triple
	script = textwrap.dedent("""
		import barfock.formulas as fm
		import barfock.pairs as pr
		import barfock.partitions as pt
		assert False, "reached only without -O"
		d = [x for x in pr.detect_pairs((8, 2, 1), 7) if x.i == 1][0]
		pr.psi = lambda lam, i, h: lam
		try:
			pr.exceptional_triples(d)
		except pt.InvariantError as e:
			print(e)
		real = fm.weight1_chain
		fm.weight1_chain = lambda tau, h: real(tau, h)[::-1]
		try:
			fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
		except pt.InvariantError as e:
			print(e)
		specials = fm.special_partitions
		fm.special_partitions = lambda tau, h: \
			{x: lam for x, lam in specials(tau, h).items() if x != "ppi"}
		try:
			fm.formula_matrix(pt.BlockId(3, (1,), 2))
		except pt.InvariantError as e:
			print(e)
		lams = [(6, 3, 3), (5, 5, 2), (4, 4, 4)]
		sums = {lam: pt.prefix_sums(lam) for lam in lams}
		try:
			fm.mu_plus((4, 4, 4), sorted(lams), sums)
		except pt.InvariantError as e:
			print(e)
		try:
			pr._dominance_sorted_triple(lams)
		except pt.InvariantError as e:
			print(e)
	""")
	src = os.path.dirname(os.path.dirname(os.path.abspath(pr.__file__)))
	proc = subprocess.run([sys.executable, "-O", "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert proc.stdout.splitlines() == [
		"signature involution does not permute the triples as expected",
		"weight-1 chain misses block members over (4,2)",
		"nat column without ppi",
		"like-shaped partitions above (4,4,4) do not form a chain",
		"exceptional partitions do not form a chain",
	]
