"""Closed-form decomposition matrices: weight 0, 1 and 2."""

import os
import subprocess
import sys
import textwrap

import pytest

import barfock.partitions as pt
import barfock.canonical as cb
import barfock.formulas as fm
from barfock.laurent import ONE, parse

from test_acceptance import W2_CORES, dense


def three_move_chain(tau, h):
	"""The paper's weight-1 block over the bar-core tau, built by its three
	moves and tagged by bracket index: push a part a up by h (index a + h),
	insert a part h (index h), or insert a complementary pair b, h - b with
	b > n (index b).  Returned as (index, member) pairs sorted by index."""
	n = pt.n_of(h)
	entries = [(h, pt.union(tau, (h,)))]
	for a in tau:
		if a + h not in tau:
			entries.append((a + h, pt.union(pt.subtract(tau, (a,)), (a + h,))))
	for b in range(n + 1, h):
		if b not in tau and h - b not in tau:
			entries.append((b, pt.union(tau, (b, h - b))))
	return sorted(entries)


class TestWeight1:
	def test_chain_shape(self):
		for h in (3, 5, 7):
			n = pt.n_of(h)
			for core in pt.enumerate_cores(h, 8):
				parts = fm.formula_matrix(pt.BlockId(h, core, 1)).rows
				assert len(parts) == n + 1
				for a, b in zip(parts, parts[1:]):
					assert pt.strictly_dominates(b, a)
				assert all(pt.is_restricted(lam, h) for lam in parts[:-1])
				assert not pt.is_restricted(parts[-1], h)

	def test_growth_record_is_the_three_move_chain(self):
		# the chain read off the block's growth record is the paper's
		# three-move construction, and the value each member records is
		# its bracket index, so the indices sort the chain
		blocks = 0
		for hs, bound in (((3, 5, 7), 15), ((9, 11, 13, 15), 30)):
			for h in hs:
				for core in pt.enumerate_cores(h, bound):
					ref = three_move_chain(core, h)
					rows = fm.formula_matrix(pt.BlockId(h, core, 1)).rows
					assert list(rows) == [lam for _, lam in ref], (h, core)
					values = pt._block_members(h, core, 1)
					assert [values[lam] for _, lam in ref] == [(i,) for i, _ in ref]
					assert len({i for i, _ in ref}) == pt.n_of(h) + 1
					blocks += 1
		assert blocks == 2409

	def test_values_that_fail_to_rise_are_refused(self, monkeypatch):
		# the growth record read in reverse: same members, same values,
		# but the bracket indices fall along the lex order
		real = pt._block_members
		monkeypatch.setattr(pt, "_block_members", lambda h, core, w:
			dict(reversed(real(h, core, w).items())) if (h, core, w) == (7, (4, 2), 1)
			else real(h, core, w))
		with pytest.raises(pt.InvariantError) as err:
			fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
		assert str(err.value) == \
			"bar values do not rise strictly along the weight-1 chain over (4,2)"

	def test_displayed_matrix(self):
		m = fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
		assert list(m.rows) == [(6, 4, 2, 1), (7, 4, 2), (9, 4), (11, 2)]
		assert list(m.cols) == [(6, 4, 2, 1), (7, 4, 2), (9, 4)]
		got = list(m.dense_rows(str, "0"))
		assert got == [
			["1", "0", "0"],
			["q", "1", "0"],
			["0", "q^2", "1"],
			["0", "0", "q^2"],
		]

	@pytest.mark.parametrize("h,core", [
		(3, ()), (3, (2,)), (5, (1,)), (5, (4, 2)), (7, (4, 2)), (7, (1,)),
	])
	def test_matches_oracle(self, h, core):
		m = fm.formula_matrix(pt.BlockId(h, core, 1))
		o = cb.canonical_basis(pt.BlockId(h, core, 1))
		assert (m.rows, m.cols, dense(m)) == (o.rows, o.cols, dense(o))

	def test_entry_values_follow_h_membership(self):
		# subdiagonal entry is q when the lower partition contains h, else q^2
		m = fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
		assert str(m.entry((7, 4, 2), (6, 4, 2, 1))) == "q"	# 7 in (7,4,2)
		assert str(m.entry((9, 4), (7, 4, 2))) == "q^2"


class TestWeight2Statistics:
	def test_displayed_legs(self):
		b = pt.BlockId(7, pt.bar_core((10, 5, 4), 7), 2)
		prof = fm.weight2_profile((10, 5, 4), b)
		assert prof.legs == (1, 3)
		assert prof.spread == 2
		assert prof.colour == "grey"

	def test_ddd_zero_double_h(self):
		# (5,5) over the empty core: two h-bars with a common leg
		b = pt.BlockId(5, (), 2)
		assert fm.weight2_profile((5, 5), b).spread == 0

	@pytest.mark.parametrize("h", [3, 5, 7])
	def test_domlohi(self, h):
		import barfock.abacus as ab
		for core in pt.enumerate_cores(h, 6):
			b = pt.BlockId(h, core, 2)
			members = pt.enumerate_block(b)
			pos = {lam: ab.bar_positions(lam, b) for lam in members}
			for lam in members:
				for mu in members:
					if pos[lam][0] <= pos[mu][0] and pos[lam][1] <= pos[mu][1]:
						assert pt.dominates(mu, lam), (lam, mu)

	@pytest.mark.parametrize("h", [3, 5, 7])
	def test_domddd(self, h):
		# dominance-incomparable members differ in ddd by at least 2
		for core in pt.enumerate_cores(h, 6):
			b = pt.BlockId(h, core, 2)
			members = pt.enumerate_block(b)
			for lam in members:
				for mu in members:
					if not pt.dominates(lam, mu) and not pt.dominates(mu, lam):
						spreads = [fm.weight2_profile(x, b).spread for x in (lam, mu)]
						assert abs(spreads[0] - spreads[1]) >= 2

	@pytest.mark.parametrize("h", [3, 5, 7])
	def test_ddd0_bars_sit_high(self, h):
		# ddd 0 with a 2h-bar forces the low bar position to be >= h
		import barfock.abacus as ab
		for core in pt.enumerate_cores(h, 6):
			b = pt.BlockId(h, core, 2)
			for lam in pt.enumerate_block(b):
				lo, hi = ab.bar_positions(lam, b)
				two_h_bar = (hi == lo + h) or (lo < hi and lo + hi == 2 * h)
				if fm.weight2_profile(lam, b).spread == 0 and two_h_bar:
					assert lo >= h, (lam, lo, hi)


class TestSpecials:
	def test_small_core_fixture(self):
		got = fm.special_partitions((1,), 5)
		assert got == {
			"shp": (5, 3, 2, 1),
			"nat": (5, 5, 1),
			"flt": (6, 4, 1),
			"ppi": (6, 5),
			"yy": (11,),
		}

	def test_empty_core_fixture(self):
		got = fm.special_partitions((), 5)
		# Gamma = 0: no yy; xx exists since n - 2 >= 0
		assert got == {
			"xx": (4, 3, 2, 1),
			"shp": (5, 4, 1),
			"nat": (5, 5),
			"flt": (6, 4),
			"ppi": (10,),
		}

	def test_staircase_shapes(self):
		# closed forms over the staircase core (l, ..., 1)
		for h in (5, 7):
			n = pt.n_of(h)
			for l in range(0, n + 1):
				tau = tuple(range(l, 0, -1))
				s = fm.special_partitions(tau, h)
				assert s["nat"] == pt.union(tau, (h, h))
				if l <= n - 1:
					assert s["shp"] == pt.union(tau, (h, h - l - 1, l + 1))
					assert s["flt"] == pt.union(tau, (h + 1, h - 1))
				if l <= n - 2:
					assert s["xx"] == pt.union(tau, (h - l - 1, h - l - 2, l + 2, l + 1))
				if l >= 1:
					assert s["ppi"] == pt.subtract(pt.union(tau, (h + 1, h)), (1,))
				else:
					assert s["ppi"] == (2 * h,)
				if l >= 2:
					assert s["yy"] == pt.subtract(pt.union(tau, (h + 2, h + 1)), (2, 1))
				elif l == 1:
					assert s["yy"] == (2 * h + 1,)

	def test_a_core_is_required(self):
		# (5) has bar-weight 1 at h=5: BlockId refuses it as a usage
		# error, before any named partition is built
		with pytest.raises(ValueError) as err:
			fm.special_partitions((5,), 5)
		assert str(err.value) == "(5) is not a 5-bar-core"
		with pytest.raises(ValueError, match="^h must be an odd integer"):
			fm.special_partitions((1,), 4)

	def test_a_named_partition_outside_the_block_is_refused(self, monkeypatch):
		# the one membership test: a named partition missing from the
		# block's growth record fails, whatever made it wrong
		real = pt._block_members
		monkeypatch.setattr(pt, "_block_members", lambda h, core, w:
			{lam: v for lam, v in real(h, core, w).items() if lam != (6, 5)})
		with pytest.raises(pt.InvariantError) as err:
			fm.special_partitions((1,), 5)
		assert str(err.value) == "ppi = (6,5) is not in the weight-2 block over (1)"

	def test_members_of_block(self):
		for tau, h in [((1,), 5), ((), 5), ((2, 1), 7), ((4, 2), 7)]:
			b = pt.BlockId(h, tau, 2)
			members = set(pt.enumerate_block(b))
			for name, lam in fm.special_partitions(tau, h).items():
				assert lam in members, (name, lam)


def _like_shaped(block):
	"""mu_plus's inputs on a weight-2 block: for each member, the members
	with its leg spread and colour, lex ascending; and every member's
	prefix sums."""
	members = pt.enumerate_block(block)
	shape = {lam: (p.spread, p.colour)
		for lam, p in ((lam, fm.weight2_profile(lam, block)) for lam in members)}
	like = {lam: [mu for mu in members if shape[mu] == shape[lam]] for lam in members}
	return like, {lam: pt.prefix_sums(lam) for lam in members}


class TestMuPlus:
	def test_displayed_values(self):
		like, sums = _like_shaped(pt.BlockId(5, (1,), 2))
		assert fm.mu_plus((6, 3, 2), like[(6, 3, 2)], sums) == (7, 3, 1)
		assert fm.mu_plus((6, 4, 1), like[(6, 4, 1)], sums) == (10, 1)

	def test_same_statistics(self):
		b = pt.BlockId(5, (1,), 2)
		like, sums = _like_shaped(b)
		for mu in [(6, 3, 2), (6, 4, 1)]:
			up = fm.mu_plus(mu, like[mu], sums)
			p, q = fm.weight2_profile(mu, b), fm.weight2_profile(up, b)
			assert (p.spread, p.colour) == (q.spread, q.colour)
			assert pt.strictly_dominates(up, mu)

	def test_least_like_shaped_dominating_member(self):
		# mu+ is the least of the like-shaped members strictly dominating
		# mu, found by a scan of every member with partitions.dominates
		for h in (3, 5, 7):
			for core in pt.enumerate_cores(h, 6):
				like, sums = _like_shaped(pt.BlockId(h, core, 2))
				for mu in like:
					above = [lam for lam in like[mu] if pt.strictly_dominates(lam, mu)]
					if above:
						assert fm.mu_plus(mu, like[mu], sums) == min(above), mu

	def test_chain_check(self):
		# two like-shaped partitions above mu that do not compare
		lams = [(4, 4, 4), (5, 5, 2), (6, 3, 3)]
		sums = {lam: pt.prefix_sums(lam) for lam in lams}
		with pytest.raises(pt.InvariantError, match=r"above \(4,4,4\) do not form a chain"):
			fm.mu_plus((4, 4, 4), lams, sums)
		with pytest.raises(pt.InvariantError, match=r"no like-shaped partition above \(6,3,3\)"):
			fm.mu_plus((6, 3, 3), lams, sums)


class TestWeight2Matrix:
	def test_golden_block(self):
		b = pt.BlockId(5, (1,), 2)
		m = fm.formula_matrix(b)
		o = cb.canonical_basis(b)
		assert (m.rows, m.cols, dense(m)) == (o.rows, o.cols, dense(o))

	@pytest.mark.parametrize("h,core", [
		(3, ()), (3, (1,)), (3, (2,)), (5, ()), (5, (2,)), (5, (3, 1)),
		(7, (1,)), (7, (4, 2)),
	])
	def test_matches_oracle(self, h, core):
		b = pt.BlockId(h, core, 2)
		m = fm.formula_matrix(b)
		o = cb.canonical_basis(b)
		assert (m.rows, m.cols, dense(m)) == (o.rows, o.cols, dense(o))

	@pytest.mark.parametrize("h", [9, 11, 13])
	def test_matches_oracle_beyond_the_gate(self, h):
		# the gate's weight-2 sweep stops at h = 7; every block with a core
		# up to size 12 at h = 9, 11 and 13 (173 blocks in all)
		blocks = [pt.BlockId(h, core, 2) for core in pt.enumerate_cores(h, 12)]
		assert len(blocks) == {9: 45, 11: 58, 13: 70}[h]
		for b in blocks:
			assert fm.formula_matrix(b) == cb.canonical_basis(b), b

	def test_labels_cover_all_nonzero_entries(self):
		b = pt.BlockId(5, (1,), 2)
		m, labels = fm.formula_matrix(b, with_labels=True)
		for (lam, mu), tag in labels.items():
			assert m.entry(lam, mu), (lam, mu, tag)
			assert isinstance(tag, str) and tag


class TestDispatch:
	def test_formula_matrix_by_weight(self):
		m0, labels0 = fm.formula_matrix(pt.BlockId(5, (3, 1), 0), with_labels=True)
		assert dense(m0) == [[ONE]] and labels0 == {((3, 1), (3, 1)): "unit"}
		# weight 1: the dominance chain, with the weight-1 labels
		b1 = pt.BlockId(7, (4, 2), 1)
		m1, labels1 = fm.formula_matrix(b1, with_labels=True)
		assert list(m1.rows) == [lam for _, lam in three_move_chain((4, 2), 7)]
		assert set(labels1.values()) == {"unit", "step", "step-h"}
		assert fm.formula_matrix(b1) == m1
		# weight 2: every block member, with sporadic and generic labels
		b2 = pt.BlockId(5, (1,), 2)
		m2, labels2 = fm.formula_matrix(b2, with_labels=True)
		assert list(m2.rows) == pt.enumerate_block(b2)
		assert {"at nat", "partner", "between"} <= set(labels2.values())
		assert fm.formula_matrix(b2) == m2

	def test_weight_cap(self):
		with pytest.raises(ValueError):
			fm.formula_matrix(pt.BlockId(5, (), 3))


def test_formulas_keep_no_state():
	# in a fresh interpreter: the gate's weight-2 sweep leaves every
	# module-level container (and any cached function) of formulas as it was
	script = textwrap.dedent("""
		import barfock.formulas as fm
		import barfock.partitions as pt

		def sizes():
			out = {}
			for name, v in vars(fm).items():
				if isinstance(v, (dict, list, set)) and not name.startswith("__"):
					out[name] = len(v)
				elif hasattr(v, "cache_info"):
					out[name] = v.cache_info().currsize
			return out

		before = sizes()
		for h, cap in %r.items():
			for core in pt.enumerate_cores(h, cap):
				fm.formula_matrix(pt.BlockId(h, core, 2))
		assert sizes() == before, (before, sizes())
		print(sorted(before))
	""" % (W2_CORES,))
	src = os.path.dirname(os.path.dirname(os.path.abspath(fm.__file__)))
	proc = subprocess.run([sys.executable, "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert "_SPORADIC" in proc.stdout
