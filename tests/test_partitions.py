"""Partition combinatorics: strictness, residues, node sets, cores, blocks.

The node-set tests re-derive addable/removable sets independently of the
library's one-pass greedy rule: by exhaustive search over row-length
vectors on small partitions, and by the row DP the library used before,
kept here as a reference, up to the acceptance gate's member bounds.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import barfock.partitions as pt


# ---------------------------------------------------------------- basics

class TestPredicates:
	def test_h_strict(self):
		assert pt.is_h_strict((5, 4), 5)
		assert pt.is_h_strict((5, 5, 1), 5)       # repeat at a multiple of 5
		assert not pt.is_h_strict((4, 4, 1), 5)   # repeat elsewhere
		assert pt.is_h_strict((), 5)
		assert pt.is_h_strict((6, 3, 3), 3)
		assert not pt.is_h_strict((6, 4, 4), 3)

	def test_restricted(self):
		# gap rule: next part > part - h, or equal with part not divisible by h
		assert pt.is_restricted((5, 3, 2, 1), 5)
		assert not pt.is_restricted((11,), 5)      # 11 - 5 = 6 > 0 = next
		assert pt.is_restricted((5, 1), 5)         # 1 > 0, and 5-5=0: 1 > 0
		assert not pt.is_restricted((10, 5), 5)    # 5 = 10-5 but 10 | 5... divisible
		assert pt.is_restricted((6, 1), 5)         # 1 = 6-5 and 6 not divisible by 5
		assert not pt.is_restricted((6,), 5)       # past-end row: 0 < 6-5

	def test_size_and_checks(self):
		assert pt.size(()) == 0
		assert pt.size((5, 3, 2)) == 10
		with pytest.raises(ValueError):
			pt.check_h(4)
		with pytest.raises(ValueError):
			pt.check_h(1)
		with pytest.raises(ValueError):
			pt.check_partition((3, 4))


class TestResidue:
	def test_pattern_h5(self):
		# palindromic window of width h: 0 1 2 1 0, then again
		want = [0, 1, 2, 1, 0, 0, 1, 2, 1, 0]
		assert [pt.residue(c, 5) for c in range(1, 11)] == want

	def test_pattern_h3(self):
		want = [0, 1, 0, 0, 1, 0, 0, 1]
		assert [pt.residue(c, 3) for c in range(1, 9)] == want

	@given(st.integers(min_value=1, max_value=200), st.sampled_from([3, 5, 7, 9]))
	def test_range_and_symmetry(self, c, h):
		n = pt.n_of(h)
		r = pt.residue(c, h)
		assert 0 <= r <= n
		assert pt.residue(c + h, h) == r


# ------------------------------------------------- node sets, brute force

def brute_node_set(lam, i, h, direction):
	"""Re-derive addable/removable i-node sets by exhaustive row search."""
	lam = tuple(lam)
	rows = len(lam) + (1 if direction == "add" else 0)
	choices = []
	for r in range(rows):
		base = lam[r] if r < len(lam) else 0
		opts = []
		span = range(base, base + 3) if direction == "add" else range(max(base - 2, 0), base + 1)
		for new in span:
			cols = range(base + 1, new + 1) if direction == "add" else range(new + 1, base + 1)
			if all(pt.residue(c, h) == i for c in cols):
				opts.append(new)
		choices.append(opts)
	best, best_total = None, None
	ambiguous = False
	for combo in itertools.product(*choices):
		cand = tuple(x for x in combo if x)
		if list(cand) != sorted(cand, reverse=True):
			continue
		if not pt.is_h_strict(cand, h):
			continue
		total = sum(combo)
		if best_total is None or \
				(direction == "add" and total > best_total) or \
				(direction == "remove" and total < best_total):
			best, best_total, ambiguous = combo, total, False
		elif total == best_total and combo != best:
			ambiguous = True
	assert best is not None and not ambiguous, (lam, i, h, direction)
	out = []
	for r, new in enumerate(best):
		base = lam[r] if r < len(lam) else 0
		lo, hi = (base, new) if direction == "add" else (new, base)
		for c in range(lo + 1, hi + 1):
			out.append((r + 1, c))
	return sorted(out, key=lambda node: (node[1], node[0]))


@pytest.mark.parametrize("h", [3, 5, 7])
def test_node_sets_match_brute_force(h):
	n = pt.n_of(h)
	for m in range(0, 13):
		for lam in pt.enumerate_h_strict(m, h):
			for i in range(n + 1):
				assert pt.addable_i_nodes(lam, i, h) == \
					brute_node_set(lam, i, h, "add"), (lam, i)
				assert pt.removable_i_nodes(lam, i, h) == \
					brute_node_set(lam, i, h, "remove"), (lam, i)


# the largest partitions the acceptance gate's sweeps touch, per h
MEMBER_BOUNDS = {3: 22, 5: 30, 7: 36}


def dp_rows(opts_per_row, h, minimise):
	"""The admissible row vector (weakly decreasing, repeats only at
	multiples of h, 0 included) with the least or greatest total, by
	memoised recursion on (row, previous value); the optimum must be
	unique."""
	memo = {}

	def go(r, prev):
		# (best total, number of optima, choice vector), or None
		if r == len(opts_per_row):
			return (0, 1, ())
		if (r, prev) not in memo:
			best = None
			for v in opts_per_row[r]:
				if v > prev or (v == prev and v % h != 0):
					continue
				sub = go(r + 1, v)
				if sub is None:
					continue
				total = v + sub[0]
				if best is None or (total < best[0] if minimise else total > best[0]):
					best = (total, sub[1], (v,) + sub[2])
				elif total == best[0]:
					best = (total, best[1] + sub[1], best[2])
			memo[(r, prev)] = best
		return memo[(r, prev)]

	result = go(0, float("inf"))
	assert result is not None and result[1] == 1, opts_per_row
	return result[2]


def row_options(length, i, h, sign):
	"""New lengths a row may reach by adding (sign 1) or removing (sign -1)
	i-nodes at its right edge, the unchanged length first: every column it
	passes must have residue i."""
	opts = [length]
	c = length + (sign > 0)  # the first column to move
	while c >= 1 and pt.residue(c, h) == i:
		opts.append(opts[-1] + sign)
		c += sign
	return opts


def dp_node_set(lam, i, h, direction):
	lengths = list(lam) + ([0] if direction == "add" and i == 0 else [])
	sign = 1 if direction == "add" else -1
	opts = [row_options(v, i, h, sign) for v in lengths]
	chosen = dp_rows(opts, h, minimise=direction == "remove")
	nodes = []
	for r, (old, new) in enumerate(zip(lengths, chosen)):
		lo, hi = (old, new) if direction == "add" else (new, old)
		nodes.extend((r + 1, c) for c in range(lo + 1, hi + 1))
	return sorted(nodes, key=lambda node: (node[1], node[0]))


@pytest.mark.parametrize("h", sorted(MEMBER_BOUNDS))
def test_greedy_node_sets_match_dp(h):
	for m in range(MEMBER_BOUNDS[h] + 1):
		for lam in pt.enumerate_h_strict(m, h):
			for i in range(pt.n_of(h) + 1):
				assert pt.addable_i_nodes(lam, i, h) == \
					dp_node_set(lam, i, h, "add"), (lam, i)
				assert pt.removable_i_nodes(lam, i, h) == \
					dp_node_set(lam, i, h, "remove"), (lam, i)


def node_content(lam, h):
	"""h-content by walking every node: the definition."""
	counts = [0] * (pt.n_of(h) + 1)
	for part in lam:
		for c in range(1, part + 1):
			counts[pt.residue(c, h)] += 1
	return tuple(counts)


@pytest.mark.parametrize("h", sorted(MEMBER_BOUNDS))
def test_h_content_matches_node_count(h):
	for m in range(MEMBER_BOUNDS[h] + 1):
		for lam in pt.enumerate_h_strict(m, h):
			assert pt.h_content(lam, h) == node_content(lam, h), lam


def test_node_sets_at_repeated_multiples_of_h():
	# the new row below may equal a row's option only at a multiple of h:
	# both rows then keep that length
	assert pt.removable_i_nodes((4, 3, 3), 0, 3) == [(3, 3), (1, 4)]
	assert pt.addable_i_nodes((5, 5, 4), 0, 5) == [(4, 1), (3, 5), (1, 6)]


def test_node_sets_on_displayed_example():
	lam = (11, 8, 6, 5, 5)
	assert pt.removable_i_nodes(lam, 0, 5) == \
		[(5, 5), (3, 6), (1, 10), (1, 11)]
	assert pt.addable_i_nodes(lam, 1, 5) == [(3, 7), (2, 9), (1, 12)]
	content = pt.h_content(lam, 5)
	assert content[0] == 15 and content[1] == 13 and content[2] == 7


@pytest.mark.parametrize("walk", [pt.addable_i_nodes, pt.removable_i_nodes])
def test_node_sets_refuse_a_residue_out_of_range(walk):
	# residues at h=5 are 0..2; an empty partition has no rows to walk
	for lam in [(1,), (5, 4), ()]:
		for i in (-1, 3, 9):
			with pytest.raises(ValueError, match=r"out of range 0\.\.2 for h=5"):
				walk(lam, i, 5)


def test_node_set_shapes():
	# new rows can only ever be a single node in column 1, residue 0
	for lam in pt.enumerate_h_strict(9, 5):
		rows = len(lam)
		for i in range(3):
			added = pt.addable_i_nodes(lam, i, 5)
			virt = [nd for nd in added if nd[0] > rows]
			if virt:
				assert i == 0 and virt == [(rows + 1, 1)]
			for r in set(nd[0] for nd in added):
				assert sum(1 for nd in added if nd[0] == r) <= 2


# ------------------------------------------------------------ bar removal

def all_bar_chains_cores(lam, h):
	"""Cores reachable by full bar-removal chains, every order."""
	results = set()
	stack = [lam]
	while stack:
		x = stack.pop()
		nxt = pt.remove_h_bar_all(x, h)
		if not nxt:
			results.add(x)
		else:
			stack.extend(mu for mu, _ in nxt)
	return results


@pytest.mark.parametrize("h", [3, 5, 7])
def test_core_is_order_independent_and_matches(h):
	for m in range(0, 15):
		for lam in pt.enumerate_h_strict(m, h):
			cores = all_bar_chains_cores(lam, h)
			assert len(cores) == 1, (lam, cores)
			core = cores.pop()
			assert core == pt.bar_core(lam, h)
			assert pt.is_core(core, h)
			w = pt.bar_weight(lam, h)
			assert pt.size(lam) == pt.size(core) + h * w


def test_bar_removal_examples():
	# a part drops by h, a part equal to h vanishes, or two parts sum to h
	assert {mu for mu, _ in pt.remove_h_bar_all((5, 4), 5)} == {(4,)}
	assert pt.bar_core((5, 4), 5) == (4,)
	assert pt.bar_weight((5, 4), 5) == 1
	assert pt.bar_core((3, 2), 5) == ()	# 3 + 2 = 5: one bar
	assert pt.bar_core((6, 4), 5) == ()	# 6 -> 1, then 4 + 1 = 5
	assert pt.bar_weight((6, 4), 5) == 2


@pytest.mark.parametrize("h", [3, 5])
def test_core_determined_by_content(h):
	# equal bar-core <=> equal residue multiset, among equal-size partitions
	for m in range(0, 13):
		by_core, by_content = {}, {}
		for lam in pt.enumerate_h_strict(m, h):
			by_core.setdefault(pt.bar_core(lam, h), set()).add(lam)
			by_content.setdefault(pt.h_content(lam, h), set()).add(lam)
		assert sorted(by_core.values(), key=sorted) == \
			sorted(by_content.values(), key=sorted)


# ------------------------------------------------------------ comparisons

def compare_colex(lam, mu):
	"""lam < mu iff at the last difference (reading parts from the tail,
	padded with zeros) lam has the *larger* part."""
	k = max(len(lam), len(mu))
	a = (0,) * (k - len(lam)) + tuple(lam[::-1])
	b = (0,) * (k - len(mu)) + tuple(mu[::-1])
	for x, y in zip(a, b):
		if x != y:
			return -1 if x > y else 1
	return 0


class TestOrders:
	def test_dominance_basics(self):
		assert pt.strictly_dominates((6, 4), (5, 3, 2))
		assert not pt.dominates((5, 3, 2), (6, 4))
		assert pt.dominates((5, 4), (5, 4))
		assert not pt.strictly_dominates((5, 4), (5, 4))
		assert not pt.dominates((6, 3, 3), (5, 5, 2))
		assert not pt.dominates((5, 5, 2), (6, 3, 3))
		with pytest.raises(ValueError):
			pt.dominates((3,), (2,))

	def test_errors_write_partitions_as_the_cli_does(self):
		with pytest.raises(ValueError) as info:
			pt.dominates((3, 1), (5,))
		assert str(info.value) == "dominance needs equal sizes: (3,1) vs (5)"
		with pytest.raises(ValueError) as info:
			pt.subtract((3, 1), (5, 2))
		assert str(info.value) == "cannot subtract (5,2) from (3,1)"

	def test_dominates_matches_prefix_sums(self):
		# the walk against the definition on zero-padded prefix sums:
		# 1,747 ordered pairs over h = 3, 5 and sizes 0..12
		def by_definition(lam, mu):
			k = max(len(lam), len(mu))
			a = itertools.accumulate(tuple(lam) + (0,) * (k - len(lam)))
			b = itertools.accumulate(tuple(mu) + (0,) * (k - len(mu)))
			return all(x >= y for x, y in zip(a, b))

		pairs = 0
		for h in (3, 5):
			for m in range(0, 13):
				parts = pt.enumerate_h_strict(m, h)
				for a in parts:
					for b in parts:
						assert pt.dominates(a, b) == by_definition(a, b), (a, b)
						assert pt.strictly_dominates(a, b) == \
							(a != b and by_definition(a, b)), (a, b)
						pairs += 1
		assert pairs == 1747
		for lam, mu in [((3,), (2,)), ((), (1,)), ((2, 1), (4,))]:
			with pytest.raises(ValueError):
				pt.dominates(lam, mu)
			with pytest.raises(ValueError):
				pt.strictly_dominates(lam, mu)

	def test_dominance_chain(self):
		chain = [(4, 4, 4), (5, 4, 3), (6, 4, 2), (7, 5), (12,)]
		shuffled = [chain[i] for i in (3, 0, 4, 2, 1)]
		assert pt.dominance_chain(shuffled) == chain
		assert pt.dominance_chain([(6, 3, 3), (5, 5, 2)]) is None
		assert pt.dominance_chain([(5, 4), (6, 3), (5, 4)]) is None
		assert pt.dominance_chain([]) == []
		assert pt.dominance_chain([(5, 4)]) == [(5, 4)]

	def test_lex_refines_dominance(self):
		for m in range(0, 12):
			parts = pt.enumerate_h_strict(m, 5)
			for a in parts:
				for b in parts:
					if pt.strictly_dominates(a, b):
						assert a > b
						assert compare_colex(a, b) == 1

	def test_enumeration_is_lex_ascending(self):
		for h in (3, 5):
			for m in range(0, 14):
				out = pt.enumerate_h_strict(m, h)
				assert out == sorted(out)
				assert len(set(out)) == len(out)
				for lam in out:
					assert pt.is_h_strict(lam, h) and pt.size(lam) == m

	def test_block_enumeration(self):
		b = pt.BlockId(5, (), 2)
		want = [lam for lam in pt.enumerate_h_strict(10, 5)
			if pt.bar_core(lam, 5) == ()]
		assert pt.enumerate_block(b) == want
		assert (4, 3, 2, 1) in want and (10,) in want

	def test_gamma(self):
		# parts strictly between 0 and h
		assert pt.gamma((4, 2), 7) == 2
		assert pt.gamma((8, 2, 1), 7) == 2
		assert pt.gamma((), 7) == 0
		assert pt.gamma((7,), 7) == 0


class TestBlockId:
	def test_validation(self):
		with pytest.raises(ValueError):
			pt.BlockId(5, (5, 4), 1)	# not a core
		with pytest.raises(ValueError):
			pt.BlockId(5, (1,), -1)
		b = pt.BlockId(5, (1,), 2)
		assert (b.h, b.core, b.weight) == (5, (1,), 2)
		assert "(1)" in str(b)

	def test_weight_zero_block(self):
		assert pt.enumerate_block(pt.BlockId(5, (3, 1), 0)) == [(3, 1)]
		assert pt.enumerate_block(pt.BlockId(5, (), 0)) == [()]


class TestMemberTable:
	"""enumerate_block and enumerate_cores read one table of the h-strict
	partitions of each (h, size), grouped by bar-core."""

	def test_every_block_matches_a_bar_core_filter(self):
		for h in (3, 5, 7):
			for m in range(25):
				cored = [(lam, pt.bar_core(lam, h)) for lam in pt.enumerate_h_strict(m, h)]
				cores = sorted({core for _lam, core in cored})
				assert cores
				for core in cores:
					block = pt.BlockId(h, core, (m - pt.size(core)) // h)
					assert pt.enumerate_block(block) == \
						[lam for lam, c in cored if c == core], block

	def test_cores_match_an_is_core_filter(self):
		for h in (3, 5, 7, 9):
			want = [t for m in range(21) for t in pt.enumerate_h_strict(m, h)
				if pt.is_core(t, h)]
			assert pt.enumerate_cores(h, 20) == want

	def test_a_second_block_of_one_size_makes_no_bar_core_calls(self, monkeypatch):
		first, second = pt.BlockId(5, (4,), 2), pt.BlockId(5, (3, 1), 2)
		calls = []
		bar_core = pt.bar_core

		def counted(lam, h):
			calls.append(lam)
			return bar_core(lam, h)

		pt._members_by_core.cache_clear()
		monkeypatch.setattr(pt, "bar_core", counted)
		assert pt.enumerate_block(first)
		assert sorted(calls) == sorted(pt.enumerate_h_strict(14, 5))
		del calls[:]
		assert pt.enumerate_block(second)
		assert calls == []

	def test_returned_lists_are_fresh(self):
		block = pt.BlockId(5, (1,), 2)
		got = pt.enumerate_block(block)
		want = list(got)
		got.reverse()
		got.append((99,))
		assert pt.enumerate_block(block) == want
		assert pt.enumerate_block(block) is not pt.enumerate_block(block)


# ------------------------------------------------------------- core facts

@pytest.mark.parametrize("h", [3, 5, 7])
def test_cores_have_odd_addable_zero_count(h):
	# a core with any addable 0-nodes has an odd number of them
	for core in pt.enumerate_cores(h, 12):
		k = len(pt.addable_i_nodes(core, 0, h))
		assert k == 0 or k % 2 == 1, (core, k)


@pytest.mark.parametrize("h", [3, 5, 7])
def test_cores_never_have_addable_and_removable(h):
	n = pt.n_of(h)
	for core in pt.enumerate_cores(h, 12):
		for i in range(n + 1):
			add = pt.addable_i_nodes(core, i, h)
			rem = pt.removable_i_nodes(core, i, h)
			assert not (add and rem), (core, i)


partition_strat = st.builds(
	lambda parts: tuple(sorted(parts, reverse=True)),
	st.lists(st.integers(min_value=1, max_value=18), max_size=6),
)


@given(partition_strat, st.sampled_from([3, 5, 7]))
@settings(max_examples=200)
def test_h_strict_closure_under_core(lam, h):
	if not pt.is_h_strict(lam, h):
		return
	core = pt.bar_core(lam, h)
	assert pt.is_h_strict(core, h)
	assert pt.is_core(core, h)
	assert pt.bar_core(core, h) == core


def test_move_nodes_accepts_only_contiguous_h_strict_moves():
	assert pt.move_nodes((5, 4), [(3, 1), (2, 5), (1, 6)], 5, 1) == (6, 5, 1)
	assert pt.move_nodes((6, 5, 1), [(3, 1), (2, 5), (1, 6)], 5, -1) == (5, 4)
	assert pt.move_nodes((5, 4), [(1, 7)], 5, 1) is None  # skips column 6
	assert pt.move_nodes((5, 4), [(4, 1)], 5, 1) is None  # skips row 3
	assert pt.move_nodes((5, 4), [(0, 5)], 5, -1) is None
	assert pt.move_nodes((4, 3), [(2, 4)], 5, 1) is None  # (4, 4) is not 5-strict
	assert pt.move_nodes((5, 4), [(1, 5)], 5, -1) is None  # nor is (4, 4)
	assert pt.move_nodes((3, 2), [(2, 3), (2, 4)], 5, 1) is None  # (3, 4)
	assert pt.move_nodes((2, 1), [(1, 1), (1, 2)], 5, -1) is None  # emptied row 1

