"""Symmetric abacus displays, bar positions, and the <.> block notation."""

import pytest
from hypothesis import given, settings, strategies as st

import barfock.partitions as pt
import barfock.abacus as ab


def to_partition(a):
	"""The partition an abacus display shows; ValueError if it shows none."""
	parts = []
	for p, v in a.delta.items():
		if p > 0:
			occ = a.occupancy(p)
			if occ < 0 or (occ > 1 and p % a.h != 0):
				raise ValueError("display is not a partition display")
			parts.extend([p] * occ)
	lam = tuple(sorted(parts, reverse=True))
	if ab.from_partition(lam, a.h) != a:
		raise ValueError("display is not a partition display")
	return lam


class TestRunner:
	def test_h9_layout(self):
		# runners -4..4; position a+1 sits right of a unless a = n mod h
		assert [ab.runner(p, 9) for p in range(-4, 5)] == list(range(-4, 5))
		assert ab.runner(5, 9) == -4
		assert ab.runner(13, 9) == 4
		assert ab.runner(14, 9) == -4

	@given(st.integers(min_value=-60, max_value=60), st.sampled_from([3, 5, 7, 9]))
	def test_period_and_negation(self, p, h):
		n = pt.n_of(h)
		r = ab.runner(p, h)
		assert -n <= r <= n
		assert ab.runner(p + h, h) == r
		assert ab.runner(-p, h) == -r


class TestDisplay:
	def test_bead_grid_h9(self):
		# the interesting rows, plus the renderer's explicit context rows
		# (everything above is occupied, everything below is not)
		a = ab.from_partition((15, 11, 5, 4, 2, 1), 9)
		want = "\n".join([
			"bbbbbbbbb",
			"bbbbbbbnb",
			"bbnbbbbbn",
			"nbnnxbbnb",
			"bnnnnnbnn",
			"nbnnnnnnn",
			"nnnnnnnnn",
		])
		assert a.grid() == want

	def test_occupancy_semantics(self):
		a = ab.from_partition((15, 11, 5, 4, 2, 1), 9)
		for part in (15, 11, 5, 4, 2, 1):
			assert a.occupancy(part) == 1
			assert a.occupancy(-part) == 0
		assert a.occupancy(-3) == 1	# negative positions default occupied
		assert a.occupancy(3) == 0
		assert "x" in a.grid()	# origin drawn as the white bead

	def test_doubled_parts(self):
		a = ab.from_partition((5, 5, 1), 5)
		assert a.occupancy(5) == 2
		assert a.occupancy(-5) == -1	# formal: t empty spaces at -ah

	def test_repeated_multiples_of_h(self):
		# (10,5,5) at h=5: two beads stack at 5, drawn as the digit 2; the
		# vacuum bead at -5 goes twice, leaving the formal count -1, drawn
		# as '!'; 10 holds one bead and -10 none
		a = ab.from_partition((10, 5, 5), 5)
		want = "\n".join([
			"bbbbb",
			"bbnbb",
			"bb!bb",
			"bbxnn",
			"nn2nn",
			"nnbnn",
			"nnnnn",
		])
		assert a.grid() == want
		assert (a.occupancy(5), a.occupancy(-5)) == (2, -1)

	@pytest.mark.parametrize("h", [0, 4, "5"])
	def test_h_is_checked_first(self, h):
		# h is checked before the h-strict test, which divides by h
		with pytest.raises(ValueError) as err:
			ab.from_partition((2, 2), h)
		assert str(err.value) == "h must be an odd integer >= 3, got %r" % (h,)

	def test_roundtrip_exhaustive(self):
		for h in (3, 5):
			for m in range(0, 13):
				for lam in pt.enumerate_h_strict(m, h):
					assert to_partition(ab.from_partition(lam, h)) == lam


@pytest.mark.parametrize("h", [3, 5, 7, 9])
def test_core_flush(h):
	# the abacus core agrees with bar_core.  Both apply the one flush rule,
	# partitions.flush_surplus, so this pins what each side still does on
	# its own: bar_core counts the runner surpluses straight from the parts,
	# core_via_abacus builds and validates the display and sums its delta
	# per runner.  The flush rule itself is checked against every chain of
	# bar removals in test_partitions.
	for m in range(0, 17):
		for lam in pt.enumerate_h_strict(m, h):
			assert ab.core_via_abacus(ab.from_partition(lam, h)) == \
				pt.bar_core(lam, h)


def test_bar_core_rejects_bad_input():
	with pytest.raises(ValueError, match="not 5-strict"):
		pt.bar_core((4, 4, 1), 5)
	with pytest.raises(ValueError, match="weakly decrease"):
		pt.bar_core((1, 4), 5)
	with pytest.raises(ValueError, match="positive integers"):
		pt.bar_core((4, 0), 5)
	with pytest.raises(ValueError, match="positive integers"):
		pt.bar_core((4.0, 1), 5)
	assert pt.bar_core([9, 6, 3, 1], 5) == pt.bar_core((9, 6, 3, 1), 5) == (3, 1)


def test_core_of_9631():
	assert pt.bar_core((9, 6, 3, 1), 5) == (3, 1)
	assert pt.bar_weight((9, 6, 3, 1), 5) == 3


# ------------------------------------------------------------- weight two

def blk(h, lam):
	return pt.BlockId(h, pt.bar_core(lam, h), pt.bar_weight(lam, h))


class TestBarPositions:
	def test_shared_positions_pair(self):
		# both partitions have positions (8, 15); they differ in membership
		assert ab.bar_positions((15, 9, 2), blk(7, (15, 9, 2))) == (8, 15)
		assert ab.bar_positions((15, 9, 8, 2), blk(7, (15, 9, 8, 2))) == (8, 15)

	def test_pair_bar(self):
		# removing the pair (a, h-a) records h-a; (3,2) at h=5 records 3...
		# (6,5): 6->1 records 6, then 5 vanishes recording 5
		assert ab.bar_positions((6, 5), blk(5, (6, 5))) == (5, 6)

	def test_all_weight2_have_two_positions(self):
		for h in (5, 7):
			for core in pt.enumerate_cores(h, 6):
				b = pt.BlockId(h, core, 2)
				for lam in pt.enumerate_block(b):
					lo, hi = ab.bar_positions(lam, b)
					assert 0 < lo <= hi

	def test_matches_the_two_step_removal_search(self):
		# the pair every order of two bar removals records, found by search
		for h in (3, 5, 7):
			for core in pt.enumerate_cores(h, 6):
				b = pt.BlockId(h, core, 2)
				for lam in pt.enumerate_block(b):
					assert ab.bar_positions(lam, b) == removal_search(lam, b), (b, lam)

	def test_any_iterable_gives_the_same_pair_and_tag(self):
		# the parts are read once: a generator is not consumed by a first look
		b = pt.BlockId(5, (1,), 2)
		for lam in pt.enumerate_block(b):
			got = {(ab.bar_positions(make(lam), b), ab.abacus_notation(make(lam), b))
				for make in (tuple, list, lambda lam: (a for a in lam))}
			assert len(got) == 1, (lam, got)

	def test_only_this_blocks_weight2_members(self):
		for lam, b in (((6, 4, 1), pt.BlockId(5, (1,), 1)), ((6, 4), pt.BlockId(5, (1,), 2)),
				((11,), pt.BlockId(5, (), 2))):
			with pytest.raises(ValueError) as err:
				ab.bar_positions(lam, b)
			assert str(err.value) == "bar positions only defined on this block's weight-2 members"


def removal_search(lam, block):
	"""The pair recorded by removing two bars from lam down to the core,
	checked to be the same for every removal order."""
	pairs = {tuple(sorted((rec1, rec2)))
		for mu, rec1 in pt.remove_h_bar_all(lam, block.h)
		for nu, rec2 in pt.remove_h_bar_all(mu, block.h) if nu == block.core}
	assert len(pairs) == 1, (lam, pairs)
	return pairs.pop()


class TestNotation:
	def test_signed_single_tags(self):
		t1 = ab.abacus_notation((15, 9, 2), blk(7, (15, 9, 2)))
		t2 = ab.abacus_notation((15, 9, 8, 2), blk(7, (15, 9, 8, 2)))
		assert str(t1) == "<1>" and str(t2) == "<-1>"

	def test_golden_block_tags(self):
		# every member of the h=5, core (1), weight 2 block
		b = pt.BlockId(5, (1,), 2)
		want = {
			(5, 3, 2, 1): "<0,2>",
			(5, 5, 1): "<0,0>",
			(6, 3, 2): "<1,2>",
			(6, 4, 1): "<-1>",
			(6, 5): "<0,1>",
			(7, 3, 1): "<2>",
			(8, 2, 1): "<-2>",
			(10, 1): "<0>",
			(11,): "<1>",
		}
		got = {lam: str(ab.abacus_notation(lam, b)) for lam in pt.enumerate_block(b)}
		assert got == want

	def test_tag_equality_and_kinds(self):
		assert ab.pair_tag(2, 0) == ab.pair_tag(0, 2)
		assert ab.pair_tag(-1, 2) == ab.pair_tag(2, 1) == "<1,2>"
		assert ab.single_tag(1) != ab.single_tag(-1)
		assert ab.pair_tag(0, 0) == "<0,0>"
		assert ab.single_tag(-2) == "<-2>"
		# a pair tag's text has a comma and a single tag's does not
		assert ab.pair_tag(0, 2) != ab.single_tag(2)

	def test_notation_is_injective_on_blocks(self):
		for h in (5, 7):
			for core in pt.enumerate_cores(h, 6):
				b = pt.BlockId(h, core, 2)
				tags = [str(ab.abacus_notation(lam, b)) for lam in pt.enumerate_block(b)]
				assert len(set(tags)) == len(tags), (h, core, tags)
