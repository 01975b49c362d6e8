"""Partition combinatorics for the odd-bar setting.

Partitions are plain tuples of weakly decreasing positive integers.  The
ambient odd integer h = 2n+1 is threaded through as a plain int; every
column of the Young diagram carries a residue in {0..n}, computed from the
repeating pattern 0 1 2 .. n .. 2 1 0 0 1 2 ...

Only multiples of h may repeat in an "h-strict" partition, and the
"restricted" ones (bounded gaps) are the labels of canonical-basis columns.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import ge
from types import MappingProxyType


class InvariantError(AssertionError):
	"""A fact the theory guarantees failed to hold.  Raised explicitly, so
	the check survives `python -O`; the CLI maps it to exit code 3."""


def require(condition, message, *args):
	"""Raise InvariantError(message % args) unless condition holds.  A
	tuple argument prints as a partition, (9,5,1), as the CLI prints it;
	only a failure formats, so a passing check costs no text."""
	if not condition:
		raise InvariantError(message % tuple(
			partition_str(a) if isinstance(a, tuple) else a for a in args)
			if args else message)


def check_h(h):
	if not (isinstance(h, int) and h >= 3 and h % 2 == 1):
		raise ValueError("h must be an odd integer >= 3, got %r" % (h,))
	return h


def n_of(h):
	return (h - 1) // 2


def check_partition(lam):
	lam = tuple(lam)
	for r in range(len(lam)):
		if not (isinstance(lam[r], int) and lam[r] > 0):
			raise ValueError("parts must be positive integers: %s" % partition_str(lam))
		if r + 1 < len(lam) and lam[r] < lam[r + 1]:
			raise ValueError("parts must weakly decrease: %s" % partition_str(lam))
	return lam


def size(lam):
	return sum(lam)


def is_h_strict(lam, h):
	"""Repeats allowed only at multiples of h."""
	return all(
		lam[r] > lam[r + 1] or lam[r] % h == 0
		for r in range(len(lam) - 1)
	)


def is_restricted(lam, h):
	"""Successive gaps bounded by h, with equality allowed only off 0 mod h.

	The condition is applied for every row r including the one past the end
	(so a single part h is already not restricted).  The walk over the gaps
	also checks that lam is h-strict, so it never stops early.
	"""
	restricted = not lam or lam[-1] < h  # the gap past the end is the last part
	for a, nxt in zip(lam, lam[1:]):
		if nxt >= a and a % h:
			raise ValueError("%s is not %d-strict" % (partition_str(lam), h))
		if a - nxt > h or (a - nxt == h and a % h == 0):
			restricted = False
	return restricted


def residue(c, h):
	"""Residue of column c: the smaller of (c-1) mod h and (-c) mod h."""
	return min((c - 1) % h, (-c) % h)


# ---------------------------------------------------------------------------
# removable / addable i-nodes
#
# Stripping or adding i-nodes acts on each row's right edge.  Since three
# consecutive columns never share a residue, each row changes by at most two
# nodes, and a new row can only ever be a single node in column 1 (residue 0).
# The removable set is the difference against the *smallest* h-strict
# subpartition reachable this way, the addable set against the *largest*
# h-strict superpartition.  Removal walks the rows bottom-up, giving each its
# smallest option above the new row below (equal only at a multiple of h, 0
# included); addition walks top-down taking the largest option by the same
# rule.  A smaller value in one row only widens the choices of the row above
# (a larger one, of the row below), so this pointwise optimum is admissible
# and is the unique optimum of the total.
#
# A column's residue depends only on c % h, so whether a row of length a
# has i-nodes at its edge depends only on a % h: both walks read, per row,
# how many of its edge columns are i-columns from one table per (i, h).  A
# row whose count is 0 keeps its length.  Building the table checks that i
# lies in 0..n, so the range error comes before any walk.  Each row takes
# its farthest option that fits, read off directly, and the walks return
# the nodes column-ascending, with no sort.  A row's nodes are one run of
# at most two columns at its edge, and no node set repeats a column (that
# would take a repeated part off 0 mod h, or adjacent i-columns of residues
# 0 and 1), so a lower row's run lies wholly left of the runs above it:
# removal, bottom-up, appends each row's inner node first; addition,
# top-down, its outer node first, then reverses the list.
# tests/test_partitions.py checks the order up to size 20 at h = 3, 5, 7.
#
# The per-row rule is stated here and nowhere else in the package:
# - the walks below (per-row options, the pointwise optimum) give lam's
#   addable and removable i-nodes;
# - move_nodes moves a given set of nodes and accepts the move only if each
#   row changes contiguously at its right edge and the result is h-strict.
# Every h-strict partition reachable from lam by moving i-nodes lies rowwise
# between lam and the optimum, so its moved nodes are a subset of lam's node
# set: fock finds the targets of f_i^(k) and e_i^(k) as the k-subsets that
# move_nodes accepts, and canonical's psi and peel move signature nodes
# through it.
# ---------------------------------------------------------------------------

@cache
def _edge_table(i, h):
	"""(strip, grow): at index a % h, how many i-columns a row of length a
	has at its edge, 0, 1 or 2, counted outward from it: columns a, a - 1
	(strip) and a + 1, a + 2 (grow), the second only if the first is one.

	Column 0 does not exist, but a row of length 1 is never stripped past
	length 0, so the strip count at a = 1, read as that of a = h + 1, does
	no harm.  A residue outside 0..n raises ValueError.
	"""
	if not 0 <= i <= h // 2:  # h // 2 is n
		raise ValueError("residue %r out of range 0..%d for h=%d" % (i, n_of(h), h))
	hit = [residue(c, h) == i for c in range(h)]
	return (tuple(hit[a] * (1 + hit[a - 1]) for a in range(h)),
		tuple(hit[(a + 1) % h] * (1 + hit[(a + 2) % h]) for a in range(h)))


def removable_i_nodes(lam, i, h):
	"""Nodes removed in passing to the smallest h-strict subpartition whose
	complement consists of i-nodes, in increasing column order."""
	strip = _edge_table(i, h)[0]
	nodes = []
	below = 0
	for r in range(len(lam), 0, -1):
		old = lam[r - 1]
		k = strip[old % h]
		if k:
			# the farthest option above the new row below, or level at a multiple of h
			w = old - k if old - k > below else below + (below % h > 0)
			if w < old:  # else only the unchanged length fits
				if w < old - 1:
					nodes.append((r, old - 1))
				nodes.append((r, old))
				below = w
				continue
		below = old
	return nodes


def addable_i_nodes(lam, i, h):
	"""Dual of removable_i_nodes: the difference against the largest h-strict
	superpartition reachable by adding i-nodes, in increasing column order."""
	grow = _edge_table(i, h)[1]
	nodes = []
	above = float("inf")
	# at most one new row, necessarily a single node, and only for i = 0
	for r, old in enumerate((*lam, 0) if i == 0 else lam, 1):
		k = grow[old % h]
		if k:
			w = old + k if old + k < above else above - (above % h > 0)
			if w > old:
				if w > old + 1:
					nodes.append((r, w))
				nodes.append((r, old + 1))
				above = w
				continue
		above = old
	nodes.reverse()
	return nodes


def move_nodes(lam, nodes, h, sign):
	"""The h-strict lam with the given (row, col) nodes, ascending by
	column, added (sign 1) or removed (sign -1); None unless each row's
	nodes extend (truncate) it contiguously at its right edge and the
	result is h-strict.

	Nodes are added in ascending and removed in descending column order, so
	each must sit just past (on) its row's current edge; a node may open
	the row just below the last one.  lam is h-strict, so only the pairs of
	adjacent rows that touch a moved row need checking.  An emptied row
	must lie below every nonempty one (0 repeats, as a multiple of h).
	"""
	lengths = list(lam)
	for r, c in nodes if sign > 0 else reversed(nodes):
		if sign > 0 and r == len(lengths) + 1:
			lengths.append(0)
		if not 0 < r <= len(lengths) or c != lengths[r - 1] + (sign > 0):
			return None
		lengths[r - 1] += sign
	rows = len(lengths)
	for r, _ in nodes:
		a = lengths[r - 1]
		if r > 1:
			above = lengths[r - 2]
			if above < a or (above == a and a % h):
				return None
		if r < rows:
			below = lengths[r]
			if a < below or (a == below and a % h):
				return None
	if sign < 0:
		while lengths and not lengths[-1]:
			lengths.pop()
	return tuple(lengths)


def h_content(lam, h):
	"""Residue counts of all nodes, as a tuple indexed by residue 0..n.

	Each run of h columns holds residues 0..n-1 twice and n once; of the
	r = part % h columns left over, residue j sits in column j + 1 and, for
	j < n, in column h - j.  So residue j < n counts two per run, one per
	part with r > j and one per part with r >= h - j; residue n counts one
	per run and one per part with r > n.
	"""
	n = n_of(h)
	tally = [0] * (h + 1)  # parts by r; r = h never occurs
	runs = 0
	for part in lam:
		q, r = divmod(part, h)
		runs += q
		tally[r] += 1
	at_least = list(accumulate(reversed(tally)))[::-1]  # parts with r >= t, at t
	return tuple([2 * runs + at_least[j + 1] + at_least[h - j] for j in range(n)]
		+ [runs + at_least[n + 1]])


# ---------------------------------------------------------------------------
# h-bar removal, cores and weights
# ---------------------------------------------------------------------------

def remove_h_bar_all(lam, h):
	"""All single h-bar removals from the h-strict lam, as (partition,
	recorded value) pairs, sorted.

	Two moves: replace a part a >= h by a - h (recording a; a part equal to
	h disappears and records h), or delete two parts summing to h (recording
	the larger).  Results must again be h-strict: deleting parts keeps lam
	h-strict, so only a - h can repeat, where it is already a part and not
	a multiple of h.

	The package grows blocks by add_h_bar_all and never calls this; it is
	the paper's h-bar removal, the reference that the tests check bar_core,
	add_h_bar_all and the values _block_members records against.
	"""
	lam = tuple(lam)
	out = []
	for a in set(lam):
		if a >= h and (a % h == 0 or a - h not in lam):
			rest = list(lam)
			rest.remove(a)
			if a > h:
				rest.append(a - h)
				rest.sort(reverse=True)
			out.append((tuple(rest), a))
	for a in range(1, n_of(h) + 1):
		if a in lam and h - a in lam:
			rest = list(lam)
			rest.remove(a)
			rest.remove(h - a)
			out.append((tuple(rest), h - a))
	out.sort()
	return out


def add_h_bar_all(lam, h):
	"""All single h-bar additions, the inverse of remove_h_bar_all: the
	h-strict partitions from which one h-bar removal gives lam, each
	once, in no set order, as (partition, value) pairs.  The value is what
	that removal records: a + h when part a grows, and h - a when the
	pair h - a, a is added.

	Two moves: replace a part a by a + h (a = 0 adds a part h), or add two
	parts summing to h.  Removing a part keeps lam h-strict, so a result
	fails to be h-strict only by repeating a part that is not a multiple
	of h.
	"""
	out = []
	for a in set(lam) | {0}:
		if a % h == 0 or a + h not in lam:
			rest = list(lam)
			if a:
				rest.remove(a)
			rest.append(a + h)
			rest.sort(reverse=True)
			out.append((tuple(rest), a + h))
	for a in range(1, n_of(h) + 1):
		if a not in lam and h - a not in lam:
			out.append((tuple(sorted(lam + (h - a, a), reverse=True)), h - a))
	return out


def flush_surplus(beads, h):
	"""The partition of the fully flushed abacus display whose runner k
	holds beads[k] - beads[h - k] beads beyond the vacuum.

	This is the one statement of the flush rule; bar_core and
	abacus.core_via_abacus both read the bar-core off it.  Bar removals
	preserve each runner's surplus, and flushing moves every bead as high
	as it goes, so a runner with surplus d > 0 contributes the d lowest
	positive positions on it, and one with d <= 0 contributes none; runners
	k and h - k, of opposite surpluses, are read as one pair.
	"""
	parts = []
	for k in range(1, h // 2 + 1):  # h // 2 is n
		d = beads[k] - beads[h - k]
		low = k if d > 0 else h - k
		parts += range(low, low + abs(d) * h, h)
	parts.sort(reverse=True)
	return tuple(parts)


def bar_core(lam, h):
	"""The bar-core: lam's parts, counted by runner, flushed by
	flush_surplus.  A part a puts a bead on runner a and takes one off
	runner -a (see the abacus module), so counting the parts by a % h is
	all the flush needs.  The same pass checks that each part is a
	positive integer, at most the one above it and, if equal to it, a
	multiple of h; only a part that fails goes back to check_partition
	for the message."""
	check_h(h)
	lam = tuple(lam)
	beads = [0] * h
	above = float("inf")
	for a in lam:
		if not (isinstance(a, int) and 0 < a and (a < above or (a == above and a % h == 0))):
			check_partition(lam)  # raises unless lam only fails to be h-strict
			raise ValueError("%s is not %d-strict" % (partition_str(lam), h))
		beads[a % h] += 1
		above = a
	return flush_surplus(beads, h)


def bar_weight(lam, h):
	core = bar_core(lam, h)
	excess = size(lam) - size(core)
	require(excess % h == 0, "%s minus its bar-core %s is not a union of %d-bars",
		lam, core, h)
	return excess // h


def is_core(tau, h):
	return bar_weight(tau, h) == 0


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def dominates(lam, mu):
	"""lam dominates mu (weakly): no prefix sum of lam falls below mu's.

	The partitions must have equal size (anything else is a block-mixing
	bug).  Then no padding is needed: a longer partition always falls short
	at the last row of the shorter one.
	"""
	if sum(lam) != sum(mu):
		raise ValueError("dominance needs equal sizes: %s vs %s"
			% (partition_str(lam), partition_str(mu)))
	return sums_dominate(prefix_sums(lam), prefix_sums(mu))


def prefix_sums(lam):
	"""lam's prefix sums, which is all that dominance reads of it."""
	return tuple(accumulate(lam))


def sums_dominate(a, b):
	"""The dominance rule on the prefix sums of two partitions of equal
	size, which a caller that compares one partition many times keeps."""
	return all(map(ge, a, b))


def strictly_dominates(lam, mu):
	return lam != mu and dominates(lam, mu)


def dominance_chain(lams):
	"""lams sorted lex ascending if each strictly dominates the one before
	it, else None.  Strict dominance implies lex order, so the sorted
	neighbours decide whether the set is a chain."""
	chain = sorted(lams)
	if all(strictly_dominates(b, a) for a, b in zip(chain, chain[1:])):
		return chain
	return None


# ---------------------------------------------------------------------------
# multiset part operations
# ---------------------------------------------------------------------------

def union(lam, mu):
	return tuple(sorted(list(lam) + list(mu), reverse=True))


def intersect(lam, mu):
	rest = list(mu)
	out = []
	for a in lam:
		if a in rest:
			out.append(a)
			rest.remove(a)
	return tuple(sorted(out, reverse=True))


def subtract(lam, mu):
	rest = list(lam)
	for a in mu:
		if a not in rest:
			raise ValueError("cannot subtract %s from %s"
				% (partition_str(mu), partition_str(lam)))
		rest.remove(a)
	return tuple(sorted(rest, reverse=True))


def count_between(tau, x, y):
	"""Number of parts strictly between x and y."""
	if not x < y:
		raise ValueError("need x < y")
	return sum(1 for a in tau if x < a < y)


def gamma(tau, h):
	"""Parts of tau strictly between 0 and h."""
	return count_between(tau, 0, h) if tau else 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_h_strict(m, h):
	"""All h-strict partitions of m, lexicographically ascending."""
	out = []
	_extend_h_strict(out, [], m, m, h)
	return out


def _extend_h_strict(out, acc, remaining, maxpart, h):
	"""Append acc + tail to out for each h-strict tail of remaining with
	parts <= maxpart that extends acc; smallest parts first, so lex order."""
	if remaining == 0:
		out.append(tuple(acc))
		return
	for a in range(1, min(remaining, maxpart) + 1):
		if acc and acc[-1] == a and a % h != 0:
			continue
		acc.append(a)
		_extend_h_strict(out, acc, remaining - a, a, h)
		acc.pop()


def enumerate_cores(h, max_size):
	"""All bar-cores of size at most max_size, by size then lex.

	A core is its runner surpluses, flushed (flush_surplus).  Runners k
	and h - k carry opposite surpluses and runner 0 none, so the cores
	are the free choices, for each k = 1..n, of d >= 0 beads on runner k
	or on runner h - k; d beads from the lowest position low on a runner
	are the parts low, low + h, ..., low + (d - 1) h.
	"""
	choices = [([0] * h, 0)] if max_size >= 0 else []  # (beads by runner, core size)
	for k in range(1, n_of(h) + 1):
		grown = []
		for beads, used in choices:
			grown.append((beads, used))
			for low in (k, h - k):
				d, cost = 1, low
				while used + cost <= max_size:
					loaded = list(beads)
					loaded[low] = d
					grown.append((loaded, used + cost))
					cost += low + d * h
					d += 1
		choices = grown
	return sorted((flush_surplus(beads, h) for beads, _ in choices),
		key=lambda tau: (size(tau), tau))


@dataclass(frozen=True)
class BlockId:
	"""A combinatorial block: ambient h, a bar-core, and a bar-weight."""
	h: int
	core: tuple
	weight: int

	def __post_init__(self):
		check_h(self.h)
		object.__setattr__(self, "core", tuple(self.core))
		if bar_weight(self.core, self.h) != 0:  # bar_core checks the parts
			raise ValueError("%s is not a %d-bar-core" % (partition_str(self.core), self.h))
		if not isinstance(self.weight, int):
			raise ValueError("weight must be an integer, got %r" % (self.weight,))
		if self.weight < 0:
			raise ValueError("negative weight")

	def __str__(self):
		return "h=%d core=%s w=%d" % (self.h, partition_str(self.core), self.weight)


def enumerate_block(block):
	"""All h-strict partitions with the block's core and weight, lex
	ascending, as a fresh list."""
	return list(_block_members(block.h, block.core, block.weight))


@cache
def _block_members(h, core, weight):
	"""The members of the block (h, core, weight), lex ascending, each
	with the sorted values its bar removals record down to the core, in a
	read-only mapping, since every caller shares it: the core at weight 0,
	and every single h-bar addition to a member one weight lower above it.
	Adding bars never changes the bar-core, and every member reaches the
	core by removing bars, so nothing is filtered.

	Where two growth paths meet at a member, they must have recorded the
	same values; that is checked, at every weight.  It holds because, on
	the symmetric abacus, a removal moves a bead and its mirror image one
	step down their runners and records the higher of their two starting
	positions, and the number of moves that start at each position on a
	runner is a suffix sum of lam's bead surplus over the core's, the same
	in every order.
	"""
	if weight == 0:
		return MappingProxyType({core: ()})
	grown = {}
	for lam, values in _block_members(h, core, weight - 1).items():
		for mu, value in add_h_bar_all(lam, h):
			bars = tuple(sorted((*values, value)))
			seen = grown.setdefault(mu, bars)
			require(seen == bars, "h=%d core=%s w=%d: the bar values of %s "
				"depend on the growth path: %s and %s", h, core, weight, mu, seen, bars)
	return MappingProxyType(dict(sorted(grown.items())))


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def partition_str(lam):
	return "(" + ",".join(str(a) for a in lam) + ")"


def parse_partition(text):
	"""Accepts (9,6,3,1), bare 9,6,3,1, and () or - or empty for ()."""
	text = text.strip()
	if text.startswith("(") and text.endswith(")"):
		text = text[1:-1].strip()
	elif "(" in text or ")" in text:
		raise ValueError("partitions look like (9,6,3,1); got %r" % text)
	if not text or text == "-":
		return ()
	try:
		parts = tuple(int(tok) for tok in text.split(","))
	except ValueError:
		raise ValueError("partitions look like (9,6,3,1); got %r" % text)
	return check_partition(parts)
