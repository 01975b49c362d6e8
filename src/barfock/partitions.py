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
from operator import itemgetter


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
	(so a single part h is already not restricted).
	"""
	if not is_h_strict(lam, h):
		raise ValueError("%s is not %d-strict" % (partition_str(lam), h))
	for r in range(len(lam)):
		nxt = lam[r + 1] if r + 1 < len(lam) else 0
		if nxt > lam[r] - h:
			continue
		if nxt == lam[r] - h and lam[r] % h != 0:
			continue
		return False
	return True


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
# A column's residue depends only on c % h, so both walks read it from one
# table per h.  A residue outside 0..n matches no column, so a walk over it
# finds no nodes, and only an empty result pays for the range check.  They
# try a row's options farthest first and pass over a row whose edge column
# has another residue: it keeps its length.
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

_BY_COLUMN = itemgetter(1, 0)


@cache
def _residue_table(h):
	"""The residue of column c, at index c % h."""
	return tuple(residue(c, h) for c in range(h))


def _residue_error(i, h):
	return ValueError("residue %r out of range 0..%d for h=%d" % (i, n_of(h), h))


def removable_i_nodes(lam, i, h):
	"""Nodes removed in passing to the smallest h-strict subpartition whose
	complement consists of i-nodes; increasing column order, ties by row."""
	res = _residue_table(h)
	nodes = []
	below = 0
	for r in range(len(lam) - 1, -1, -1):
		old = v = lam[r]  # the unchanged length always fits
		if res[old % h] == i:
			low = old - 2 if old >= 2 and res[(old - 1) % h] == i else old - 1
			for w in range(low, old):
				if w > below or (w == below and w % h == 0):
					nodes.extend((r + 1, c) for c in range(w + 1, old + 1))
					v = w
					break
		below = v
	if not nodes and not 0 <= i <= h // 2:  # h // 2 is n
		raise _residue_error(i, h)
	nodes.sort(key=_BY_COLUMN)
	return nodes


def addable_i_nodes(lam, i, h):
	"""Dual of removable_i_nodes: the difference against the largest h-strict
	superpartition reachable by adding i-nodes."""
	res = _residue_table(h)
	nodes = []
	above = float("inf")
	# at most one new row, necessarily a single node, and only for i = 0
	for r, old in enumerate((*lam, 0) if i == 0 else lam):
		v = old  # the unchanged length always fits
		if res[(old + 1) % h] == i:
			high = old + 2 if res[(old + 2) % h] == i else old + 1
			for w in range(high, old, -1):
				if w < above or (w == above and w % h == 0):
					nodes.extend((r + 1, c) for c in range(old + 1, w + 1))
					v = w
					break
		above = v
	if not nodes and not 0 <= i <= h // 2:  # h // 2 is n
		raise _residue_error(i, h)
	nodes.sort(key=_BY_COLUMN)
	return nodes


def move_nodes(lam, nodes, h, sign):
	"""lam with the given (row, col) nodes, ascending by column, added
	(sign 1) or removed (sign -1); None unless each row's nodes extend
	(truncate) it contiguously at its right edge and the result is h-strict.

	Nodes are added in ascending and removed in descending column order, so
	each must sit just past (on) its row's current edge; a node may open
	the row just below the last one.
	"""
	lengths = list(lam)
	for r, c in nodes if sign > 0 else reversed(nodes):
		if sign > 0 and r == len(lengths) + 1:
			lengths.append(0)
		if not 0 < r <= len(lengths) or c != lengths[r - 1] + (sign > 0):
			return None
		lengths[r - 1] += sign
	# emptied rows must be the last ones: 0 repeats, as a multiple of h
	if any(a <= b and (a < b or a % h) for a, b in zip(lengths, lengths[1:])):
		return None
	return tuple(v for v in lengths if v)


def h_content(lam, h):
	"""Residue counts of all nodes, as a tuple indexed by residue 0..n.

	Each run of h columns holds residues 0..n-1 twice and n once; of the
	r = part % h columns left over, residue j sits in column j + 1 and, for
	j < n, in column h - j.
	"""
	n = n_of(h)
	counts = [0] * (n + 1)
	for part in lam:
		runs, r = divmod(part, h)
		for j in range(n):
			counts[j] += 2 * runs + (r > j) + (r >= h - j)
		counts[n] += runs + (r > n)
	return tuple(counts)


# ---------------------------------------------------------------------------
# h-bar removal, cores and weights
# ---------------------------------------------------------------------------

def remove_h_bar_all(lam, h):
	"""All single h-bar removals, as (partition, recorded value) pairs.

	Two moves: replace a part a >= h by a - h (recording a; a part equal to
	h disappears and records h), or delete two parts summing to h (recording
	the larger).  Results must again be h-strict.
	"""
	lam = tuple(lam)
	out = set()
	parts = list(lam)
	for a in sorted(set(parts), reverse=True):
		if a >= h:
			rest = list(parts)
			rest.remove(a)
			if a > h:
				rest.append(a - h)
			mu = tuple(sorted(rest, reverse=True))
			if is_h_strict(mu, h):
				out.add((mu, a))
	for a in range(1, n_of(h) + 1):
		if a in parts and (h - a) in parts:
			rest = list(parts)
			rest.remove(a)
			rest.remove(h - a)
			mu = tuple(sorted(rest, reverse=True))
			if is_h_strict(mu, h):
				out.add((mu, h - a))
	return sorted(out)


def flush_surplus(surplus, h):
	"""The partition of the fully flushed abacus display whose runner j
	holds surplus[j % h] beads beyond the vacuum.

	This is the one statement of the flush rule; bar_core and
	abacus.core_via_abacus both read the bar-core off it.  Bar removals
	preserve each runner's surplus, and flushing moves every bead as high
	as it goes, so a runner with surplus d > 0 contributes the d lowest
	positive positions on it, and one with d <= 0 contributes none.
	"""
	parts = []
	for k in range(1, h):
		if surplus[k] > 0:
			parts.extend(range(k, k + surplus[k] * h, h))
	parts.sort(reverse=True)
	return tuple(parts)


def bar_core(lam, h):
	"""The bar-core: lam's runner surpluses, counted from its parts, flushed
	by flush_surplus.  A part a puts a bead on runner a and takes one off
	runner -a (see the abacus module)."""
	check_h(h)
	lam = check_partition(lam)
	if not is_h_strict(lam, h):
		raise ValueError("%s is not %d-strict" % (partition_str(lam), h))
	surplus = [0] * h
	for a in lam:
		surplus[a % h] += 1
		surplus[-a % h] -= 1
	require(surplus[0] == 0, "runner 0 out of balance on %s", lam)
	return flush_surplus(surplus, h)


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
	diff = 0
	for a, b in zip(lam, mu):
		diff += a - b
		if diff < 0:
			return False
	return True


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


@cache
def _members_by_core(h, m):
	"""The h-strict partitions of m grouped by bar-core, each group lex
	ascending; built from one enumeration and one bar_core per partition."""
	by_core = {}
	for lam in enumerate_h_strict(m, h):
		by_core.setdefault(bar_core(lam, h), []).append(lam)
	return by_core


def enumerate_cores(h, max_size):
	"""All bar-cores of size at most max_size, by size then lex: the
	groups of each size whose core has that size."""
	out = []
	for m in range(max_size + 1):
		out.extend(sorted(t for t in _members_by_core(h, m) if size(t) == m))
	return out


@dataclass(frozen=True)
class BlockId:
	"""A combinatorial block: ambient h, a bar-core, and a bar-weight."""
	h: int
	core: tuple
	weight: int

	def __post_init__(self):
		check_h(self.h)
		object.__setattr__(self, "core", check_partition(self.core))
		if bar_weight(self.core, self.h) != 0:
			raise ValueError("%s is not a %d-bar-core" % (partition_str(self.core), self.h))
		if self.weight < 0:
			raise ValueError("negative weight")

	def __str__(self):
		return "h=%d core=%s w=%d" % (self.h, partition_str(self.core), self.weight)


def enumerate_block(block):
	"""All h-strict partitions with the block's core and weight, lex
	ascending, as a fresh list.  The blocks of one size are the classes of
	its h-strict partitions under the bar-core, so one grouped pass over
	the size serves every block of that size."""
	m = size(block.core) + block.h * block.weight
	return list(_members_by_core(block.h, m).get(block.core, ()))


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
