"""The symmetric h-runner abacus.

Positions are all integers; runner(p) is the representative of p mod h in
{-n..n}.  A partition's display has black beads at its parts and at every
negative integer that is not the negative of a part; position 0 holds the
white bead.  A part mh of multiplicity t contributes t beads at mh and t
missing beads at -mh, so occupancy is stored as a *delta* against the
vacuum (all negatives singly occupied): delta(p) = -delta(-p) everywhere.

Removing an h-bar only ever moves beads up their runners, so the core's
display is the fully flushed one; per-runner bead surpluses are invariant
and determine the core outright.  The flush rule is stated once, in
partitions.flush_surplus: core_via_abacus applies it to a display's
surpluses, and partitions.bar_core to beads counted straight from the parts.
"""

from . import partitions as pt


def runner(p, h):
	n = pt.n_of(h)
	return ((p + n) % h) - n


class AbacusDisplay:
	"""Finite symmetric difference from the vacuum."""

	def __init__(self, h, delta):
		self.h = pt.check_h(h)
		self.delta = {p: v for p, v in delta.items() if v}
		for p, v in self.delta.items():
			if p == 0:
				raise ValueError("position 0 is the white bead")
			if self.delta.get(-p, 0) != -v:
				raise ValueError("display not symmetric at position %d" % p)
			if abs(v) > 1 and p % h != 0:
				raise ValueError("multiplicity only allowed at multiples of h")

	def occupancy(self, p):
		"""Bead count at position p (vacuum has one bead at every p < 0)."""
		base = 1 if p < 0 else 0
		return base + self.delta.get(p, 0)

	def __eq__(self, other):
		return isinstance(other, AbacusDisplay) and \
			(self.h, self.delta) == (other.h, other.delta)

	def runner_surplus(self):
		"""Net bead count per runner relative to the vacuum, as a list
		whose entry j % h belongs to runner j."""
		d = [0] * self.h
		for p, v in self.delta.items():
			d[p % self.h] += v
		return d

	def grid(self):
		"""The `--show-abacus` picture: rows of h symbols, 'b' bead, 'n' space,
		'x' origin; a part mh repeated t times draws t (stacked beads) at mh
		and '!' at -mh, whose count 1 - t is negative ('!' also for 10 or
		more beads).  One vacuum row above and one empty row below."""
		h, n = self.h, pt.n_of(self.h)
		span = [p for p in self.delta] + [h, -h]
		kmin = min((p + n) // h for p in span) - 1
		kmax = max((p + n) // h for p in span) + 1
		lines = []
		for k in range(kmin, kmax + 1):
			row = []
			for c in range(h):
				p = k * h + c - n
				if p == 0:
					row.append("x")
					continue
				occ = self.occupancy(p)
				if occ == 0:
					row.append("n")
				elif occ == 1:
					row.append("b")
				elif 2 <= occ <= 9:
					row.append(str(occ))
				else:
					row.append("!")  # a negative count, or more than 9 beads
			lines.append("".join(row))
		return "\n".join(lines)


def from_partition(lam, h):
	lam = pt.check_partition(lam)
	if not pt.is_h_strict(lam, h):
		raise ValueError("%s is not %d-strict" % (pt.partition_str(lam), h))
	delta = {}
	for a in lam:
		delta[a] = delta.get(a, 0) + 1
		delta[-a] = delta.get(-a, 0) - 1
	return AbacusDisplay(h, delta)


def core_via_abacus(a):
	"""Flush every runner and read off the resulting partition.

	The flush rule itself is partitions.flush_surplus, shared with
	bar_core; this side checks that the display's surpluses balance and
	passes each as that many beads, a deficit as none.
	"""
	d = a.runner_surplus()
	if d[0] != 0:
		raise ValueError("runner 0 out of balance; not a partition display")
	if any(d[k] != -d[-k] for k in range(1, a.h)):
		raise ValueError("asymmetric surplus; not a partition display")
	return pt.flush_surplus([max(x, 0) for x in d], a.h)


def bar_positions(lam, block):
	"""The two integers recorded when unmaking a bar-weight-2 partition.

	Every removal order must record the same unordered pair; that is
	checked here rather than assumed.  Returned as (a, b) with a <= b.
	"""
	h = block.h
	if block.weight != 2 or pt.bar_core(lam, h) != block.core:
		raise ValueError("bar positions only defined on this block's weight-2 members")
	pairs = set()
	for mu, rec1 in pt.remove_h_bar_all(lam, h):
		for nu, rec2 in pt.remove_h_bar_all(mu, h):
			if nu == block.core:
				pairs.add((min(rec1, rec2), max(rec1, rec2)))
	pt.require(len(pairs) == 1,
		"bar positions depend on removal order for %s: %r", lam, pairs)
	return next(iter(pairs))


def pair_tag(i, j):
	return "<%d,%d>" % tuple(sorted((abs(i), abs(j))))


def single_tag(s):
	return "<%d>" % s


def abacus_notation(lam, block):
	"""Classify a weight-2 partition by where its two bar positions sit,
	as the text of its tag: <i,j> or a signed <i>."""
	h = block.h
	a, b = bar_positions(lam, block)
	if a == b:
		pt.require(a == h, "equal bar positions can only both be h")
		return pair_tag(0, 0)
	i, j = runner(a, h), runner(b, h)
	if i != j and i != -j:
		return pair_tag(i, j)
	if b == a + h:
		pt.require(i == j, "bar positions %d, %d an h apart on runners %d, %d", a, b, i, j)
		plain = a not in lam
	else:
		pt.require(a < b and a + b == 2 * h and j == -i and i < 0,
			"bar positions %d, %d on runners %d, %d fit no single tag", a, b, i, j)
		plain = (h - a) in lam
	# a negated runner-0 tag would need a third bar; it cannot happen
	pt.require(plain or i != 0, "unreachable negated <0> tag")
	return single_tag(i if plain else -i)
