"""Closed formulas for the decomposition matrices of small bar-weight.

Weight 0 is trivial, weight 1 is a single dominance chain, and weight 2
works off three statistics of a partition: its pair of bar positions, the
leg lengths of those bars, and a three-valued colour.  The h-bar addition
rule is stated once, in partitions: both weights read block membership and
the bar values each member records off partitions._block_members, the
block's growth record.  At weight 1 the recorded value is the bracket
index that sorts the chain; at weight 2 it is the pair of bar positions,
and each special partition is checked to be a member of the block.  Four
column shapes exist at weight 2 -- a generic one and three sporadic ones
attached to the named special partitions of the block.  The sporadic
shapes are one table of clauses (`at x`, `chain(lo,hi)`), read by one
loop that also names each entry's clause as its provenance label.  A
weight-2 block is enumerated, and its special partitions and each
member's profile and prefix sums found, once per matrix; nothing here is
kept between calls.
formula_matrix(block, with_labels=False) is the one entry, dispatching
on the weight.
"""

from bisect import bisect_right
from dataclasses import dataclass

from . import abacus
from . import partitions as pt
from .canonical import CanonicalBasisMatrix
from .laurent import ONE, q_power
from .laurent import parse as L


# ---------------------------------------------------------------------------
# weight 1
# ---------------------------------------------------------------------------

def _weight1(block):
	"""The weight-1 matrix and its provenance labels: identity plus a
	subdiagonal of q's and q^2's, depending on whether the row partition
	contains h.

	The chain is the block as partitions._block_members grows it, lex
	ascending, each member with the one value its bar removal records:
	its bracket index, a + h for a part a pushed up by h (h for a part h
	inserted), b for a pair b, h - b inserted.  The paper's facts are
	checked: n + 1 members, indices rising strictly along the chain, a
	dominance chain, and only the top unrestricted.
	"""
	h = block.h
	n = pt.n_of(h)
	members = pt._block_members(h, block.core, 1)
	chain, values = list(members), list(members.values())
	pt.require(len(chain) == n + 1, "weight-1 block of wrong size over %s", block.core)
	pt.require(all(a < b for a, b in zip(values, values[1:])),
		"bar values do not rise strictly along the weight-1 chain over %s", block.core)
	pt.require(pt.dominance_chain(chain) == chain,
		"weight-1 chain not dominance-sorted over %s", block.core)
	for lam in chain[:n]:
		pt.require(pt.is_restricted(lam, h),
			"weight-1 chain member %s is not restricted", lam)
	pt.require(not pt.is_restricted(chain[n], h),
		"top of the weight-1 chain should not be restricted")
	columns, labels = {}, {}
	for mu, lam in zip(chain, chain[1:]):
		step, label = (q_power(1), "step-h") if h in lam else (q_power(2), "step")
		columns[mu] = {mu: ONE, lam: step}
		labels[(mu, mu)], labels[(lam, mu)] = "unit", label
	return CanonicalBasisMatrix(block, chain, columns), labels


# ---------------------------------------------------------------------------
# weight 2: legs, the leg spread, colour
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight2Profile:
	bars: tuple     # the two recorded bar values, (a, b) with a <= b
	legs: tuple     # their leg lengths, sorted ascending
	spread: int     # |leg difference|
	colour: str     # "black" / "white" / "grey"


def _leg(c, common, length):
	"""Leg length of the bar of the given length recorded as c, read off
	the parts common to the partition and its core."""
	if c >= length:
		return pt.count_between(common, c - length, c)
	pt.require(length // 2 < c < length,
		"bar position %d out of range for a %d-bar", c, length)
	return (length - c) + pt.count_between(common, length - c, c)


def _colour(bars, legs, spread, common, h, gam):
	a, b = bars
	if spread >= 2 or (spread == 1 and b > h):
		return "grey"
	if spread == 0 and (b == a + h or (a < b and a + b == 2 * h)):
		# one 2h-bar, removed in two steps
		black = (_leg(b, common, 2 * h) + 2 * gam) % 4 in (0, 3)
	else:
		black = (legs[0] + gam) % 2 == 1
	return "black" if black else "white"


def weight2_profile(lam, block):
	lam = tuple(lam)
	h, core = block.h, block.core
	bars = abacus.bar_positions(lam, block)
	common = pt.intersect(lam, core)
	legs = tuple(sorted(_leg(c, common, h) for c in bars))
	spread = legs[1] - legs[0]
	return Weight2Profile(bars, legs, spread,
		_colour(bars, legs, spread, common, h, pt.gamma(core, h)))


# ---------------------------------------------------------------------------
# the special partitions of a weight-2 block
# ---------------------------------------------------------------------------

def special_partitions(tau, h):
	"""The named members of a weight-2 block, as a dict name -> partition
	in the order xx, shp, nat, flt, ppi, yy; absent ones are left out.

	nat always exists as a partition but is only a canonical-basis label
	when the core is nonempty (otherwise it is not restricted).  tau must
	be an h-bar-core (BlockId raises ValueError otherwise), and each named
	partition must be a member of the block, as partitions._block_members
	lists them.
	"""
	tau = pt.BlockId(h, tau, 2).core
	members = pt._block_members(h, tau, 2)
	n = pt.n_of(h)
	gam = pt.gamma(tau, h)
	free = [a for a in range(1, n + 1) if a not in tau and h - a not in tau]
	pt.require(len(free) == n - gam, "free positions of %s do not number n - gamma", tau)

	named = {}
	if gam <= n - 2:
		a, b = free[0], free[1]
		named["xx"] = pt.union(tau, (h - a, h - b, b, a))
	if gam <= n - 1:
		a = free[0]
		named["shp"] = pt.union(tau, (h, h - a, a))
	named["nat"] = pt.union(tau, (h, h))
	if gam <= n - 1:
		c = next(c for c in range(h + 1, 2 * h)
			if c not in tau and 2 * h - c not in tau)
		named["flt"] = pt.union(tau, (c, 2 * h - c))
	a = next(a for a in sorted(set(tau) | {h}) if a + h not in tau)
	named["ppi"] = pt.subtract(pt.union(tau, (a + h, h)), (a,))
	if gam >= 1:
		ups = sorted(t + h for t in tau if t + h not in tau)
		a = ups[0]
		cand = sorted(t + h for t in list(tau) + [a]
			if t + h not in tau and t + h > a)
		b = cand[0]
		named["yy"] = pt.subtract(pt.union(tau, (b, a)), (b - h, a - h))

	for name, lam in named.items():
		pt.require(lam in members, "%s = %s is not in the weight-2 block over %s", name, lam, tau)
	return named


# ---------------------------------------------------------------------------
# weight 2: the matrix
# ---------------------------------------------------------------------------

def mu_plus(mu, like, sums):
	"""The least member of the block strictly dominating mu with the same
	leg spread and colour; like lists the members with mu's spread and
	colour lex ascending, and sums maps every member to its prefix sums.
	Strict dominance implies lex order, so only the members after mu in
	like can dominate it.  The candidates form a chain, which is checked;
	its least element is mu+."""
	mu = tuple(mu)
	below = sums[mu]
	cands = [lam for lam in like[bisect_right(like, mu):]
		if pt.sums_dominate(sums[lam], below)]
	pt.require(cands, "no like-shaped partition above %s", mu)
	pt.require(all(pt.sums_dominate(sums[b], sums[a]) for a, b in zip(cands, cands[1:])),
		"like-shaped partitions above %s do not form a chain", mu)
	return cands[0]


def _between(lam, lo, hi, sums):
	"""lam strictly dominates lo and is strictly dominated by hi; sums maps
	the three to their prefix sums.  Strict dominance implies lex order,
	which decides most pairs first."""
	return lo < lam < hi and pt.sums_dominate(sums[lam], sums[lo]) \
		and pt.sums_dominate(sums[hi], sums[lam])


def _at(x, value):
	return ("at " + x, (x,), None, L(value))


def _chain(lo, hi, spread, value):
	return ("chain(%s,%s)" % (lo, hi), (lo, hi), spread, L(value))


# The three sporadic columns, keyed by the special partition that labels
# them.  Below the unit, a member takes the value of the first clause that
# holds for it: _at(x, v) holds at the special partition x, and
# _chain(lo, hi, s, v) at every member strictly between lo and hi whose
# leg spread is s.
_SPORADIC = {
	"nat": (
		_chain("nat", "ppi", 1, "q^3 + q"),
		_at("ppi", "q^2"),
		_chain("ppi", "yy", 1, "q^2"),
		_at("yy", "q^4"),
	),
	"shp": (
		_at("nat", "q"),
		_chain("shp", "flt", 2, "q^2"),
		_at("flt", "q^4 + q^2"),
		_chain("flt", "ppi", 1, "q^2"),
		_at("ppi", "q^3"),
	),
	"xx": (
		_chain("xx", "shp", 2, "q"),
		_at("shp", "q"),
		_at("nat", "q^2"),
		_chain("shp", "flt", 2, "q^3 + q"),
		_at("flt", "q^5 + q^3"),
	),
}

# A generic column's two values, and the same divided by q, which a row
# holding h or 2h takes when mu holds neither.
_GENERIC = {"partner": L("q^4"), "between": L("q^2")}
_GENERIC_BY_Q = {label: value.shift(-1) for label, value in _GENERIC.items()}


def _weight2_column(mu, h, members, profiles, sums, shapes, named):
	"""The nonzero entries of mu's column, as {lam: (value, label)};
	members lists the block lex ascending, profiles and sums map every
	member to its profile and its prefix sums, shapes maps each (spread,
	colour) to its members lex ascending, and named the names of the
	block's special partitions to them."""
	out = {mu: (ONE, "unit")}
	name = next((x for x in _SPORADIC if named.get(x) == mu), None)
	if name is not None:
		missing = sorted({x for _, xs, _, _ in _SPORADIC[name] for x in xs} - set(named))
		pt.require(not missing, "%s column without %s", name, " and ".join(missing))
		clauses = [(label, [named[x] for x in xs], s, value)
			for label, xs, s, value in _SPORADIC[name]]
		for lam, p in profiles.items():
			if lam == mu:
				continue
			for label, at, s, value in clauses:
				if (lam == at[0]) if s is None else (s == p.spread and _between(lam, *at, sums)):
					out[lam] = (value, label)
					break
		return out

	p = profiles[mu]
	mup = mu_plus(mu, shapes[p.spread, p.colour], sums)
	mu_has = h in mu or 2 * h in mu
	# mu+ and every member strictly between mu and mu+ lie lex between them
	for lam in members[bisect_right(members, mu):bisect_right(members, mup)]:
		if lam == mup:
			label = "partner"
		elif abs(profiles[lam].spread - p.spread) == 1 and _between(lam, mu, mup, sums):
			label = "between"
		else:
			continue
		if not mu_has and (h in lam or 2 * h in lam):
			out[lam] = (_GENERIC_BY_Q[label], label + "/q")
		else:
			out[lam] = (_GENERIC[label], label)
	return out


def _weight2(block):
	"""The weight-2 matrix and its provenance labels.  Each member's
	profile and prefix sums are found once, and the members are grouped by
	leg spread and colour, lex ascending, for mu_plus."""
	h = block.h
	members = pt.enumerate_block(block)
	m = pt.size(members[0])
	pt.require(all(pt.size(lam) == m for lam in members),
		"%s: members of more than one size", block)
	sums = {lam: pt.prefix_sums(lam) for lam in members}
	profiles = {lam: weight2_profile(lam, block) for lam in members}
	shapes = {}
	for lam, p in profiles.items():
		shapes.setdefault((p.spread, p.colour), []).append(lam)
	named = special_partitions(block.core, h)
	columns, labels = {}, {}
	for mu in members:
		if pt.is_restricted(mu, h):
			columns[mu] = col = {}
			for lam, (val, label) in _weight2_column(
					mu, h, members, profiles, sums, shapes, named).items():
				col[lam], labels[(lam, mu)] = val, label
	return CanonicalBasisMatrix(block, members, columns), labels


def formula_matrix(block, with_labels=False):
	"""Dispatch on weight; formulas exist for weights 0, 1, 2 only."""
	if block.weight == 0:
		core = block.core
		mat = CanonicalBasisMatrix(block, [core], {core: {core: ONE}})
		labels = {(core, core): "unit"}
	elif block.weight == 1:
		mat, labels = _weight1(block)
	elif block.weight == 2:
		mat, labels = _weight2(block)
	else:
		raise ValueError("no closed formula at weight %d" % block.weight)
	return (mat, labels) if with_labels else mat
