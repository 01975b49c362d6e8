"""Closed formulas for the decomposition matrices of small bar-weight.

Weight 0 is trivial, weight 1 is a single dominance chain, and weight 2
works off three statistics of a partition: its pair of bar positions, the
leg lengths of those bars, and a three-valued colour.  Four column shapes
exist at weight 2 -- a generic one and three sporadic ones attached to
the named special partitions of the block.
"""

from dataclasses import dataclass

from . import abacus
from . import partitions as pt
from .canonical import CanonicalBasisMatrix
from .laurent import ONE, Laurent, exact_div, q_power
from .laurent import parse as L


# ---------------------------------------------------------------------------
# weights 0 and 1
# ---------------------------------------------------------------------------

def weight0_matrix(block):
	pt.require(block.weight == 0, "weight-0 formula on a weight-%d block", block.weight)
	return CanonicalBasisMatrix(block, [block.core], [block.core], [[ONE]])


def weight1_chain(tau, h):
	"""The weight-1 block over tau as a dominance-increasing chain.

	Three kinds of members, each tagged by a bracket index that sorts them:
	push a part up by h (index a+h), insert a part h (index h), or insert a
	complementary pair b, h-b (index b).  There are always n+1 members and
	only the top one fails to be restricted.
	"""
	n = pt.n_of(h)
	entries = [(h, pt.union(tau, (h,)))]
	for a in tau:
		if a + h not in tau:
			entries.append((a + h, pt.union(pt.subtract(tau, (a,)), (a + h,))))
	for b in range(n + 1, h):
		if b not in tau and h - b not in tau:
			entries.append((b, pt.union(tau, (b, h - b))))
	pt.require(len(entries) == n + 1, "weight-1 block of wrong size over %r", tau)
	pt.require(len(set(idx for idx, _ in entries)) == n + 1,
		"weight-1 chain over %r repeats a bar position", tau)
	entries.sort()
	chain = [lam for _, lam in entries]
	for r in range(n):
		pt.require(pt.compare_dominance(chain[r], chain[r + 1]) == pt.LESS,
			"weight-1 chain not dominance-sorted over %r", tau)
		pt.require(pt.is_restricted(chain[r], h),
			"weight-1 chain member %r is not restricted", chain[r])
	pt.require(not pt.is_restricted(chain[n], h),
		"top of the weight-1 chain should not be restricted")
	return chain


def weight1_matrix(tau, h):
	"""Decomposition matrix of a weight-1 block: identity plus a subdiagonal
	of q's and q^2's, depending on whether the row partition contains h."""
	block = pt.BlockId(h, tuple(tau), 1)
	chain = weight1_chain(block.core, h)
	pt.require(chain == sorted(chain), "weight-1 chain should already be lex-sorted")
	pt.require(chain == pt.enumerate_block(block),
		"weight-1 chain misses block members over %r", tau)
	cols = chain[:-1]
	entries = []
	for r, lam in enumerate(chain):
		row = []
		for s in range(len(cols)):
			if r == s:
				row.append(ONE)
			elif r == s + 1:
				row.append(q_power(1) if h in lam else q_power(2))
			else:
				row.append(Laurent(0))
		entries.append(row)
	return CanonicalBasisMatrix(block, chain, cols, entries)


# ---------------------------------------------------------------------------
# weight 2: legs, the leg spread, colour
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight2Profile:
	lam: tuple
	bars: tuple     # the two recorded bar values, (a, b) with a <= b
	legs: tuple     # their leg lengths, sorted ascending
	spread: int     # |leg difference|
	colour: str     # "black" / "white" / "grey"


def _leg(c, lam, tau, h):
	"""Leg length of the bar recorded as c, read off lam and its core."""
	common = pt.intersect(lam, tau)
	if c >= h:
		return pt.count_between(common, c - h, c)
	pt.require(pt.n_of(h) < c < h, "bar position %d out of range for h=%d", c, h)
	return (h - c) + pt.count_between(common, h - c, c)


def _colour(lam, tau, h, bars, legs):
	a, b = bars
	gam = pt.gamma(tau, h)
	spread = abs(legs[0] - legs[1])
	if spread >= 2:
		return "grey"
	if spread == 1:
		if b > h:
			return "grey"
		low = min(legs)
		return "black" if (low + gam) % 2 == 1 else "white"
	# spread 0: either one 2h-bar in two steps, or two h-bars
	if b == a + h or (a < b and a + b == 2 * h):
		if b >= 2 * h:
			ell = pt.count_between(pt.intersect(lam, tau), b - 2 * h, b)
		else:
			ell = (2 * h - b) + pt.count_between(pt.intersect(lam, tau), 2 * h - b, b)
		return "black" if (ell + 2 * gam) % 4 in (0, 3) else "white"
	ell = legs[0]
	return "black" if (ell + gam) % 2 == 1 else "white"


_PROFILES = {}


def weight2_profile(lam, block):
	key = (block, tuple(lam))
	if key not in _PROFILES:
		lam = tuple(lam)
		bars = abacus.bar_positions(lam, block)
		legs = tuple(sorted(
			_leg(c, lam, block.core, block.h) for c in bars
		))
		_PROFILES[key] = Weight2Profile(
			lam=lam,
			bars=bars,
			legs=legs,
			spread=abs(legs[0] - legs[1]),
			colour=_colour(lam, block.core, block.h, bars, legs),
		)
	return _PROFILES[key]


def leg_lengths(lam, block):
	return weight2_profile(lam, block).legs


def ddd(lam, block):
	return weight2_profile(lam, block).spread


def colour(lam, block):
	return weight2_profile(lam, block).colour


# ---------------------------------------------------------------------------
# the special partitions of a weight-2 block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialSet:
	"""The named members of a weight-2 block; absent ones are None.

	nat always exists as a partition but is only a canonical-basis label
	when the core is nonempty (otherwise it is not restricted).
	"""
	tau: tuple
	h: int
	xx: tuple = None
	shp: tuple = None
	nat: tuple = None
	flt: tuple = None
	ppi: tuple = None
	yy: tuple = None

	def named(self):
		out = {}
		for name in ("xx", "shp", "nat", "flt", "ppi", "yy"):
			val = getattr(self, name)
			if val is not None:
				out[name] = val
		return out


def special_partitions(tau, h):
	tau = tuple(tau)
	n = pt.n_of(h)
	gam = pt.gamma(tau, h)
	free = [a for a in range(1, n + 1) if a not in tau and h - a not in tau]
	pt.require(len(free) == n - gam, "free positions of %r do not number n - gamma", tau)

	xx = shp = flt = yy = None
	nat = pt.union(tau, (h, h))
	if gam <= n - 1:
		a = free[0]
		shp = pt.union(tau, (h, h - a, a))
	if gam <= n - 2:
		a, b = free[0], free[1]
		xx = pt.union(tau, (h - a, h - b, b, a))
	if gam <= n - 1:
		c = next(c for c in range(h + 1, 2 * h)
			if c not in tau and 2 * h - c not in tau)
		flt = pt.union(tau, (c, 2 * h - c))
	a = next(a for a in sorted(set(tau) | {h}) if a + h not in tau)
	ppi = pt.subtract(pt.union(tau, (a + h, h)), (a,))
	if gam >= 1:
		ups = sorted(t + h for t in tau if t + h not in tau)
		a = ups[0]
		cand = sorted(t + h for t in list(tau) + [a]
			if t + h not in tau and t + h > a)
		b = cand[0]
		yy = pt.subtract(pt.union(tau, (b, a)), (b - h, a - h))

	out = SpecialSet(tau=tau, h=h, xx=xx, shp=shp, nat=nat, flt=flt, ppi=ppi, yy=yy)
	for name, lam in out.named().items():
		pt.require(pt.is_h_strict(lam, h), "%s = %r is not h-strict", name, lam)
		pt.require(pt.bar_core(lam, h) == tau, "%s = %r has the wrong bar core", name, lam)
		pt.require(pt.size(lam) == pt.size(tau) + 2 * h, "%s = %r has the wrong size", name, lam)
	return out


# ---------------------------------------------------------------------------
# weight 2: the matrix
# ---------------------------------------------------------------------------

def mu_plus(mu, block):
	"""The least partition strictly dominating mu with the same leg spread
	and colour.  The candidates form a chain; both facts are checked."""
	mu = tuple(mu)
	prof = weight2_profile(mu, block)
	cands = []
	for lam in pt.enumerate_block(block):
		if not pt.strictly_dominates(lam, mu):
			continue
		p = weight2_profile(lam, block)
		if p.spread == prof.spread and p.colour == prof.colour:
			cands.append(lam)
	pt.require(cands, "no like-shaped partition above %r", mu)
	for x in cands:
		for y in cands:
			pt.require(pt.compare_dominance(x, y) != pt.INCOMPARABLE,
				"like-shaped partitions above %r do not form a chain", mu)
	least = [c for c in cands if all(pt.dominates(d, c) for d in cands)]
	pt.require(len(least) == 1, "no least like-shaped partition above %r", mu)
	return least[0]


def _between(lam, lo, hi):
	return pt.strictly_dominates(lam, lo) and pt.strictly_dominates(hi, lam)


def _weight2_column(mu, block):
	"""Column of mu as (value, label) per block member."""
	h = block.h
	mu = tuple(mu)
	sp = special_partitions(block.core, h)
	members = pt.enumerate_block(block)
	out = {}

	if mu == sp.nat:
		pt.require(sp.yy is not None and sp.ppi is not None, "natural column without yy and ppi")
		for lam in members:
			d = weight2_profile(lam, block).spread
			if lam == mu:
				out[lam] = (ONE, "unit")
			elif _between(lam, sp.nat, sp.ppi) and d == 1:
				out[lam] = (L("q^3 + q"), "chain(nat,ppi)")
			elif lam == sp.ppi:
				out[lam] = (L("q^2"), "at ppi")
			elif _between(lam, sp.ppi, sp.yy) and d == 1:
				out[lam] = (L("q^2"), "chain(ppi,yy)")
			elif lam == sp.yy:
				out[lam] = (L("q^4"), "at yy")
			else:
				out[lam] = (Laurent(0), "")
		return out

	if mu == sp.shp:
		pt.require(sp.flt is not None and sp.ppi is not None, "sharp column without flat and ppi")
		for lam in members:
			d = weight2_profile(lam, block).spread
			if lam == mu:
				out[lam] = (ONE, "unit")
			elif lam == sp.nat:
				out[lam] = (L("q"), "at nat")
			elif _between(lam, sp.shp, sp.flt) and d == 2:
				out[lam] = (L("q^2"), "chain(shp,flt)")
			elif lam == sp.flt:
				out[lam] = (L("q^4 + q^2"), "at flt")
			elif _between(lam, sp.flt, sp.ppi) and d == 1:
				out[lam] = (L("q^2"), "chain(flt,ppi)")
			elif lam == sp.ppi:
				out[lam] = (L("q^3"), "at ppi")
			else:
				out[lam] = (Laurent(0), "")
		return out

	if mu == sp.xx:
		pt.require(sp.shp is not None and sp.flt is not None, "xx column without sharp and flat")
		for lam in members:
			d = weight2_profile(lam, block).spread
			if lam == mu:
				out[lam] = (ONE, "unit")
			elif _between(lam, sp.xx, sp.shp) and d == 2:
				out[lam] = (L("q"), "chain(xx,shp)")
			elif lam == sp.shp:
				out[lam] = (L("q"), "at shp")
			elif lam == sp.nat:
				out[lam] = (L("q^2"), "at nat")
			elif _between(lam, sp.shp, sp.flt) and d == 2:
				out[lam] = (L("q^3 + q"), "chain(shp,flt)")
			elif lam == sp.flt:
				out[lam] = (L("q^5 + q^3"), "at flt")
			else:
				out[lam] = (Laurent(0), "")
		return out

	# generic column
	mup = mu_plus(mu, block)
	dmu = weight2_profile(mu, block).spread
	mu_has = bool({h, 2 * h} & set(mu))
	for lam in members:
		if lam == mu:
			val, label = ONE, "unit"
		elif lam == mup:
			val, label = L("q^4"), "partner"
		elif _between(lam, mu, mup) and \
				abs(weight2_profile(lam, block).spread - dmu) == 1:
			val, label = L("q^2"), "between"
		else:
			val, label = Laurent(0), ""
		if val and not mu_has and ({h, 2 * h} & set(lam)):
			val = exact_div(val, L("q"))
			label += "/q"
		out[lam] = (val, label)
	return out


def weight2_matrix(block, with_labels=False):
	pt.require(block.weight == 2, "weight-2 formula on a weight-%d block", block.weight)
	members = pt.enumerate_block(block)
	restricted = [p for p in members if pt.is_restricted(p, block.h)]
	labels = {}
	cols = []
	for mu in restricted:
		col = _weight2_column(mu, block)
		cols.append(col)
		for lam, (_v, label) in col.items():
			if label:
				labels[(lam, mu)] = label
	entries = [
		[cols[j][lam][0] for j in range(len(restricted))]
		for lam in members
	]
	mat = CanonicalBasisMatrix(block, members, restricted, entries)
	return (mat, labels) if with_labels else mat


def formula_matrix(block, with_labels=False):
	"""Dispatch on weight; formulas exist for weights 0, 1, 2 only."""
	if block.weight == 0:
		mat = weight0_matrix(block)
		return (mat, {(block.core, block.core): "unit"}) if with_labels else mat
	if block.weight == 1:
		mat = weight1_matrix(block.core, block.h)
		if not with_labels:
			return mat
		labels = {}
		for r, lam in enumerate(mat.rows):
			for s, mu in enumerate(mat.cols):
				if r == s:
					labels[(lam, mu)] = "unit"
				elif r == s + 1:
					labels[(lam, mu)] = "step-h" if block.h in lam else "step"
		return mat, labels
	if block.weight == 2:
		return weight2_matrix(block, with_labels=with_labels)
	raise ValueError("no closed formula at weight %d" % block.weight)
