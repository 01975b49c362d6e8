"""Pairs of blocks linked by f_i^(k), and their verification.

A core with k >= 1 addable i-nodes (it then has no removable ones) sits
below its partner core obtained by adding them all.  For each such pair,
either every block member is unexceptional and the two decomposition
matrices agree under the signature involution, or -- at weight 2, for the
two interesting shapes, 2-1 (k = 1, 0 < i < n) and 2-3 (k = 3, i = 0) --
exactly three exceptional partitions appear on each side, with completely
explicit operator identities and a short list of admissible column
patterns tying the two matrices together.  Each shape's statements are one
record in SHAPES, and _pair_shape is the one place that picks it; the
abacus tags of the triples depend on the pair's kind alone.  verify_pair
takes each block's members from the rows of the block's oracle matrix and
computes the involution image of each source member once, and every check
that transports an entry or a partition reads it from there; it sorts the
members into exceptional and unexceptional once, for the triples too.
"""

from dataclasses import dataclass

from . import abacus
from . import fock
from . import partitions as pt
from .canonical import canonical_basis, psi
from .laurent import ONE, parse as L


@dataclass(frozen=True)
class PairDescriptor:
	h: int
	source: tuple
	target: tuple
	i: int
	k: int
	kind: str  # "A" / "B" / "C" / "zero-residue" / "generic"


def detect_pairs(sigma, h):
	"""One descriptor per residue at which the core has addable nodes."""
	sigma = tuple(sigma)
	if not pt.is_core(sigma, h):
		raise ValueError("%s is not a %d-bar-core" % (pt.partition_str(sigma), h))
	n = pt.n_of(h)
	out = []
	for i in range(n + 1):
		add = pt.addable_i_nodes(sigma, i, h)
		if not add:
			continue
		pt.require(not pt.removable_i_nodes(sigma, i, h),
			"a core cannot have addable and removable %d-nodes at once", i)
		tau = psi(sigma, i, h)
		pt.require(pt.is_core(tau, h), "partner of a core should be a core")
		k = len(add)
		if i == 0:
			kind = "zero-residue"
		elif k == 1 and i < n:
			c = add[0][1]
			if c == i + 1:
				kind = "B"
			elif c % h == i + 1:
				kind = "A"  # column ah + i + 1 with a >= 1
			else:
				pt.require((c + i) % h == 0,
					"addable %d-node of %s in column %d fits no pair kind", i, sigma, c)
				kind = "C"  # column ah - i with a >= 1
		else:
			kind = "generic"
		out.append(PairDescriptor(h=h, source=sigma, target=tau, i=i, k=k, kind=kind))
	return out


def is_unexceptional(lam, d, side):
	if side == "source":
		return not pt.removable_i_nodes(lam, d.i, d.h)
	if side == "target":
		return not pt.addable_i_nodes(lam, d.i, d.h)
	raise ValueError("side must be 'source' or 'target'")


# ---------------------------------------------------------------------------
# the supported shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairShape:
	"""What the paper states for one shape of pair, on the exceptional
	triples alpha < beta < gamma and alpha^ < beta^ < gamma^."""
	f_images: tuple   # f_i^(k) of alpha, beta, gamma, on (alpha^, beta^, gamma^)
	e_images: tuple   # the coefficient of delta in e_i of alpha, beta, gamma
	bottom: tuple     # G(alpha) on (alpha, beta, gamma), which is also f_i delta
	table: tuple      # admissible (source, target) column patterns on the triples
	forbidden: tuple  # source column patterns that never occur


def _parse(spec):
	"""Laurent polynomials from nested tuples of their texts."""
	return L(spec) if isinstance(spec, str) else tuple(_parse(x) for x in spec)


SHAPES = {
	"21": PairShape(
		f_images=_parse((("q^-2", "1", "0"), ("1", "0", "1"), ("0", "1", "q^2"))),
		e_images=_parse(("q^-4", "q^-2", "1")),
		bottom=_parse(("1", "q^2", "q^4")),
		table=_parse((
			(("0", "0", "0"), ("0", "0", "0")),
			(("0", "0", "1"), ("0", "1", "q^2")),
			(("0", "1", "q^2"), ("0", "0", "1")),
			(("0", "q^2", "0"), ("q^2", "0", "q^2")),
			(("1", "q^2", "q^4"), ("1", "q^2", "q^4")),
			(("q^2", "0", "q^2"), ("0", "q^2", "0")),
			(("q^2", "q^4", "0"), ("q^4", "0", "0")),
			(("q^4", "0", "0"), ("q^2", "q^4", "0")),
			(("0", "q^3 + q", "0"), ("q^3 + q", "0", "q^3 + q")),
			(("q^2", "q^4 + q^2", "0"), ("q^4 + q^2", "0", "q^2")),
			(("q^3 + q", "q^5 + q^3", "0"), ("q^5 + q^3", "0", "0")),
			(("q^3 + q", "0", "q^3 + q"), ("0", "q^3 + q", "0")),
		)),
		forbidden=_parse((("0", "q", "0"), ("q", "0", "q"),
			("q^2", "q^3", "0"), ("q^3 + q", "q^2", "q^2"))),
	),
	"23": PairShape(
		f_images=_parse((("q^-3", "q^-1", "0"), ("1 + q^-2", "1", "q^2 + 1"),
			("1", "q^2 + 1", "q^4 + q^2"))),
		e_images=_parse(("q^-4", "q^-1 + q^-3", "q + q^-1")),
		bottom=_parse(("1", "q", "q^3")),
		table=_parse((
			(("0", "0", "0"), ("0", "0", "0")),
			(("0", "0", "1"), ("0", "1", "q^2")),
			(("0", "1", "q^2"), ("0", "0", "1")),
			(("0", "q^2", "0"), ("q^2", "0", "q^2")),
			(("1", "q", "q^3"), ("1", "q^2", "q^4")),
			(("q^2", "0", "q"), ("0", "q", "0")),
			(("q^2", "q^3", "0"), ("q^3", "0", "0")),
			(("q^4", "0", "0"), ("q", "q^3", "0")),
			(("0", "q^3 + q", "0"), ("q^3 + q", "0", "q^3 + q")),
			(("q^3 + q", "q^2", "q^2"), ("q^2", "q^2", "0")),
		)),
		forbidden=_parse((("q^2", "q^4 + q^2", "0"), ("q^3 + q", "0", "q^3 + q"),
			("q^3 + q", "q^5 + q^3", "0"))),
	),
}


_TARGET_BOTTOM = _parse(("1", "q^2", "q^4"))  # G(alpha^) on the target triple


def _pair_shape(d, w):
	"""The record of d's shape at weight w, or None if it has none."""
	if w == 2 and d.k == 1 and 1 <= d.i < pt.n_of(d.h):
		return SHAPES["21"]
	if w == 2 and d.k == 3 and d.i == 0:
		return SHAPES["23"]
	return None


# ---------------------------------------------------------------------------
# exceptional triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalTriples:
	alpha: tuple
	beta: tuple
	gamma: tuple
	alpha_hat: tuple
	beta_hat: tuple
	gamma_hat: tuple

	def source(self):
		return (self.alpha, self.beta, self.gamma)

	def target(self):
		return (self.alpha_hat, self.beta_hat, self.gamma_hat)


def _expected_tags(d):
	"""The abacus tags of (alpha, beta, gamma) and (alpha^, beta^, gamma^)."""
	i = d.i
	pair, single = abacus.pair_tag(i, i + 1), abacus.single_tag
	return {
		"A": ((single(-i), pair, single(i + 1)), (single(i), pair, single(-i - 1))),
		"B": ((pair, single(-i), single(i + 1)), (single(i), single(-i - 1), pair)),
		"C": ((single(i + 1), pair, single(-i)), (single(-i - 1), pair, single(i))),
		"zero-residue": ((single(1), pair, single(0)), (single(0), pair, single(-1))),
	}[d.kind]


def _dominance_sorted_triple(lams):
	pt.require(len(lams) == 3, "expected three exceptional partitions, got %d", len(lams))
	chain = pt.dominance_chain(lams)
	pt.require(chain is not None, "exceptional partitions do not form a chain")
	return tuple(chain)


def exceptional_triples(d, w=2):
	if _pair_shape(d, w) is None:
		raise ValueError("exceptional triples exist only for weight-2 pairs "
			"with k=1 and 0<i<n, or k=3 and i=0")
	sblock = pt.BlockId(d.h, d.source, w)
	tblock = pt.BlockId(d.h, d.target, w)
	exc_s = [lam for lam in pt.enumerate_block(sblock)
		if not is_unexceptional(lam, d, "source")]
	exc_t = [lam for lam in pt.enumerate_block(tblock)
		if not is_unexceptional(lam, d, "target")]
	return _exceptional_triples(d, sblock, tblock, exc_s, exc_t)


def _exceptional_triples(d, sblock, tblock, exc_s, exc_t):
	"""The triples, from the exceptional members of both blocks."""
	h = d.h
	pt.require(len(exc_s) == 3 and len(exc_t) == 3,
		"expected three exceptional partitions on each side, got %d/%d",
		len(exc_s), len(exc_t))
	a, b, g = _dominance_sorted_triple(exc_s)
	ah, bh, gh = _dominance_sorted_triple(exc_t)
	src_tags, tgt_tags = _expected_tags(d)
	got_src = tuple(abacus.abacus_notation(x, sblock) for x in (a, b, g))
	got_tgt = tuple(abacus.abacus_notation(x, tblock) for x in (ah, bh, gh))
	pt.require(got_src == src_tags,
		"source tags %s do not match the %s pattern %s", got_src, d.kind, src_tags)
	pt.require(got_tgt == tgt_tags,
		"target tags %s do not match the %s pattern %s", got_tgt, d.kind, tgt_tags)
	pt.require(psi(a, d.i, h) == ah and psi(b, d.i, h) == gh and psi(g, d.i, h) == bh,
		"signature involution does not permute the triples as expected")
	return ExceptionalTriples(a, b, g, ah, bh, gh)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class PairReport:
	"""Outcome of verify_pair: named checks, each passed/failed/skipped."""

	def __init__(self, descriptor, weight):
		self.descriptor = descriptor
		self.weight = weight
		self.checks = []

	def add(self, name, ok, detail=""):
		self.checks.append((name, "pass" if ok else "fail", "" if ok else detail))

	def skip(self, name, detail):
		self.checks.append((name, "skipped", detail))

	@property
	def ok(self):
		return all(status != "fail" for _, status, _ in self.checks)

	def to_json_obj(self):
		d = self.descriptor
		return {
			"h": d.h,
			"source": pt.partition_str(d.source),
			"target": pt.partition_str(d.target),
			"i": d.i,
			"k": d.k,
			"kind": d.kind,
			"weight": self.weight,
			"ok": self.ok,
			"checks": [
				{"name": n, "status": s, "detail": dd}
				for n, s, dd in self.checks
			],
		}


def _identity_checks(report, d, tr, shape):
	"""The explicit operator identities on the exceptional triples."""
	h, i = d.h, d.i
	basis = lambda lam: fock.FockVector.wrap(h, {lam: ONE})
	detail = ""
	for lam, row in zip(tr.source(), shape.f_images):
		got = fock.apply_f(basis(lam), i, d.k)
		if got.terms != {mu: c for mu, c in zip(tr.target(), row) if c}:
			detail = "f-image of %s is %s" % (pt.partition_str(lam), got)
			break
	report.add("exceptional-f-identities", not detail, detail)

	# the e-side: removing the unique removable i-node of any of alpha,
	# beta, gamma lands on one core partition delta, and f_i resurrects
	# the whole triple from it
	downs = [fock.apply_e(basis(lam), i, 1) for lam in tr.source()]
	deltas = {mu for down in downs for mu in down.support()}
	detail = ""
	if len(deltas) != 1:
		detail = "no single source below the triple: [%s]" % ", ".join(
			map(pt.partition_str, sorted(deltas)))
	else:
		delta, = deltas
		for lam, got, c in zip(tr.source(), downs, shape.e_images):
			if got.terms != {delta: c}:
				detail = "e-image of %s is %s" % (pt.partition_str(lam), got)
				break
		else:
			got = fock.apply_f(basis(delta), i, 1)
			if got.terms != dict(zip(tr.source(), shape.bottom)):
				detail = "f-image of the partition below the triple is %s" % got
	report.add("exceptional-e-identities", not detail, detail)


def _transport_failure(ms, mt, images, rows, mu):
	"""The first of rows whose entry in column mu of ms differs from the
	entry of its psi image in column psi(mu) of mt, or None; each of the
	two columns is read once."""
	left = ms.cells(rows, mu)
	right = mt.cells(map(images.__getitem__, rows), images[mu])
	for lam, a, b in zip(rows, left, right):
		if a != b:
			return lam
	return None


def _column_pattern_failure(ms, mt, tr, images, unex, shape, h):
	"""What breaks the shape's pattern table first, or '' if every column fits."""
	for mu in ms.cols:
		left = tuple(ms.entry(x, mu) for x in tr.source())
		if left in shape.forbidden:
			return "forbidden pattern at column %s" % pt.partition_str(mu)
		rights = [r for l, r in shape.table if l == left]
		if not rights:
			return "unlisted pattern at column %s: %s" % (
				pt.partition_str(mu), [str(v) for v in left])
		pm = images[mu]
		if not pt.is_restricted(pm, h):
			return "involution image of column %s is not restricted" % \
				pt.partition_str(mu)
		if tuple(mt.entry(x, pm) for x in tr.target()) != rights[0]:
			return "partner column %s does not match the pattern table" % \
				pt.partition_str(pm)
		lam = _transport_failure(ms, mt, images, unex, mu)
		if lam is not None:
			return "unexceptional transport fails at (%s, %s)" % (
				pt.partition_str(lam), pt.partition_str(mu))
	return ""


def verify_pair(d, w=2):
	"""Check everything the pair is supposed to satisfy at weight w."""
	report = PairReport(d, w)
	h, i = d.h, d.i
	if d.i == 0 and d.k == 1:
		report.skip("all", "declined: residue-0 pairs with k=1 relate blocks "
			"whose canonical bases genuinely differ")
		return report

	sblock = pt.BlockId(h, d.source, w)
	tblock = pt.BlockId(h, d.target, w)
	ms = canonical_basis(sblock)
	mt = canonical_basis(tblock)
	# a matrix's rows are its block's members, lex ascending; the
	# involution must carry one block onto the other
	images = {lam: psi(lam, i, h) for lam in ms.rows}
	report.add("block-bijection", tuple(sorted(images.values())) == mt.rows,
		"involution images do not exhaust the partner block")

	exc_s = [lam for lam in ms.rows if not is_unexceptional(lam, d, "source")]
	unex = [lam for lam in ms.rows if lam not in exc_s]
	exc_t = [lam for lam in mt.rows if not is_unexceptional(lam, d, "target")]

	# unexceptional members transport by a plain f_i^(k)
	bad = ""
	for lam in unex:
		if len(pt.addable_i_nodes(lam, i, h)) != d.k:
			bad = "%s has the wrong number of addable nodes" % pt.partition_str(lam)
			break
		got = fock.apply_f(fock.FockVector.wrap(h, {lam: ONE}), i, d.k)
		if got.terms != {images[lam]: ONE}:
			bad = "f-image of unexceptional %s is %s" % (pt.partition_str(lam), got)
			break
	report.add("unexceptional-f-transport", not bad, bad)

	if not exc_s:
		report.add("equivalent-no-target-exceptions", not exc_t,
			"source side clean but target side is not")
		detail = ""
		for mu in ms.cols:
			lam = _transport_failure(ms, mt, images, ms.rows, mu)
			if lam is not None:
				detail = "matrices differ at (%s, %s)" % (
					pt.partition_str(lam), pt.partition_str(mu))
				break
		report.add("matrix-transport", not detail, detail)
		return report

	shape = _pair_shape(d, w)
	if shape is None:
		report.skip("exceptional-structure",
			"%d exceptional partitions; no supported verification shape "
			"at weight %d, residue %d, k=%d" % (len(exc_s), w, i, d.k))
		return report

	tr = _exceptional_triples(d, sblock, tblock, exc_s, exc_t)
	report.add("exceptional-triples", True, "")

	_identity_checks(report, d, tr, shape)

	# canonical-basis columns at the bottom exceptional partitions
	col_a = ms.column(tr.alpha)
	ok = col_a.terms == dict(zip(tr.source(), shape.bottom))
	report.add("exceptional-column-source", ok,
		"" if ok else "G at the source triple bottom is %s" % col_a)
	col_ah = mt.column(tr.alpha_hat)
	ok = col_ah.terms == dict(zip(tr.target(), _TARGET_BOTTOM))
	report.add("exceptional-column-target", ok,
		"" if ok else "G at the target triple bottom is %s" % col_ah)

	detail = _column_pattern_failure(ms, mt, tr, images, unex, shape, h)
	report.add("column-patterns", not detail, detail)
	return report
