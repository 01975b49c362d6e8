"""The benchmark's workloads: a fixed set of inputs each, one timed op per
input, and the output of every op in a canonical form for its digest.

A workload is a list of phases.  Each phase is a callable, timed as part of
the pass, that returns the phase's ops as (op id, thunk) pairs in canonical
order; the seed only shuffles the ops within a phase.  A thunk runs the
library and returns (report, ok): `report()` builds the op's output for the
digest and is called outside the timed region, `ok` is the op's own check.
"""

import contextlib
import io

import barfock.canonical as canonical
import barfock.cli as cli
import barfock.formulas as formulas
import barfock.pairs as pairs
import barfock.partitions as partitions
import barfock.spin as spin

# the acceptance gate's sweep bounds: weight-1 cores up to 15, weight-2
# cores up to 10 (8 at h=7), and the largest partitions those sweeps touch
W1_CORES = {3: 15, 5: 15, 7: 15}
W2_CORES = {3: 10, 5: 10, 7: 8}
MEMBER_BOUNDS = {h: max(W1_CORES[h] + 2 * h, W2_CORES[h] + 4 * h) for h in (3, 5, 7)}
MEMBER_COUNTS = {3: 812, 5: 2495, 7: 5564}

# empty-core blocks (h, weight): 221x65, 252x108 and 185x22 matrices
ORACLE_BLOCKS = ((5, 6), (7, 5), (3, 8))


def _text(lam):
	return "(" + ",".join(map(str, lam)) + ")"


def h_strict_partitions(m, h):
	"""All h-strict partitions of m (only multiples of h repeat), written
	independently of the library's enumerator so the inputs do not depend
	on the code under test."""
	out = []

	def grow(left, cap, parts):
		if left == 0:
			out.append(tuple(parts))
			return
		for a in range(min(left, cap), 0, -1):
			if parts and a == parts[-1] and a % h:
				continue
			parts.append(a)
			grow(left - a, a, parts)
			parts.pop()

	grow(m, m, [])
	return out


class OracleLarge:
	"""`barfock cb --format json` in-process on three large empty-core blocks."""

	name = "oracle_large"
	# ops_per_s counts matrix entries here; the digests pin the shapes
	units = 221 * 65 + 252 * 108 + 185 * 22

	def phases(self):
		return [lambda: [("cb h=%d core=() w=%d" % (h, w), _cb_op(h, w))
			for h, w in ORACLE_BLOCKS]]


def _cb_op(h, w):
	argv = ["cb", "--h", str(h), "--core", "()", "--weight", str(w),
		"--max-weight", str(w), "--format", "json"]

	def run():
		buf = io.StringIO()
		with contextlib.redirect_stdout(buf):
			code = cli.main(argv)
		out = buf.getvalue().encode()
		return (lambda: out), code == 0

	return run


class ConsumerSweep:
	"""The `diff` / `verify-pair` / `predict-spin` traffic at the acceptance
	bounds: every weight-1 and weight-2 block of the gate, then every pair
	detected on the weight-2 cores, checked at weights 1 and 2."""

	name = "consumer_sweep"
	units = None  # ops_per_s counts block and pair checks

	def __init__(self):
		self.sweeps = [(h, cap, 1) for h, cap in W1_CORES.items()] + \
			[(h, cap, 2) for h, cap in W2_CORES.items()]
		self.w2_cores = []

	def phases(self):
		return [self._block_ops, self._pair_ops]

	def _block_ops(self):
		ops = []
		for h, cap, w in self.sweeps:
			cores = partitions.enumerate_cores(h, cap)
			if w == 2:
				self.w2_cores.extend((h, core) for core in cores)
			for core in cores:
				block = partitions.BlockId(h, core, w)
				ops.append(("block h=%d core=%s w=%d" % (h, _text(core), w),
					_block_op(block)))
		return ops

	def _pair_ops(self):
		return [("pair h=%d source=%s i=%d" % (h, _text(core), d.i), _pair_op(d))
			for h, core in self.w2_cores
			for d in pairs.detect_pairs(core, h)]


def _block_op(block):
	def run():
		mat = canonical.canonical_basis(block)
		agree = mat == formulas.formula_matrix(block)
		preds = spin.predict_matrix(mat)
		return (lambda: {
			"matrix": mat.to_json_obj(),
			"agree": agree,
			"spin": [p.to_json_obj() for p in preds],
		}), agree

	return run


def _pair_op(d):
	def run():
		reports = [pairs.verify_pair(d, w) for w in (1, 2)]
		return (lambda: [r.to_json_obj() for r in reports]), all(r.ok for r in reports)

	return run


class MemberSweep:
	"""psi_i on every h-strict partition up to the acceptance bounds and
	every residue i, with the gate's involution, restrictedness and
	bar-core checks."""

	name = "member_sweep"
	units = None  # ops_per_s counts partitions

	def __init__(self):
		self.members = []
		for h in (3, 5, 7):
			found = [lam for m in range(MEMBER_BOUNDS[h] + 1)
				for lam in h_strict_partitions(m, h)]
			if len(found) != MEMBER_COUNTS[h]:
				raise RuntimeError("h=%d: generated %d partitions, expected %d"
					% (h, len(found), MEMBER_COUNTS[h]))
			self.members.extend((h, lam) for lam in found)

	def phases(self):
		return [lambda: [("h=%d %s" % (h, _text(lam)), _member_op(lam, h))
			for h, lam in self.members]]


def _member_op(lam, h):
	def run():
		core = partitions.bar_core(lam, h)
		restricted = partitions.is_restricted(lam, h)
		images, ok = [], True
		for i in range((h - 1) // 2 + 1):
			mu = canonical.psi(lam, i, h)
			back = canonical.psi(mu, i, h) == lam
			kept = partitions.is_restricted(mu, h) or not restricted
			moved = partitions.bar_core(mu, h) == canonical.psi(core, i, h)
			ok = ok and back and kept and moved
			images.append(mu)
		return (lambda: {"core": list(core), "psi": [list(mu) for mu in images]}), ok

	return run


WORKLOADS = {w.name: w for w in (OracleLarge, ConsumerSweep, MemberSweep)}
