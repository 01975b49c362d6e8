"""The acceptance gate.

Nine end-to-end criteria, every comparison exact (integer / Laurent
equality, tolerance zero).  Each test prints a single "criterion N:
PASS/FAIL" line so the gate can be read off the output directly.
"""

import time

import barfock.abacus as ab
import barfock.canonical as cb
import barfock.fock as fock
import barfock.formulas as fm
import barfock.pairs as pr
import barfock.partitions as pt
import barfock.spin as sp
from barfock.laurent import ZERO, ONE, q_power, parse as lparse

from test_bar_invariance import bar_failures


def _gate(n, body):
	try:
		body()
	except BaseException:
		print("criterion %d: FAIL" % n, flush=True)
		raise
	print("criterion %d: PASS" % n, flush=True)


def _vec(h, terms):
	out = fock.FockVector(h, {})
	for lam, c in terms.items():
		out = out + fock.FockVector.basis(h, lam, c)
	return out


# sweep bounds: weight-1 cores up to 15; weight-2 cores up to 10 (8 at h=7)
W1_CORES = {3: 15, 5: 15, 7: 15}
W2_CORES = {3: 10, 5: 10, 7: 8}
# the largest partitions those sweeps can touch, per h
MEMBER_BOUNDS = {h: max(W1_CORES[h] + 2 * h, W2_CORES[h] + 4 * h)
	for h in (3, 5, 7)}


def dense(m):
	"""m's grid of raw values: the Laurent coefficients, ZERO off the support."""
	return list(m.dense_rows(lambda c: c, ZERO))


def _w1_blocks():
	for h, cap in W1_CORES.items():
		for core in pt.enumerate_cores(h, cap):
			yield pt.BlockId(h, core, 1)


def _w2_blocks():
	for h, cap in W2_CORES.items():
		for core in pt.enumerate_cores(h, cap):
			yield pt.BlockId(h, core, 2)


# ---------------------------------------------------------------------------
# 1. the four displayed divided powers of f_0 on (5,4) at h = 5
# ---------------------------------------------------------------------------

def test_criterion_1():
	def body():
		t0 = time.monotonic()
		h = 5
		q = q_power
		start = fock.FockVector.basis(h, (5, 4))
		assert fock.apply_f(start, 0, 1) == _vec(h, {
			(5, 4, 1): ONE, (5, 5): q(1), (6, 4): q(2) + q(4)})
		assert fock.apply_f(start, 0, 2) == _vec(h, {
			(5, 5, 1): ONE, (6, 4, 1): q(1) + q(3), (6, 5): q(2)})
		assert fock.apply_f(start, 0, 3) == _vec(h, {(6, 5, 1): ONE})
		assert fock.apply_f(start, 0, 4) == _vec(h, {})
		assert time.monotonic() - t0 < 1.0
	_gate(1, body)


# ---------------------------------------------------------------------------
# 2. oracle columns G(6,4) and G(5,3,2) at h = 5
# ---------------------------------------------------------------------------

def test_criterion_2():
	def body():
		t0 = time.monotonic()
		q = q_power
		m = cb.canonical_basis(pt.BlockId(5, (), 2))
		assert m.column((6, 4)) == _vec(5, {
			(6, 4): ONE, (7, 3): q(2), (8, 2): q(2), (9, 1): q(4)})
		assert m.column((5, 3, 2)) == _vec(5, {
			(5, 3, 2): ONE, (5, 4, 1): q(2), (6, 4): q(2), (7, 3): q(4)})
		assert time.monotonic() - t0 < 1.0
	_gate(2, body)


# ---------------------------------------------------------------------------
# 3. the weight-1 formula (h=7, tau=(4,2)) is the displayed 4x3 matrix = oracle
# ---------------------------------------------------------------------------

def test_criterion_3():
	def body():
		t0 = time.monotonic()
		q = q_power
		m = fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
		assert m.rows == ((6, 4, 2, 1), (7, 4, 2), (9, 4), (11, 2))
		assert m.cols == ((6, 4, 2, 1), (7, 4, 2), (9, 4))
		expect = [
			[ONE, ZERO, ZERO],
			[q(1), ONE, ZERO],
			[ZERO, q(2), ONE],
			[ZERO, ZERO, q(2)],
		]
		assert dense(m) == expect
		assert m == cb.canonical_basis(pt.BlockId(7, (4, 2), 1))
		assert time.monotonic() - t0 < 1.0
	_gate(3, body)


# ---------------------------------------------------------------------------
# 4. the 9x5 matrix of the block with core (1), weight 2, h = 5
# ---------------------------------------------------------------------------

def test_criterion_4():
	def body():
		t0 = time.monotonic()
		oracle = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		assert oracle.rows == ((5, 3, 2, 1), (5, 5, 1), (6, 3, 2), (6, 4, 1),
			(6, 5), (7, 3, 1), (8, 2, 1), (10, 1), (11,))
		assert oracle.cols == ((5, 3, 2, 1), (5, 5, 1), (6, 3, 2), (6, 4, 1),
			(7, 3, 1))
		expect = [
			["1", "0", "0", "0", "0"],
			["q", "1", "0", "0", "0"],
			["q^2", "0", "1", "0", "0"],
			["q^2+q^4", "q+q^3", "q^2", "1", "0"],
			["q^3", "q^2", "0", "q", "0"],
			["0", "0", "q^4", "q^2", "1"],
			["0", "0", "0", "q^2", "q^4"],
			["0", "q^2", "0", "q^3", "0"],
			["0", "q^4", "0", "0", "0"],
		]
		got = [[c.replace(" ", "") for c in row] for row in oracle.dense_rows(str, "0")]
		assert got == expect
		assert fm.formula_matrix(pt.BlockId(5, (1,), 2)) == oracle
		assert time.monotonic() - t0 < 60.0
	_gate(4, body)


# ---------------------------------------------------------------------------
# 5. weight-1 formula = oracle on every core up to size 15, h in {3,5,7}
# ---------------------------------------------------------------------------

def test_criterion_5():
	def body():
		t0 = time.monotonic()
		count = 0
		for block in _w1_blocks():
			assert fm.formula_matrix(block) == cb.canonical_basis(block), block
			count += 1
		assert count >= 50
		assert time.monotonic() - t0 < 300.0
	_gate(5, body)


# ---------------------------------------------------------------------------
# 6. weight-2 formula = oracle on every core up to size 10 (8 at h=7)
# ---------------------------------------------------------------------------

def test_criterion_6():
	def body():
		t0 = time.monotonic()
		count = 0
		for block in _w2_blocks():
			assert fm.formula_matrix(block) == cb.canonical_basis(block), block
			count += 1
		assert count >= 30
		assert time.monotonic() - t0 < 1800.0
	_gate(6, body)


# ---------------------------------------------------------------------------
# 7. staircase-core blocks: every oracle column is a tabulated family
# ---------------------------------------------------------------------------

def _staircase_columns(h, l):
	"""Every canonical-basis column of the block with core (l,...,1),
	weight 2, as (family label, [(coefficient, partition), ...]); the
	first row of each family is the column's own label mu."""
	n = pt.n_of(h)
	tau = tuple(range(l, 0, -1))
	q1, q2, q3, q4 = q_power(1), q_power(2), q_power(3), q_power(4)
	q3q = lparse("q + q^3")
	q4q2 = lparse("q^2 + q^4")
	q5q3 = lparse("q^3 + q^5")

	def P(plus, minus=()):
		out = pt.union(tau, tuple(p for p in plus if p > 0))
		mins = tuple(m for m in minus if m > 0)
		return pt.subtract(out, mins) if mins else out

	fams = []

	def emit(label, rows):
		fams.append((label, rows))

	if l <= n - 3:
		emit("g1", [
			(ONE, P((h - l - 2, h - l - 3, l + 3, l + 2))),
			(q2, P((h - l - 1, h - l - 3, l + 3, l + 1))),
			(q1, P((h, h - l - 2, l + 2))),
			(q3, P((h, h - l - 1, l + 1)))])
	for a in range(l + 3, n + 1):
		emit("g2", [
			(ONE, P((h - l - 1, h - a, a, l + 1))),
			(q2, P((h - l - 1, h - a + 1, a - 1, l + 1))),
			(q1, P((h, h - a, a))),
			(q3, P((h, h - a + 1, a - 1)))])
	for a in range(l + 2, n + 1):
		for b in range(a + 2, n + 1):
			emit("g3", [
				(ONE, P((h - a, h - b, b, a))),
				(q2, P((h - a, h - b + 1, b - 1, a))),
				(q2, P((h - a + 1, h - b, b, a - 1))),
				(q4, P((h - a + 1, h - b + 1, b - 1, a - 1)))])
	for a in range(l + 3, n):
		emit("g4", [
			(ONE, P((h - a, h - a - 1, a + 1, a))),
			(q2, P((h - a + 1, h - a - 1, a + 1, a - 1))),
			(q2, P((h - a + 2, h - a, a, a - 2))),
			(q4, P((h - a + 2, h - a + 1, a - 1, a - 2)))])
	for a in range(0, l):
		for b in range(l + 2, n + 1):
			emit("g5", [
				(ONE, P((h + a, h - b, b), (a,))),
				(q2, P((h + a, h - b + 1, b - 1), (a,))),
				(q2, P((h + a + 1, h - b, b), (a + 1,))),
				(q4, P((h + a + 1, h - b + 1, b - 1), (a + 1,)))])
	if l <= n - 1:
		for a in range(1, l):
			emit("g6", [
				(ONE, P((h + a, h - l - 1, l + 1), (a,))),
				(q2, P((h + a, h - a))),
				(q2, P((h + a + 1, h - l - 1, l + 1), (a + 1,))),
				(q4, P((h + a + 1, h - a - 1)))])
	for b in range(l + 2, n + 1):
		emit("g7", [
			(ONE, P((h + l, h - b, b), (l,))),
			(q2, P((h + l, h - b + 1, b - 1), (l,))),
			(q2, P((h + b - 1, h - b + 1))),
			(q4, P((h + b, h - b)))])
	if 1 <= l <= n - 1:
		emit("g8", [
			(ONE, P((h + l, h - l - 1, l + 1), (l,))),
			(q2, P((h + l, h - l))),
			(q4, P((h + l + 1, h - l - 1)))])
		emit("g9", [
			(ONE, P((h + l, h - l))),
			(q1, P((h + l, h), (l,))),
			(q2, P((h + l + 1, h - l - 1))),
			(q2, P((2 * h - l - 1, l + 1))),
			(q3, P((2 * h,)))])
	for a in range(1, l):
		emit("g10", [
			(ONE, P((h + a, h - a))),
			(q1, P((h + a, h), (a,))),
			(q2, P((h + a + 1, h - a - 1))),
			(q3, P((h + a + 1, h), (a + 1,)))])
	for a in range(l + 1, n):
		emit("g11", [
			(ONE, P((h + a, h - a))),
			(q2, P((h + a + 1, h - a - 1))),
			(q2, P((2 * h - a - 1, a + 1))),
			(q4, P((2 * h - a, a)))])
	if l <= n - 1:
		emit("g12", [
			(ONE, P((h + n, n + 1))),
			(q4, P((h + n + 1, n)))])
	if l == n:
		emit("g13", [
			(ONE, P((h + n, n + 1))),
			(q1, P((h + n, h), (n,))),
			(q3, P((2 * h,)))])
	for a in range(0, l - 1):
		emit("g14", [
			(ONE, P((h + l, h + a), (l, a))),
			(q2, P((h + l, h + a + 1), (l, a + 1))),
			(q2, P((2 * h + a,), (a,))),
			(q4, P((2 * h + a + 1,), (a + 1,)))])
	if l >= 2:
		emit("g15", [
			(ONE, P((h + l - 1, h + l - 2), (l - 1, l - 2))),
			(q2, P((h + l, h + l - 2), (l, l - 2))),
			(q2, P((2 * h + l - 1,), (l - 1,))),
			(q4, P((2 * h + l,), (l,)))])
	for a in range(0, l - 1):
		for b in range(a + 2, l):
			emit("g16", [
				(ONE, P((h + b, h + a), (b, a))),
				(q2, P((h + b, h + a + 1), (b, a + 1))),
				(q2, P((h + b + 1, h + a), (b + 1, a))),
				(q4, P((h + b + 1, h + a + 1), (b + 1, a + 1)))])
	for a in range(0, l - 2):
		emit("g17", [
			(ONE, P((h + a + 1, h + a), (a + 1, a))),
			(q2, P((h + a + 2, h + a), (a + 2, a))),
			(q2, P((h + a + 3, h + a + 1), (a + 3, a + 1))),
			(q4, P((h + a + 3, h + a + 2), (a + 3, a + 2)))])

	# the special columns: nat, shp, xx
	if l >= 2:
		emit("nat", [
			(ONE, P((h, h))),
			(q3q, P((h + 1, h - 1))),
			(q2, P((h + 1, h), (1,))),
			(q2, P((h + 2, h), (2,))),
			(q4, P((h + 2, h + 1), (2, 1)))])
	if l == 1:
		emit("nat", [
			(ONE, P((h, h))),
			(q3q, P((h + 1, h - 1))),
			(q2, P((h + 1, h), (1,))),
			(q2, P((2 * h,))),
			(q4, P((2 * h + 1,), (1,)))])
	if 1 <= l <= n - 1:
		emit("shp", [
			(ONE, P((h, h - l - 1, l + 1))),
			(q1, P((h, h))),
			(q2, P((h + 1, h - l - 1, l + 1), (1,))),
			(q4q2, P((h + 1, h - 1))),
			(q3, P((h + 1, h), (1,)))])
	if l == 0:
		emit("shp", [
			(ONE, P((h, h - 1, 1))),
			(q1, P((h, h))),
			(q4q2, P((h + 1, h - 1))),
			(q2, P((2 * h - 1, 1))),
			(q3, P((2 * h,)))])
	if 1 <= l <= n - 2:
		emit("xx", [
			(ONE, P((h - l - 1, h - l - 2, l + 2, l + 1))),
			(q1, P((h, h - l - 2, l + 2))),
			(q1, P((h, h - l - 1, l + 1))),
			(q2, P((h, h))),
			(q3q, P((h + 1, h - l - 1, l + 1), (1,))),
			(q5q3, P((h + 1, h - 1)))])
	if l == 0 <= n - 2:
		emit("xx", [
			(ONE, P((h - 1, h - 2, 2, 1))),
			(q1, P((h, h - 2, 2))),
			(q1, P((h, h - 1, 1))),
			(q2, P((h, h))),
			(q5q3, P((h + 1, h - 1)))])
	return fams


def test_criterion_7():
	def body():
		labels_seen = set()
		special_coeffs = set()
		# h = 11, small l, is included so that the two families needing
		# n - l >= 4 (g3, g4) occur at least once
		for h, ls in ((5, None), (7, None), (11, (0, 1))):
			n = pt.n_of(h)
			for l in ls if ls is not None else range(0, n + 1):
				tau = tuple(range(l, 0, -1))
				block = pt.BlockId(h, tau, 2)
				m = cb.canonical_basis(block)
				fams = _staircase_columns(h, l)
				mus = [rows[0][1] for _, rows in fams]
				assert sorted(mus) == sorted(m.cols), (h, l)
				for label, rows in fams:
					labels_seen.add(label)
					mu = rows[0][1]
					expect = {lam: c for c, lam in rows}
					assert len(expect) == len(rows), (h, l, label)
					for lam in m.rows:
						assert m.entry(lam, mu) == expect.get(lam, ZERO), \
							(h, l, label, lam, mu)
					if label in ("nat", "shp", "xx"):
						special_coeffs.update(str(c).replace(" ", "")
							for c, _ in rows)
		# every family of the table occurs somewhere in the sweep,
		# and the special columns show their characteristic entries
		assert labels_seen >= {"g%d" % k for k in range(1, 18)}
		assert labels_seen >= {"nat", "shp", "xx"}
		assert {"q+q^3", "q^2+q^4", "q^3+q^5"} <= special_coeffs
	_gate(7, body)


# ---------------------------------------------------------------------------
# 8. the property suites, exhaustive at the sweep bounds
# ---------------------------------------------------------------------------

def _all_members(h):
	for m in range(0, MEMBER_BOUNDS[h] + 1):
		for lam in pt.enumerate_h_strict(m, h):
			yield lam


def _check_cores_and_content():
	# order-independent bar-cores, abacus agreement, and the equivalence
	# "same bar-core <=> same h-content" at each size
	for h in (3, 5, 7):
		memo = {}
		def core_of(lam):
			stack = [lam]
			while stack:
				x = stack.pop()
				if x in memo:
					continue
				kids = [mu for mu, _ in pt.remove_h_bar_all(x, h)]
				pend = [k for k in kids if k not in memo]
				if pend:
					stack.append(x)
					stack.extend(pend)
					continue
				if not kids:
					memo[x] = x
				else:
					cores = {memo[k] for k in kids}
					assert len(cores) == 1, (x, cores)
					memo[x] = cores.pop()
			return memo[lam]
		by_core = {}
		by_content = {}
		for lam in _all_members(h):
			core = core_of(lam)
			assert core == pt.bar_core(lam, h)
			assert core == ab.core_via_abacus(ab.from_partition(lam, h))
			key = (pt.size(lam), core)
			by_core.setdefault(key, set()).add(lam)
			ckey = (pt.size(lam), pt.h_content(lam, h))
			by_content.setdefault(ckey, set()).add(lam)
		assert sorted(by_core.values(), key=sorted) == \
			sorted(by_content.values(), key=sorted)


def _check_psi():
	for h in (3, 5, 7):
		n = pt.n_of(h)
		for lam in _all_members(h):
			core = pt.bar_core(lam, h)
			for i in range(n + 1):
				mu = cb.psi(lam, i, h)
				assert cb.psi(mu, i, h) == lam, (lam, i)
				if pt.is_restricted(lam, h):
					assert pt.is_restricted(mu, h), (lam, i)
				assert pt.bar_core(mu, h) == cb.psi(core, i, h), (lam, i)


def _check_cb_axioms():
	for block in list(_w1_blocks()) + list(_w2_blocks()):
		m = cb.canonical_basis(block)
		content = pt.h_content(m.rows[0], block.h) if m.rows else None
		grid = dense(m)
		for j, mu in enumerate(m.cols):
			for lam, row in zip(m.rows, grid):
				d = row[j]
				if lam == mu:
					assert d == ONE
				elif d:
					assert d.divisible_by_q(), (block, lam, mu)
					assert pt.strictly_dominates(lam, mu), (block, lam, mu)
				if d:
					assert pt.h_content(lam, block.h) == content


def _check_weight2_statistics():
	for block in _w2_blocks():
		members = pt.enumerate_block(block)
		dd = {lam: fm.weight2_profile(lam, block).spread for lam in members}
		for lam in members:
			for mu in members:
				if not pt.dominates(lam, mu) and not pt.dominates(mu, lam):
					assert abs(dd[lam] - dd[mu]) >= 2, (block, lam, mu)
		for lam in members:
			lo, hi = ab.bar_positions(lam, block)
			two_h_bar = (hi == lo + block.h) or \
				(lo < hi and lo + hi == 2 * block.h)
			if dd[lam] == 0 and two_h_bar:
				assert lo >= block.h, (block, lam)


def _all_pairs():
	for h, cap in W2_CORES.items():
		for core in pt.enumerate_cores(h, cap):
			for d in pr.detect_pairs(core, h):
				yield d


def _check_unexceptional_transport():
	for d in _all_pairs():
		for w in (1, 2):
			block = pt.BlockId(d.h, d.source, w)
			for lam in pt.enumerate_block(block):
				if not pr.is_unexceptional(lam, d, "source"):
					continue
				got = fock.apply_f(fock.FockVector.basis(d.h, lam), d.i, d.k)
				want = fock.FockVector.basis(d.h, cb.psi(lam, d.i, d.h))
				assert got == want, (d, lam)


def _check_pair_tables():
	count = 0
	for d in _all_pairs():
		n = pt.n_of(d.h)
		if (d.k == 1 and 1 <= d.i < n) or (d.i == 0 and d.k == 3):
			rep = pr.verify_pair(d, 2)
			assert rep.ok, (d, rep.to_json_obj())
			assert any(name == "column-patterns" and status == "pass"
				for name, status, _ in rep.checks), d
			count += 1
	assert count >= 10


def _check_bar_invariance():
	failures = []
	for block in list(_w1_blocks()) + list(_w2_blocks()):
		failures += bar_failures(block)[0]
	assert failures == []


def test_criterion_8():
	def body():
		_check_cores_and_content()
		_check_psi()
		_check_cb_axioms()
		_check_weight2_statistics()
		_check_unexceptional_transport()
		_check_pair_tables()
		_check_bar_invariance()
	_gate(8, body)


# ---------------------------------------------------------------------------
# 9. spin predictor: exact case-table arithmetic, predictions exposed
# ---------------------------------------------------------------------------

def test_criterion_9():
	def body():
		for h in (3, 5, 7):
			for lam in _all_members(h):
				base = sp.n_h(lam, h)
				e = sp.parity(lam) == "even"
				he = sp.h_parity(lam, h) == "h-even"
				want = {(True, True): base, (True, False): base + 1,
					(False, True): base - 1, (False, False): base}[(e, he)]
				assert sp.x_h(lam, h) == want, (lam, h)
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		preds = sp.predict_matrix(m)
		assert len(preds) == len(m.rows) * len(m.cols)
		for p in preds:
			d = m.entry(p.lam, p.mu)
			assert p.d_at_one == d.eval_at_one()
			if p.d_at_one == 0:
				assert (p.mantissa, p.half_power) == (0, 0)
			else:
				assert p.mantissa == p.d_at_one
				assert p.half_power == sp.x_h(p.lam, 5)
			assert p.half_power_odd == (p.half_power % 2 == 1)
			assert set(p.to_json_obj()) >= {"mantissa", "half_power",
				"half_power_odd"}
	_gate(9, body)
