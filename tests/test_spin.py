"""Spin predictions: parity statistics and exact 2^(x/2) packing."""

import barfock.partitions as pt
import barfock.canonical as cb
import barfock.formulas as fm
import barfock.spin as sp
from barfock.laurent import ZERO, ONE, q_power


def test_parity_fixtures():
	assert sp.parity((5, 4)) == "odd"
	assert sp.parity(()) == "even"
	assert sp.parity((2, 2)) == "even"
	assert sp.parity((6, 4, 1)) == "even"


def test_h_parity_fixtures():
	assert sp.h_parity((), 5) == "h-even"
	# (5,4): 5-content is {0:3, 1:4, 2:2} -> 6 nonzero-residue nodes
	assert sp.h_parity((5, 4), 5) == "h-even"
	assert sp.h_parity((5, 3), 5) == "h-odd"


def test_n_h():
	assert sp.n_h((10, 5, 1), 5) == 2
	assert sp.n_h((), 7) == 0
	assert sp.n_h((14, 7, 7, 3), 7) == 3


def test_x_h_case_table():
	# x is n_h shifted by the two parities, never anything else
	for h in (3, 5, 7):
		for size in range(0, 13):
			for lam in pt.enumerate_h_strict(size, h):
				base = sp.n_h(lam, h)
				got = sp.x_h(lam, h)
				e = sp.parity(lam) == "even"
				he = sp.h_parity(lam, h) == "h-even"
				want = {(True, True): base, (True, False): base + 1,
					(False, True): base - 1, (False, False): base}[(e, he)]
				assert got == want


def test_zero_entry_is_zero_prediction():
	m = fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
	assert m.entry((7, 4, 2), (9, 4)) == ZERO
	p = {(p.lam, p.mu): p for p in sp.predict_matrix(m)}[((7, 4, 2), (9, 4))]
	# x_h of the row is 2, but a zero entry predicts 0 * 2^0
	assert p.d_at_one == 0 and p.x == sp.x_h((7, 4, 2), 7) == 2
	assert (p.mantissa, p.half_power) == (0, 0)


def test_packing_and_odd_flag():
	one = ONE
	q2 = q_power(2)
	p = sp.SpinPrediction((10, 5, 1), (10, 5, 1), one.eval_at_one(),
		sp.x_h((10, 5, 1), 5))
	# even parity (one even part: 10), 16 nodes of nonzero residue -> h-even
	assert p.d_at_one == 1 and p.mantissa == 1
	assert p.half_power == sp.x_h((10, 5, 1), 5)
	p2 = sp.SpinPrediction((6, 5), (5, 5, 1), (one + q2).eval_at_one(),
		sp.x_h((6, 5), 5))
	assert p2.d_at_one == 2 and p2.mantissa == 2
	assert p2.half_power_odd == (sp.x_h((6, 5), 5) % 2 == 1)


def test_predict_matrix_row_major():
	m = fm.formula_matrix(pt.BlockId(7, (4, 2), 1))
	preds = sp.predict_matrix(m)
	assert len(preds) == len(m.rows) * len(m.cols)
	k = 0
	for lam in m.rows:
		for mu in m.cols:
			assert (preds[k].lam, preds[k].mu) == (lam, mu)
			k += 1
	# diagonal entries predict mantissa 1 at that row's exponent
	for p in preds:
		if p.lam == p.mu:
			assert p.d_at_one == 1 and p.mantissa == 1
			assert p.half_power == sp.x_h(p.lam, 7)


def test_predictions_on_canonical_block():
	block = pt.BlockId(5, (1,), 2)
	m = cb.canonical_basis(block)
	preds = sp.predict_matrix(m)
	by_key = {(p.lam, p.mu): p for p in preds}
	p = by_key[((6, 4, 1), (5, 3, 2, 1))]
	assert p.d_at_one == 2  # q^2 + q^4 at q=1
	assert p.mantissa == 2 and p.half_power == sp.x_h((6, 4, 1), 5)
	obj = p.to_json_obj()
	assert obj["lam"] == "(6,4,1)" and obj["half_power_odd"] in (True, False)


def test_json_shape():
	p = sp.SpinPrediction((3,), (3,), ONE.eval_at_one(), sp.x_h((3,), 3))
	obj = p.to_json_obj()
	assert set(obj) == {"lam", "mu", "d_at_one", "x_h", "mantissa",
		"half_power", "half_power_odd"}
