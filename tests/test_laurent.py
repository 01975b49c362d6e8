"""Exact Laurent-polynomial arithmetic."""

import pytest
from hypothesis import given, strategies as st

from barfock.laurent import (
	Laurent, ZERO, ONE, q_power, parse, exact_div, symmetric_correction,
	_q_i_exponent,
)

Q = q_power(1)


def lau(d):
	return Laurent(d)


def quantum_integer(k, i, h):
	"""[k]_i = (q_i^k - q_i^-k) / (q_i - q_i^-1), with [0]_i = 0."""
	step = _q_i_exponent(i, h)
	return Laurent({step * (k - 1 - 2 * j): 1 for j in range(k)})


def quantum_factorial(k, i, h):
	out = ONE
	for j in range(1, k + 1):
		out = out * quantum_integer(j, i, h)
	return out


coeffs = st.dictionaries(
	st.integers(min_value=-6, max_value=6),
	st.integers(min_value=-9, max_value=9),
	max_size=5,
).map(Laurent)


class TestRing:
	@given(coeffs, coeffs)
	def test_add_commutes(self, a, b):
		assert a + b == b + a

	@given(coeffs, coeffs, coeffs)
	def test_mul_distributes(self, a, b, c):
		assert a * (b + c) == a * b + a * c

	@given(coeffs, coeffs, coeffs)
	def test_mul_associates(self, a, b, c):
		assert (a * b) * c == a * (b * c)

	@given(coeffs)
	def test_identities(self, a):
		assert a + ZERO == a
		assert a * ONE == a
		assert a - a == ZERO

	def test_zero_coeffs_are_dropped(self):
		assert lau({3: 0, 1: 2}) == lau({1: 2})
		assert lau({0: 1}) - ONE == ZERO
		assert not lau({})


class TestBar:
	@given(coeffs)
	def test_involution(self, a):
		assert a.bar().bar() == a

	@given(coeffs, coeffs)
	def test_multiplicative(self, a, b):
		assert (a * b).bar() == a.bar() * b.bar()

	def test_on_q(self):
		assert Q.bar() == lau({-1: 1})


class TestHelpers:
	def test_q_power(self):
		assert q_power(0) == ONE
		assert q_power(3) == lau({3: 1})
		assert q_power(-2) * q_power(2) == ONE

	@given(coeffs, st.integers(min_value=-6, max_value=6))
	def test_eval_at_one_is_coeff_sum(self, a, e):
		assert a.eval_at_one() == sum(a.coefficient(x) for x in range(-10, 11))
		assert a.shift(e).eval_at_one() == a.eval_at_one()

	def test_divisible_by_q(self):
		assert parse("q + q^3").divisible_by_q()
		assert not parse("1 + q^2").divisible_by_q()
		assert ZERO.divisible_by_q()
		assert not parse("q^-1").divisible_by_q()

	def test_parse_str_roundtrip(self):
		for text in ["0", "1", "q", "q^2", "q + q^3", "q^-2 + 1 + q^2", "2*q^2"]:
			assert str(parse(text)) == text

	@given(coeffs)
	def test_str_reparses(self, a):
		assert parse(str(a)) == a

	def test_exact_div(self):
		assert exact_div(parse("q^2 + q^4"), Q) == parse("q + q^3")
		# monomials are units here, so failure means a genuine remainder
		with pytest.raises(ValueError):
			exact_div(parse("1 + q^2"), parse("1 + q"))


class TestSymmetricCorrection:
	def test_already_symmetric_is_fixed(self):
		f = parse("q^-2 + 1 + q^2")
		assert symmetric_correction(f) == f

	def test_drops_positive_only_tail(self):
		# only the constant and negative-exponent halves matter
		assert symmetric_correction(parse("1 + q^5")) == ONE
		assert symmetric_correction(parse("q^-1 + q^3")) == parse("q^-1 + q")
		assert symmetric_correction(parse("q")) == ZERO

	@given(coeffs)
	def test_result_is_bar_invariant(self, a):
		s = symmetric_correction(a)
		assert s.bar() == s

	@given(coeffs)
	def test_residual_is_q_divisible(self, a):
		assert (a - symmetric_correction(a)).divisible_by_q()


class TestQuantumIntegers:
	def test_small_values(self):
		# residue picks the deformation step: q_0 = q, middle q^2, q_n = q^4
		assert quantum_integer(1, 0, 5) == ONE
		assert quantum_integer(2, 0, 5) == parse("q^-1 + q")
		assert quantum_integer(3, 0, 5) == parse("q^-2 + 1 + q^2")
		assert quantum_integer(2, 1, 5) == parse("q^-2 + q^2")
		assert quantum_integer(2, 2, 5) == parse("q^-4 + q^4")

	def test_factorial(self):
		assert quantum_factorial(0, 0, 5) == ONE
		assert quantum_factorial(3, 0, 5) == \
			quantum_integer(3, 0, 5) * quantum_integer(2, 0, 5)

	@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2))
	def test_eval_at_one(self, k, i):
		assert quantum_integer(k, i, 5).eval_at_one() == k
