"""Exact Laurent-polynomial arithmetic."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

import barfock.partitions as pt
from barfock.laurent import (
	Laurent, ZERO, ONE, COEFF_BOUND, add_product, q_power, parse, exact_div,
	symmetric_correction,
)
from barfock.fock import _q_i_exponent

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
		assert a.eval_at_one() == sum(dict(a.items()).get(x, 0) for x in range(-10, 11))
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


# ---- the packed form against a plain dict exponent -> coefficient ----

def ref_clean(a):
	return {e: v for e, v in a.items() if v}


def ref_add(a, b):
	c = dict(a)
	for e, v in b.items():
		c[e] = c.get(e, 0) + v
	return ref_clean(c)


def ref_mul(a, b):
	c = {}
	for e1, v1 in a.items():
		for e2, v2 in b.items():
			c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
	return ref_clean(c)


def ref_symmetric(a):
	c = {}
	for e, v in a.items():
		if e <= 0:
			c[e] = c[-e] = v
	return ref_clean(c)


def ref_str(a):
	out = ""
	for k, (e, v) in enumerate(sorted(ref_clean(a).items())):
		qpart = "" if e == 0 else "q" if e == 1 else "q^%d" % e
		mag = abs(v)
		body = str(mag) if not qpart else qpart if mag == 1 else "%d*%s" % (mag, qpart)
		out += ("-" if v < 0 else "") if k == 0 else (" - " if v < 0 else " + ")
		out += body
	return out or "0"


def as_map(f):
	return dict(f.items())


# exponents far enough apart that a value spans more than 64 digits, and
# coefficients anywhere up to the bound, its edges included
edge = st.sampled_from([COEFF_BOUND, -COEFF_BOUND, COEFF_BOUND - 1, 1, -1])
maps = st.dictionaries(st.integers(min_value=-90, max_value=90),
	st.one_of(edge, st.integers(min_value=-COEFF_BOUND, max_value=COEFF_BOUND)),
	max_size=7)
half_maps = st.dictionaries(st.integers(min_value=-90, max_value=90),
	st.integers(min_value=-COEFF_BOUND // 2, max_value=COEFF_BOUND // 2), max_size=7)


class TestPackedAgainstDicts:
	@given(maps, maps, maps, st.integers(min_value=-100, max_value=100))
	def test_operations(self, a, b, c, m):
		fa, fb = Laurent(a), Laurent(b)
		assert as_map(fa) == ref_clean(a)
		assert as_map(fa + fb) == ref_add(a, b)
		assert as_map(fa - fb) == ref_add(a, {e: -v for e, v in b.items()})
		assert as_map(fa * fb) == ref_mul(a, b)
		assert as_map(add_product(fa, fb, Laurent(c))) == ref_add(a, ref_mul(b, c))
		assert as_map(fa.shift(m)) == {e + m: v for e, v in ref_clean(a).items()}
		assert as_map(fa.bar()) == {-e: v for e, v in ref_clean(a).items()}
		assert as_map(symmetric_correction(fa)) == ref_symmetric(a)
		assert fa.divisible_by_q() == all(e >= 1 for e in ref_clean(a))
		assert fa.eval_at_one() == sum(a.values())
		assert fa.height() == max(map(abs, a.values()), default=0)
		assert str(fa) == ref_str(a)
		assert parse(str(fa)) == fa

	@given(half_maps, half_maps)
	def test_equal_values_are_equal_and_hash_alike(self, a, b):
		# the packed form is canonical: a sum built two ways is one value
		want = Laurent(ref_add(a, b))
		got = Laurent(a) + Laurent(b)
		assert got == want and hash(got) == hash(want)
		assert (got == Laurent(ref_add(b, a))) and (got - want) == ZERO
		assert bool(got) == bool(ref_add(a, b))

	def test_wide_spans_and_bound_edges(self):
		# 128 coefficients at the bound: a square has coefficients up to
		# 2^39, and 2^10 of those summed stay exact
		f = Laurent({e: COEFF_BOUND for e in range(-64, 64)})
		square = f * f
		coeff = dict(square.items())
		assert coeff.get(-128, 0) == COEFF_BOUND ** 2
		assert coeff.get(-1, 0) == 128 * COEFF_BOUND ** 2
		assert coeff.get(127, 0) == 0
		assert (square * 1024).height() == 1024 * 128 * COEFF_BOUND ** 2
		g = Laurent({-70: -COEFF_BOUND, 70: COEFF_BOUND})
		assert as_map(g * g) == {-140: COEFF_BOUND ** 2, 0: -2 * COEFF_BOUND ** 2,
			140: COEFF_BOUND ** 2}
		assert g.bar() == -g and (g + g.bar()) == ZERO

	def test_constructor_refuses_coefficients_past_the_bound(self):
		assert Laurent({5: -COEFF_BOUND}).height() == COEFF_BOUND
		for bad in ({0: COEFF_BOUND + 1}, {-3: 1, 90: -COEFF_BOUND - 1}):
			with pytest.raises(pt.InvariantError, match="exceeds the bound"):
				Laurent(bad)
		with pytest.raises(pt.InvariantError, match="exceeds the bound"):
			parse("1 + %d*q^2" % (COEFF_BOUND + 1))


def power_chain(base, n):
	"""ONE times base, n times over."""
	out = ONE
	for _ in range(n):
		out = out * base
	return out


def test_long_products_raise_before_a_digit_overflows():
	# C(67, 33) passes 2^63: packed unchecked, (1 + q)^67 would read a
	# wrong middle coefficient; the carried bound refuses it first
	one_plus_q = Laurent({0: 1, 1: 1})
	assert dict(power_chain(one_plus_q, 60).items())[30] == 118264581564861424
	with pytest.raises(pt.InvariantError, match="could overflow"):
		power_chain(one_plus_q, 67)
	# the bound of (1 + q)^63 is 2^62, so one more factor, or a sum of two,
	# raises too, through add_product as through the operators
	big = power_chain(one_plus_q, 63)
	with pytest.raises(pt.InvariantError, match="could overflow"):
		add_product(ZERO, big, one_plus_q)
	with pytest.raises(pt.InvariantError, match="could overflow"):
		big + big


def test_bound_survives_optimised_mode():
	# python -O strips asserts, but not the coefficient bound, nor the
	# carried bound of a long product chain
	script = textwrap.dedent("""
		import barfock.partitions as pt
		from barfock.laurent import Laurent, COEFF_BOUND, ONE
		assert False, "reached only without -O"
		try:
			Laurent({3: -COEFF_BOUND - 1})
		except pt.InvariantError as e:
			print(e)
		out = ONE
		try:
			for _ in range(67):
				out = out * Laurent({0: 1, 1: 1})
		except pt.InvariantError as e:
			print(e)
	""")
	src = os.path.dirname(os.path.dirname(os.path.abspath(pt.__file__)))
	proc = subprocess.run([sys.executable, "-O", "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert proc.stdout == "coefficient -65537 of q^3 exceeds the bound 65536\n" \
		"a coefficient bound of 9223372036854775808 reaches 2^63: the packed digits " \
		"could overflow\n"
