"""Exact Laurent polynomials in the variable q, with integer coefficients.

Everything downstream (Fock-space coefficients, canonical-basis entries,
closed formulas) is arithmetic in Z[q, q^-1], so this module keeps it exact,
with no floats anywhere.

Representation (Kronecker substitution).  A nonzero f = sum_e v_e q^e is
held as the pair (lo, p), where lo is its lowest exponent and

    p = sum_e v_e * 2^(B*(e - lo)),    B = 64,

so p packs the coefficients as balanced B-bit digits, each in
[-2^(B-1), 2^(B-1)), lowest exponent first, with the lowest digit nonzero.
Zero is (0, 0).  A product is (lo1 + lo2, p1 * p2); a sum is one shift and
one add, then the zero low digits are stripped; divisible_by_q is lo >= 1;
equality and hashing compare (lo, p).

Which functions touch the digits.  add_product(a, b, c) = a + b*c is the
one piece of packed arithmetic: +, - and * are add_product with ZERO, ONE
or -1 in one place, and fock and canonical call it directly to accumulate
products without building each product first.  It makes one object per
result, and when c is +-q^e (every Fock coefficient but the i = 0 ones)
the product is b's digits with a new lo.  __neg__, shift and tight copy
p unchanged.  The constructor packs (_pack); bar, eval_at_one, height,
items, symmetric_correction, exact_div and str decode (_unpack).  No other
module names _make, _pack, _unpack or the digit width.

Exactness.  Python ints are exact and evaluation at q = 2^B is a ring
homomorphism, so p is always the exact value at 2^B of q^-lo f, whatever
the coefficients are.  A balanced base-2^B expansion is unique, so zero
tests, equality, hashing and decoding are right exactly when every true
coefficient fits the digit range; one that does not would silently corrupt
its neighbours.  Two bounds keep that from happening, and both raise
InvariantError, which survives `python -O`:
- every value carries `bound`, an upper bound on the absolute value of its
  coefficients.  The constructor sets it to the largest coefficient given;
  add_product carries it, h1 + h2 for a sum and h1 * h2 * min(len1, len2)
  for a product, where len is the number of digits, at least the number
  of terms that meet in one coefficient.  add_product raises once the
  result's bound would reach 2^(B-1), before any digit can leave the
  range: multiplying by 1 + q again and again raises at (1 + q)^64, where
  (1 + q)^67 is the first power whose middle coefficient does not fit;
- COEFF_BOUND = 2^16 bounds every coefficient given to the public
  constructor (and so symmetric_correction, parse and exact_div) and every
  coefficient the oracle keeps: canonical checks it when its store first
  interns a coefficient, and keeps tight(), whose bound is the exact
  height, so carried bounds start afresh in every column.  The largest
  coefficient any block here has shown is 352.

>>> f = parse("q + q^-1")
>>> print(f * f)
q^-2 + 2 + q^2
"""

import re
import struct

from .partitions import InvariantError

__all__ = [
    "Laurent", "ZERO", "ONE", "COEFF_BOUND",
    "add_product", "q_power", "parse", "exact_div", "symmetric_correction",
]

COEFF_BOUND = 1 << 16  # largest |coefficient| the constructor and the store accept

_B = 64  # digit width in bits; _unpack reads each digit as one 8-byte word
_HALF = 1 << (_B - 1)


class Laurent:
	"""A Laurent polynomial in q over the integers, packed as (lo, p), with
	`bound`, an upper bound on the absolute value of its coefficients.

	Immutable: no method mutates self, and the packed form is canonical,
	so equality and hashing are structural; the bound takes no part.
	"""

	__slots__ = ("lo", "p", "bound")

	def __init__(self, coeffs=None):
		if coeffs is None:
			coeffs = {}
		elif isinstance(coeffs, int):
			coeffs = {0: coeffs}
		elif not isinstance(coeffs, dict):
			raise TypeError("coeffs must be an int or a dict exponent -> int")
		bound = 0
		for e, v in coeffs.items():
			if not isinstance(e, int) or not isinstance(v, int):
				raise TypeError("coeffs must map int exponents to int values")
			if abs(v) > COEFF_BOUND:
				raise InvariantError("coefficient %d of q^%d exceeds the bound %d"
					% (v, e, COEFF_BOUND))
			bound = max(bound, abs(v))
		lo, p = _pack(coeffs)
		_set_lo(self, lo)
		_set_p(self, p)
		_set_bound(self, bound)

	def __setattr__(self, name, value):
		raise AttributeError("Laurent values are immutable")

	# ---- ring structure: all of it is add_product ----

	def __add__(self, other):
		if other.__class__ is not Laurent:
			other = _coerce(other)
		return add_product(self, other, ONE)

	__radd__ = __add__

	def __neg__(self):
		return _make(self.lo, -self.p, self.bound)

	def __sub__(self, other):
		if other.__class__ is not Laurent:
			other = _coerce(other)
		return add_product(self, other, _MINUS_ONE)

	def __rsub__(self, other):
		return add_product(_coerce(other), self, _MINUS_ONE)

	def __mul__(self, other):
		if other.__class__ is not Laurent:
			other = _coerce(other)
		return add_product(ZERO, self, other)

	__rmul__ = __mul__

	def __eq__(self, other):
		if isinstance(other, int):
			# one digit is all a constant can be, and it fits the range
			return self.lo == 0 and self.p == other and -_HALF <= other < _HALF
		if not isinstance(other, Laurent):
			return NotImplemented
		return self.lo == other.lo and self.p == other.p

	def __hash__(self):
		return hash((self.lo, self.p))

	def __bool__(self):
		return self.p != 0

	# ---- the operations the canonical-basis machinery needs ----

	def shift(self, m):
		"""Multiply by q^m."""
		return _make(self.lo + m, self.p, self.bound) if self.p else ZERO

	def bar(self):
		"""The involution q -> q^-1."""
		lo, p = _pack({-e: v for e, v in self.items()})
		return _make(lo, p, self.bound)

	def eval_at_one(self):
		return sum(_unpack(self.p))

	def divisible_by_q(self):
		"""True iff every exponent is >= 1 (so 0 qualifies)."""
		return self.lo >= 1 or not self.p

	def height(self):
		"""The largest absolute value of a coefficient (0 for zero)."""
		return max(map(abs, _unpack(self.p)), default=0)

	def tight(self):
		"""This value, with its carried bound lowered to its height."""
		height = self.height()
		return self if height == self.bound else _make(self.lo, self.p, height)

	def items(self):
		"""(exponent, coefficient) pairs with nonzero coefficient, ascending."""
		lo = self.lo
		return [(lo + k, v) for k, v in enumerate(_unpack(self.p)) if v]

	# ---- canonical text form ----

	def __str__(self):
		if not self.p:
			return "0"
		out = []
		for e, v in self.items():
			if e == 0:
				body = str(abs(v))
			else:
				qpart = "q" if e == 1 else "q^%d" % e
				body = qpart if abs(v) == 1 else "%d*%s" % (abs(v), qpart)
			if not out:
				out.append(("-" if v < 0 else "") + body)
			else:
				out.append(("- " if v < 0 else "+ ") + body)
		return " ".join(out)

	def __repr__(self):
		return "Laurent<%s>" % self


_new = object.__new__
_set_lo = Laurent.__dict__["lo"].__set__
_set_p = Laurent.__dict__["p"].__set__
_set_bound = Laurent.__dict__["bound"].__set__


def _make(lo, p, bound):
	"""The Laurent (lo, p) with the given bound on its coefficients; (lo, p)
	must be normalised: (0, 0), or p with a nonzero lowest digit.  The
	arithmetic builds only such pairs, so it skips the constructor."""
	out = _new(Laurent)
	_set_lo(out, lo)
	_set_p(out, p)
	_set_bound(out, bound)
	return out


def add_product(a, b, c):
	"""a + b*c, as one new object (a itself when b*c is zero, and b when a
	is zero and c is 1).

	When c is +-q^e the product is b's digits with exponent lo_b + e, and
	b's bound is the product's.  Otherwise the product's bound is
	bound_b * bound_c * min(len_b, len_c), len counting digits, and a sum
	adds the bounds.  Raises InvariantError if the result's bound would
	reach the digit range (see the module docstring).
	"""
	p, cp = b.p, c.p
	if cp == 1:
		bound = b.bound
	elif cp == -1:
		p = -p
		bound = b.bound
	else:
		bound = b.bound * c.bound * (min(p.bit_length(), cp.bit_length()) // _B + 1)
		p *= cp
	if not p:
		return a
	lo = b.lo + c.lo
	ap = a.p
	if ap:
		bound += a.bound
		d = lo - a.lo
		if d > 0:  # a's lowest digit stays the lowest
			p = ap + (p << _B * d)
			lo = a.lo
		elif d < 0:
			p += ap << -_B * d
		else:
			p += ap
			if not p:
				return ZERO
			zeros = ((p & -p).bit_length() - 1) // _B  # low digits that cancelled
			if zeros:
				lo += zeros
				p >>= _B * zeros
	elif cp == 1 and not c.lo:
		return b
	if bound >= _HALF:
		raise InvariantError("a coefficient bound of %d reaches 2^%d: the packed "
			"digits could overflow" % (bound, _B - 1))
	return _make(lo, p, bound)


def _pack(coeffs):
	"""The normalised (lo, p) of a map exponent -> coefficient whose
	coefficients fit the digit range; (0, 0) for zero."""
	if not coeffs:
		return 0, 0
	lo = min(coeffs)
	p = 0
	for e, v in coeffs.items():
		p += v << _B * (e - lo)
	if not p:
		return 0, 0
	zeros = ((p & -p).bit_length() - 1) // _B  # zero coefficients at the bottom
	return lo + zeros, p >> _B * zeros


def _unpack(p):
	"""The balanced digits of p, lowest first, without zero top digits.

	Adding 2^(B-1) at every digit position turns balanced digits into
	unsigned ones without a carry; those are read as little-endian 8-byte
	words, and the offset is taken off again.
	"""
	if -_HALF <= p < _HALF:
		return [p] if p else []
	n = p.bit_length() // _B + 1  # a top digit at index t needs |p| >= 2^(B*t - 1)
	offset = int.from_bytes(_HALF.to_bytes(8, "little") * n, "little")
	words = struct.unpack("<%dQ" % n, (p + offset).to_bytes(8 * n, "little"))
	digits = [w - _HALF for w in words]
	while not digits[-1]:
		digits.pop()
	return digits


def _coerce(x):
	if isinstance(x, Laurent):
		return x
	if isinstance(x, int):
		return Laurent(x)
	raise TypeError("cannot mix Laurent with %r" % type(x).__name__)


ZERO = _make(0, 0, 0)
ONE = _make(0, 1, 1)
_MINUS_ONE = _make(0, -1, 1)


def q_power(m):
	return _make(m, 1, 1)


_TERM = re.compile(r"^(?:(-?\d+)\*)?(?:(-)?q(?:\^(-?\d+))?)?$")


def parse(text):
	"""Read the canonical text form back into a Laurent value.

	Accepts the output of str(): terms joined by ' + ' / ' - ', each term
	one of 'c', 'q', 'q^e', 'c*q^e'.

	>>> parse("q^-2 + 1 - 2*q^3") == Laurent({-2: 1, 0: 1, 3: -2})
	True
	"""
	text = text.strip()
	if text == "0":
		return ZERO
	c = {}
	sign = 1
	for tok in re.split(r"\s+", text):
		if tok == "+":
			sign = 1
			continue
		if tok == "-":
			sign = -1
			continue
		if re.fullmatch(r"-?\d+", tok):
			v, e = int(tok), 0
		else:
			m = _TERM.match(tok)
			if not m or "q" not in tok:
				raise ValueError("bad Laurent term %r in %r" % (tok, text))
			coeff, neg, exp = m.groups()
			v = int(coeff) if coeff is not None else 1
			if neg:
				v = -v
			e = int(exp) if exp is not None else 1
		c[e] = c.get(e, 0) + sign * v
	return Laurent(c)


def exact_div(f, g):
	"""Divide f by g in Z[q, q^-1]; raises ValueError unless g divides f."""
	f, g = _coerce(f), _coerce(g)
	if not g:
		raise ValueError("division by zero")
	if not f:
		return ZERO
	# normalise both to honest polynomials with nonzero constant term
	num = {e - f.lo: v for e, v in f.items()}
	den = {e - g.lo: v for e, v in g.items()}
	ddeg = max(den)
	dlead = den[ddeg]
	quot = {}
	while num:
		ndeg = max(num)
		if ndeg < ddeg:
			raise ValueError("inexact division: %s by %s" % (f, g))
		qc, rem = divmod(num[ndeg], dlead)
		if rem:
			raise ValueError("inexact division: %s by %s" % (f, g))
		e = ndeg - ddeg
		quot[e] = qc
		for de, dv in den.items():
			k = de + e
			w = num.get(k, 0) - dv * qc
			if w:
				num[k] = w
			elif k in num:
				del num[k]
	return Laurent(quot).shift(f.lo - g.lo)


def symmetric_correction(f):
	"""The unique bar-invariant g with f - g in qZ[q].

	Built from the constant term and the negative-exponent terms:
	g = f_0 + sum_{j<0} f_j (q^j + q^-j).
	"""
	f = _coerce(f)
	c = {}
	for e, v in f.items():
		if e > 0:
			break
		c[e] = v
		c[-e] = v
	return Laurent(c)
