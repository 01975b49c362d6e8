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
equality and hashing compare (lo, p).  Only bar, eval_at_one, height,
items, symmetric_correction, exact_div and str decode the digits.

Exactness.  Python ints are exact and evaluation at q = 2^B is a ring
homomorphism, so p is always the exact value at 2^B of q^-lo f, whatever
the coefficients are.  A balanced base-2^B expansion is unique, so zero
tests, equality, hashing and decoding are right exactly when every true
coefficient fits the digit range; one that does not would silently corrupt
its neighbours.  COEFF_BOUND = 2^16 keeps that far away.  A product of two
values with coefficients within the bound and at most 2^k terms each has
coefficients below 2^(32+k), and a sum of 2^m such products stays inside
the digit range while k + m <= 30.  The canonical-basis oracle builds each
entry of a column that way: one product per term of G(nu) (a stored
coefficient times a Fock structure constant, q^e times a few factors
1 - (-q^2)^b) and one per correction (symmetric_correction's output times
a stored coefficient).  Exponent spans stay below 2^7 terms and summands
below 2^14 (twice the rows of the largest block in use), so the margin is
2^9.  The bound is enforced, raising InvariantError (which survives
`python -O`), by the public constructor, which symmetric_correction, parse
and exact_div go through, and by the oracle's store when it first keeps a
coefficient.  The largest coefficient any block here has shown is 352.
The arithmetic itself does not re-check: a long chain of products built
outside the oracle (say (1 + q)^70, whose middle coefficient passes 2^63)
is exact only while its coefficients fit the digit range.

>>> f = parse("q + q^-1")
>>> print(f * f)
q^-2 + 2 + q^2
"""

import re
import struct

from .partitions import InvariantError

__all__ = [
    "Laurent", "ZERO", "ONE", "COEFF_BOUND",
    "q_power", "parse", "exact_div", "symmetric_correction",
]

COEFF_BOUND = 1 << 16  # largest |coefficient| the constructor and the store accept

_B = 64  # digit width in bits; _unpack reads each digit as one 8-byte word
_HALF = 1 << (_B - 1)


class Laurent:
	"""A Laurent polynomial in q over the integers, packed as (lo, p).

	Immutable: no method mutates self, and the packed form is canonical,
	so equality and hashing are structural.
	"""

	__slots__ = ("lo", "p")

	def __init__(self, coeffs=None):
		if coeffs is None:
			coeffs = {}
		elif isinstance(coeffs, int):
			coeffs = {0: coeffs}
		elif not isinstance(coeffs, dict):
			raise TypeError("coeffs must be an int or a dict exponent -> int")
		for e, v in coeffs.items():
			if not isinstance(e, int) or not isinstance(v, int):
				raise TypeError("coeffs must map int exponents to int values")
			if abs(v) > COEFF_BOUND:
				raise InvariantError("coefficient %d of q^%d exceeds the bound %d"
					% (v, e, COEFF_BOUND))
		lo, p = _pack(coeffs)
		_set_lo(self, lo)
		_set_p(self, p)

	def __setattr__(self, name, value):
		raise AttributeError("Laurent values are immutable")

	# ---- ring structure ----

	def __add__(self, other):
		if other.__class__ is not Laurent:
			other = _coerce(other)
		p, q = self.p, other.p
		if not q:
			return self
		if not p:
			return other
		d = other.lo - self.lo
		if d > 0:  # self's lowest digit stays the lowest
			return _make(self.lo, p + (q << _B * d))
		if d < 0:
			return _make(other.lo, q + (p << -_B * d))
		p += q
		if not p:
			return ZERO
		zeros = ((p & -p).bit_length() - 1) // _B  # low digits that cancelled
		return _make(self.lo + zeros, p >> _B * zeros)

	__radd__ = __add__

	def __neg__(self):
		return _make(self.lo, -self.p)

	def __sub__(self, other):
		return self + (-_coerce(other))

	def __rsub__(self, other):
		return _coerce(other) + (-self)

	def __mul__(self, other):
		if other.__class__ is not Laurent:
			other = _coerce(other)
		p = self.p * other.p
		return _make(self.lo + other.lo, p) if p else ZERO

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
		return _make(self.lo + m, self.p) if self.p else ZERO

	def bar(self):
		"""The involution q -> q^-1."""
		return _make(*_pack({-e: v for e, v in self.items()}))

	def eval_at_one(self):
		return sum(_unpack(self.p))

	def divisible_by_q(self):
		"""True iff every exponent is >= 1 (so 0 qualifies)."""
		return self.lo >= 1 or not self.p

	def height(self):
		"""The largest absolute value of a coefficient (0 for zero)."""
		return max(map(abs, _unpack(self.p)), default=0)

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


def _make(lo, p):
	"""The Laurent (lo, p), which must be normalised: (0, 0), or p with a
	nonzero lowest digit.  The arithmetic builds only such pairs, so it
	skips the constructor."""
	out = _new(Laurent)
	_set_lo(out, lo)
	_set_p(out, p)
	return out


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


ZERO = _make(0, 0)
ONE = _make(0, 1)


def q_power(m):
	return _make(m, 1)


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


def _q_i_exponent(i, h):
	"""The power of q that plays the role of q_i for residue i."""
	n = (h - 1) // 2
	if not 0 <= i <= n:
		raise ValueError("residue %d out of range for h=%d" % (i, h))
	if i == 0:
		return 1
	if i == n:
		return 4
	return 2


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
