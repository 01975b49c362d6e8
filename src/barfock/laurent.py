"""Exact Laurent polynomials in the variable q, with integer coefficients.

Everything downstream (Fock-space coefficients, canonical-basis entries,
closed formulas) is arithmetic in Z[q, q^-1], so this module keeps it exact:
a sparse map exponent -> coefficient, no floats anywhere.

>>> f = parse("q + q^-1")
>>> print(f * f)
q^-2 + 2 + q^2
"""

import re

__all__ = [
    "Laurent", "ZERO", "ONE",
    "q_power", "parse", "exact_div", "symmetric_correction",
]


class Laurent:
	"""A Laurent polynomial in q over the integers.

	Immutable in practice: no method mutates self.  The coefficient map
	never stores zeros, so equality and hashing are structural.
	"""

	__slots__ = ("c", "_hash")

	def __init__(self, coeffs=None):
		if coeffs is None:
			c = {}
		elif isinstance(coeffs, int):
			c = {0: coeffs} if coeffs else {}
		elif isinstance(coeffs, dict):
			c = {e: v for e, v in coeffs.items() if v}
		else:
			raise TypeError("coeffs must be an int or a dict exponent -> int")
		object.__setattr__(self, "c", c)
		object.__setattr__(self, "_hash", None)

	def __setattr__(self, name, value):
		raise AttributeError("Laurent values are immutable")

	# ---- ring structure ----

	def __add__(self, other):
		other = _coerce(other)
		c = dict(self.c)
		for e, v in other.c.items():
			w = c.get(e, 0) + v
			if w:
				c[e] = w
			elif e in c:
				del c[e]
		return _from_map(c)

	__radd__ = __add__

	def __neg__(self):
		return _from_map({e: -v for e, v in self.c.items()})

	def __sub__(self, other):
		return self + (-_coerce(other))

	def __rsub__(self, other):
		return _coerce(other) + (-self)

	def __mul__(self, other):
		other = _coerce(other)
		a, b = (self.c, other.c) if len(self.c) >= len(other.c) else (other.c, self.c)
		if len(b) == 1:
			# times a monomial: nothing can cancel
			(e2, v2), = b.items()
			return _from_map({e1 + e2: v1 * v2 for e1, v1 in a.items()})
		c = {}
		for e1, v1 in a.items():
			for e2, v2 in b.items():
				e = e1 + e2
				w = c.get(e, 0) + v1 * v2
				if w:
					c[e] = w
				elif e in c:
					del c[e]
		return _from_map(c)

	__rmul__ = __mul__

	def __eq__(self, other):
		if isinstance(other, int):
			other = Laurent(other)
		if not isinstance(other, Laurent):
			return NotImplemented
		return self.c == other.c

	def __hash__(self):
		if self._hash is None:
			object.__setattr__(self, "_hash", hash(tuple(sorted(self.c.items()))))
		return self._hash

	def __bool__(self):
		return bool(self.c)

	# ---- the operations the canonical-basis machinery needs ----

	def shift(self, m):
		"""Multiply by q^m."""
		return _from_map({e + m: v for e, v in self.c.items()})

	def bar(self):
		"""The involution q -> q^-1."""
		return _from_map({-e: v for e, v in self.c.items()})

	def eval_at_one(self):
		return sum(self.c.values())

	def divisible_by_q(self):
		"""True iff every exponent is >= 1 (so 0 qualifies)."""
		return all(e >= 1 for e in self.c)

	def coefficient(self, e):
		return self.c.get(e, 0)

	def min_exp(self):
		return min(self.c) if self.c else 0

	# ---- canonical text form ----

	def __str__(self):
		if not self.c:
			return "0"
		out = []
		for e in sorted(self.c):
			v = self.c[e]
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
_set_c = Laurent.__dict__["c"].__set__
_set_hash = Laurent.__dict__["_hash"].__set__


def _from_map(c):
	"""A Laurent over c, which must already be zero-free; the arithmetic
	builds only such maps, so it skips the public constructor's checks."""
	out = _new(Laurent)
	_set_c(out, c)
	_set_hash(out, None)
	return out


def _coerce(x):
	if isinstance(x, Laurent):
		return x
	if isinstance(x, int):
		return Laurent(x)
	raise TypeError("cannot mix Laurent with %r" % type(x).__name__)


ZERO = Laurent()
ONE = Laurent(1)


def q_power(m):
	return Laurent({m: 1})


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
	mf, mg = f.min_exp(), g.min_exp()
	num = {e - mf: v for e, v in f.c.items()}
	den = {e - mg: v for e, v in g.c.items()}
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
	return Laurent(quot).shift(mf - mg)


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
	for e, v in f.c.items():
		if e < 0:
			c[e] = c.get(e, 0) + v
			c[-e] = c.get(-e, 0) + v
		elif e == 0:
			c[0] = c.get(0, 0) + v
	return Laurent(c)
