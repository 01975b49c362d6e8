"""Predicted reduced decomposition numbers for spin representations.

Evaluating a canonical-basis entry at q = 1 and scaling by 2^(x_h/2),
where x_h is a small statistic of the row partition, conjecturally gives
the reduced decomposition number.  Everything here is exact: a prediction
stores the entry's value d(1) at q = 1 and x_h of its row, and reads as
mantissa * 2^(half_power/2) with mantissa = d(1) and half_power = x_h (0
when d(1) is 0); an odd half_power is flagged rather than approximated.
"""

from dataclasses import dataclass

from . import partitions as pt
from .laurent import Laurent


def parity(lam):
	"""'even' or 'odd' by the number of positive even parts."""
	return "even" if sum(1 for a in lam if a % 2 == 0) % 2 == 0 else "odd"


def h_parity(lam, h):
	"""'h-even' or 'h-odd' by the number of nodes of nonzero residue."""
	content = pt.h_content(lam, h)
	nonzero = sum(content[1:])
	return "h-even" if nonzero % 2 == 0 else "h-odd"


def n_h(lam, h):
	"""Number of parts divisible by h."""
	return sum(1 for a in lam if a % h == 0)


def x_h(lam, h):
	"""n_h, plus one if lam is even, minus one if it is h-even."""
	return n_h(lam, h) + (parity(lam) == "even") - (h_parity(lam, h) == "h-even")


def half_power(d, x):
	"""The power of 2^(1/2) in the prediction d * 2^(x/2): x, or 0 when d is 0."""
	return x if d else 0


@dataclass(frozen=True)
class SpinPrediction:
	"""d_at_one * 2^(x/2), the prediction for the entry at (lam, mu)."""
	lam: tuple
	mu: tuple
	d_at_one: int
	x: int

	@property
	def mantissa(self):
		return self.d_at_one

	@property
	def half_power(self):
		return half_power(self.d_at_one, self.x)

	@property
	def half_power_odd(self):
		return self.half_power % 2 == 1

	def to_json_obj(self):
		return {
			"lam": pt.partition_str(self.lam),
			"mu": pt.partition_str(self.mu),
			"d_at_one": self.d_at_one,
			"x_h": self.x,
			"mantissa": self.mantissa,
			"half_power": self.half_power,
			"half_power_odd": self.half_power_odd,
		}


def predict_matrix(matrix):
	"""Predictions for every entry of a decomposition matrix, row-major."""
	h = matrix.block.h
	out = []
	for lam, row in zip(matrix.rows, matrix.dense_rows(Laurent.eval_at_one, 0)):
		x = x_h(lam, h)
		out.extend(SpinPrediction(lam, mu, d, x) for mu, d in zip(matrix.cols, row))
	return out
