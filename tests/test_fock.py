"""Fock-space operator action: the f/e rules and divided powers."""

import itertools

import pytest

import barfock.partitions as pt
import barfock.fock as fock
from barfock.laurent import Laurent, ZERO, ONE, parse

from test_fock_golden import BOUNDS, POWERS
from test_laurent import quantum_factorial
from test_partitions import row_options


def vec(h, *terms):
	"""terms: (partition, coefficient-string) pairs."""
	return fock.FockVector(h, {lam: parse(c) for lam, c in terms})


def basis(h, lam):
	return fock.FockVector.basis(h, lam)


class TestDisplayedIdentities:
	"""The four divided powers of f_0 on (5,4) at h=5."""

	def test_f0(self):
		got = fock.apply_f(basis(5, (5, 4)), 0, 1)
		assert got == vec(5,
			((5, 4, 1), "1"),
			((5, 5), "q"),
			((6, 4), "q^2 + q^4"))

	def test_f0_squared(self):
		got = fock.apply_f(basis(5, (5, 4)), 0, 2)
		assert got == vec(5,
			((5, 5, 1), "1"),
			((6, 4, 1), "q + q^3"),
			((6, 5), "q^2"))

	def test_f0_cubed(self):
		got = fock.apply_f(basis(5, (5, 4)), 0, 3)
		assert got == vec(5, ((6, 5, 1), "1"))

	def test_f0_fourth_vanishes(self):
		assert fock.apply_f(basis(5, (5, 4)), 0, 4) == fock.FockVector(5, {})
		assert fock.apply_f(basis(5, (5, 4)), 0, 7) == fock.FockVector(5, {})


class TestMonomials:
	def test_eight_letter_word(self):
		word = [(0, 1), (1, 1), (2, 1), (1, 1), (0, 3), (1, 1), (2, 1), (1, 1)]
		got = fock.monomial_apply(word, 5)
		assert got == vec(5,
			((6, 4), "1"),
			((7, 3), "q^2"),
			((8, 2), "q^2"),
			((9, 1), "q^4"))

	def test_nine_letter_word(self):
		word = [(0, 1), (1, 1), (2, 1), (1, 1), (0, 2), (1, 1), (2, 1), (0, 1), (1, 1)]
		got = fock.monomial_apply(word, 5)
		assert got == vec(5,
			((5, 3, 2), "1"),
			((5, 4, 1), "q^2"),
			((6, 4), "1 + q^2"),
			((7, 3), "q^2 + q^4"),
			((8, 2), "q^2"),
			((9, 1), "q^4"))


class TestOperatorLaws:
	def test_weight_preservation(self):
		lam = (6, 3, 2)
		v = fock.apply_f(basis(5, lam), 1, 1)
		base = pt.h_content(lam, 5)
		for mu in v.support():
			got = pt.h_content(mu, 5)
			assert got[1] == base[1] + 1
			assert got[0] == base[0] and got[2] == base[2]

	@pytest.mark.parametrize("i,k", [(0, 2), (0, 3), (1, 2), (2, 2)])
	def test_divided_power_consistency(self, i, k):
		# [k]_i! f^(k) = f^k, checked on a handful of starting vectors
		for lam in [(), (1,), (5, 4), (4, 2, 1), (6, 4)]:
			if not pt.is_h_strict(lam, 5):
				continue
			v = basis(5, lam)
			lhs = fock.apply_f(v, i, k).scale(quantum_factorial(k, i, 5))
			rhs = v
			for _ in range(k):
				rhs = fock.apply_f(rhs, i, 1)
			assert lhs == rhs, (lam, i, k)

	@pytest.mark.parametrize("i,k", [(0, 2), (1, 2), (2, 3)])
	def test_divided_power_consistency_e(self, i, k):
		for lam in [(5, 4), (6, 4), (5, 3, 2), (9, 1)]:
			v = basis(5, lam)
			lhs = fock.apply_e(v, i, k).scale(quantum_factorial(k, i, 5))
			rhs = v
			for _ in range(k):
				rhs = fock.apply_e(rhs, i, 1)
			assert lhs == rhs, (lam, i, k)

	def test_e_undoes_f_leading_term(self):
		# <e_i f_i lam, lam> is nonzero whenever f_i lam is
		for lam in [(), (1,), (5, 4), (3, 2)]:
			for i in range(3):
				fv = fock.apply_f(basis(5, lam), i, 1)
				if not fv.support():
					continue
				back = fock.apply_e(fv, i, 1)
				assert back.terms.get(lam, ZERO) != ZERO

	def test_zero_power_is_identity(self):
		v = vec(5, ((5, 4), "q"), ((6, 4), "1"))
		assert fock.apply_f(v, 0, 0) == v
		assert fock.apply_e(v, 2, 0) == v

	@pytest.mark.parametrize("op", [fock.apply_f, fock.apply_e])
	@pytest.mark.parametrize("v", [vec(5, ((5, 4), "q")), fock.FockVector(5)])
	def test_negative_power_is_refused(self, op, v):
		# empty or not, the vector never decides whether k < 0 gets through
		with pytest.raises(ValueError, match=r"^divided powers need k >= 0, got k=-2$"):
			op(v, 1, -2)

	@pytest.mark.parametrize("op", [fock.apply_f, fock.apply_e])
	@pytest.mark.parametrize("h,lam", [(3, (4, 2)), (5, (5, 4)), (7, (8, 3, 1))])
	def test_residue_outside_0_to_n_is_refused(self, op, h, lam):
		# refused before any exponent is read, and before k = 0 or an empty
		# vector could return without reading a node set
		n = pt.n_of(h)
		for i in (-1, n + 1):
			for v in (basis(h, lam), fock.FockVector(h)):
				for k in (0, 1):
					with pytest.raises(ValueError,
							match=r"^residue %d out of range 0\.\.%d for h=%d$" % (i, n, h)):
						op(v, i, k)


class TestVectorBasics:
	def test_algebra(self):
		a = vec(5, ((5, 4), "q"))
		b = vec(5, ((5, 4), "q"), ((6, 3), "1"))
		assert (a + b).terms.get((5, 4)) == parse("2*q")
		assert a.scale(parse("q^2")) == vec(5, ((5, 4), "q^3"))

	def test_support_sorted(self):
		b = vec(5, ((6, 3), "1"), ((5, 4), "q"))
		assert b.support() == [(5, 4), (6, 3)]

	@pytest.mark.parametrize("lam", [(0,), (1, 2), (2, 2), (3, -1), (1.0,)])
	def test_constructor_rejects_non_h_strict_keys(self, lam):
		with pytest.raises(ValueError):
			fock.FockVector(5, {lam: 1})


class TestImageCache:
	"""f/e act term by term through cached per-partition images."""

	@pytest.mark.parametrize("h", [3, 5, 7])
	@pytest.mark.parametrize("op", [fock.apply_f, fock.apply_e])
	def test_vector_is_sum_of_fresh_images(self, h, op):
		# every h-strict partition of two sizes, signed and shifted
		# coefficients so that images overlap and can cancel
		lams = pt.enumerate_h_strict(9, h) + pt.enumerate_h_strict(10, h)
		v = fock.FockVector(h, {lam: parse("q^%d - %d" % (j % 3, 1 + j % 2))
			for j, lam in enumerate(lams)})
		for i in range(pt.n_of(h) + 1):
			for k in (1, 2, 3):
				fock._image.cache_clear()
				want = fock.FockVector(h, {})
				for lam, c in v.terms.items():
					want = want + op(basis(h, lam), i, k).scale(c)
				hits = fock._image.cache_info().hits
				assert op(v, i, k) == want, (i, k)
				assert fock._image.cache_info().hits - hits == len(v)

	def test_images_are_immutable_and_share_coefficients(self):
		lam = (5, 4)
		image = fock._image(lam, 0, 1, 5, True)
		# one flat tuple (mu, coefficient, mu, coefficient, ...)
		assert isinstance(image, tuple) and len(image) % 2 == 0
		assert all(isinstance(mu, tuple) for mu in image[::2])
		assert all(isinstance(c, Laurent) for c in image[1::2])
		assert fock._image(lam, 0, 1, 5, True) is image
		# a caller that edits its result leaves the cached image alone
		got = fock.apply_f(basis(5, lam), 0, 1)
		got.terms.clear()
		assert fock.apply_f(basis(5, lam), 0, 1) == vec(5,
			((5, 4, 1), "1"), ((5, 5), "q"), ((6, 4), "q^2 + q^4"))
		# equal coefficients are one object
		other = fock._image((4,), 0, 1, 5, True)
		assert dict(zip(other[::2], other[1::2]))[(4, 1)] is \
			dict(zip(image[::2], image[1::2]))[(5, 4, 1)]
		# and equal partitions are one tuple object, the partition table's
		table = fock._partitions(5)[0]
		assert all(table[mu][0] is mu for mu in image[::2] + other[::2])

	def test_cache_is_bounded(self):
		assert fock._image.cache_info().maxsize == fock.IMAGE_CACHE_SIZE


def targets(lam, i, h, raising):
	"""Each h-strict mu that lam reaches by moving 1 to 3 i-nodes, with
	the moved nodes, from the per-row residue rule alone."""
	rows = list(lam) + ([0] if raising and i == 0 else [])
	sign = 1 if raising else -1
	for combo in itertools.product(*(row_options(v, i, h, sign) for v in rows)):
		mu = tuple(v for v in combo if v)
		moved = {(r + 1, c) for r, (old, new) in enumerate(zip(rows, combo))
			for c in range(min(old, new) + 1, max(old, new) + 1)}
		if len(moved) in POWERS and list(combo) == sorted(combo, reverse=True) \
				and pt.is_h_strict(mu, h):
			yield mu, moved


class TestNodeSetsOfTargets:
	"""The fact _image rests on: a target's i-nodes of the moving kind are
	lam's minus the moved nodes, and the moved nodes are among lam's."""

	@pytest.mark.parametrize("h", sorted(BOUNDS))
	def test_moving_set_of_every_target(self, h):
		for m in range(BOUNDS[h] + 1):
			for lam in pt.enumerate_h_strict(m, h):
				for i in range(pt.n_of(h) + 1):
					for raising in (True, False):
						moving = pt.addable_i_nodes if raising else pt.removable_i_nodes
						reach = moving(lam, i, h)
						for mu, moved in targets(lam, i, h, raising):
							assert moved <= set(reach), (lam, i, mu)
							assert moving(mu, i, h) == \
								[node for node in reach if node not in moved], (lam, i, mu)

	def test_two_node_set_calls_per_image(self, monkeypatch):
		calls = []
		for name in ("addable_i_nodes", "removable_i_nodes"):
			real = getattr(pt, name)
			monkeypatch.setattr(pt, name,
				lambda *args, real=real: calls.append(args) or real(*args))
		fock._image.cache_clear()
		# the one exception: lam has fewer than k nodes of the moving kind,
		# and the first walk alone shows that its image is empty
		cases = [((5, 4), 0, 1, 5, True, 2), ((6, 4, 1), 0, 2, 5, False, 2),
			((9, 6, 3, 1), 1, 3, 7, True, 1), ((), 2, 4, 5, False, 1)]
		for lam, i, k, h, raising, walks in cases:
			del calls[:]
			image = fock._image(lam, i, k, h, raising)
			assert len(calls) == walks and {args[0] for args in calls} == {lam}
			assert (image == ()) == (walks == 1), (lam, i, k)
		fock._image.cache_clear()


def skew_columns(small, big):
	"""The columns of big's nodes outside small, row by row, or None unless
	small lies inside big."""
	if len(small) > len(big) or any(a > b for a, b in zip(small, big)):
		return None
	padded = small + (0,) * (len(big) - len(small))
	return [c for a, b in zip(padded, big) for c in range(a + 1, b + 1)]


@pytest.mark.parametrize("h", sorted(BOUNDS))
def test_image_support_is_every_i_skew_partition(h):
	# every k up to one past lam's nodes of the moving kind (golden_fe pins
	# k <= 3 only): f_i^(k) lam reaches exactly the h-strict mu of size
	# |lam| + k containing lam with only i-nodes outside it, e_i^(k) lam the
	# h-strict mu of size |lam| - k inside lam with only i-nodes outside mu
	by_size = {}

	def sized(m):
		if m not in by_size:
			by_size[m] = pt.enumerate_h_strict(m, h) if m >= 0 else []
		return by_size[m]

	for m in range(BOUNDS[h] + 1):
		for lam in sized(m):
			for raising, sign in ((True, 1), (False, -1)):
				moving = pt.addable_i_nodes if raising else pt.removable_i_nodes
				skews = {}  # mu -> residues of its skew nodes against lam
				for i in range(pt.n_of(h) + 1):
					for k in range(1, len(moving(lam, i, h)) + 2):
						for mu in sized(m + sign * k):
							if mu not in skews:
								cols = skew_columns(*((lam, mu) if raising else (mu, lam)))
								skews[mu] = cols and {pt.residue(c, h) for c in cols}
						want = {mu for mu in sized(m + sign * k) if skews[mu] == {i}}
						got = set(fock._image(lam, i, k, h, raising)[::2])
						assert got == want, (lam, i, k, raising)
