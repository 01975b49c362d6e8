"""Signatures, the psi involution, and the canonical-basis oracle."""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import barfock.partitions as pt
import barfock.canonical as cb
from barfock.laurent import ONE, ZERO, parse

from test_acceptance import W1_CORES, W2_CORES
from test_bar_invariance import bar_failures


def signature_nodes(lam, i, h):
	"""The i-signature written out: (column, row, symbol) for every addable
	(+) and removable (-) i-node, ascending by column."""
	merged = [(c, r, "+") for r, c in pt.addable_i_nodes(lam, i, h)]
	merged += [(c, r, "-") for r, c in pt.removable_i_nodes(lam, i, h)]
	return sorted(merged)


def reduce_signature(nodes):
	"""Cancel adjacent +- pairs (stack style); survivors keep their order."""
	stack = []
	for node in nodes:
		if node[2] == "-" and stack and stack[-1][2] == "+":
			stack.pop()
		else:
			stack.append(node)
	return stack


def i_signature(lam, i, h):
	"""The word of +/- symbols, ascending column order."""
	return "".join(sym for _, _, sym in signature_nodes(lam, i, h))


def reduced_i_signature(lam, i, h):
	return "".join(sym for _, _, sym in reduce_signature(signature_nodes(lam, i, h)))


def conormal_nodes(lam, i, h):
	"""Surviving addable nodes, as (row, col) ascending by column."""
	return cb._signature(lam, i, h)[1]


class TestSignatures:
	def test_displayed_example(self):
		# h=3, (5,4,2,1), residue 0
		assert i_signature((5, 4, 2, 1), 0, 3) == "-+-++"
		assert reduced_i_signature((5, 4, 2, 1), 0, 3) == "-++"
		assert cb.normal_nodes((5, 4, 2, 1), 0, 3) == [(4, 1)]
		assert conormal_nodes((5, 4, 2, 1), 0, 3) == [(1, 6), (1, 7)]

	def test_empty_partition(self):
		assert conormal_nodes((), 0, 5) == [(1, 1)]
		assert cb.normal_nodes((), 0, 5) == []

	def test_core_signatures_are_one_sided(self):
		# a core's reduced signature is all + or all -
		for h in (3, 5, 7):
			for core in pt.enumerate_cores(h, 10):
				for i in range(pt.n_of(h) + 1):
					sig = reduced_i_signature(core, i, h)
					assert sig in ("", "+" * len(sig), "-" * len(sig))


@pytest.mark.parametrize("h", [3, 5, 7])
def test_one_walk_matches_stack_reduction(h):
	# normal and conormal nodes from the one merged walk, against the
	# written-out signature reduced stack style
	for m in range(0, 13):
		for lam in pt.enumerate_h_strict(m, h):
			for i in range(pt.n_of(h) + 1):
				stack = reduce_signature(signature_nodes(lam, i, h))
				want = tuple([(r, c) for c, r, sym in stack if sym == s]
					for s in "-+")
				assert cb._signature(lam, i, h) == want, (lam, i)


class TestPsi:
	def test_displayed_example(self):
		assert cb.psi((5, 4, 2, 1), 0, 3) == (6, 4, 2, 1)

	@pytest.mark.parametrize("h", [3, 5, 7])
	def test_involution_and_restriction(self, h):
		n = pt.n_of(h)
		for m in range(0, 12):
			for lam in pt.enumerate_h_strict(m, h):
				for i in range(n + 1):
					img = cb.psi(lam, i, h)
					assert pt.is_h_strict(img, h)
					assert cb.psi(img, i, h) == lam
					assert pt.is_restricted(lam, h) == pt.is_restricted(img, h)

	@pytest.mark.parametrize("h", [3, 5])
	def test_core_equivariance(self, h):
		for m in range(0, 12):
			for lam in pt.enumerate_h_strict(m, h):
				for i in range(pt.n_of(h) + 1):
					img = cb.psi(lam, i, h)
					assert pt.bar_core(img, h) == cb.psi(pt.bar_core(lam, h), i, h)
					assert pt.bar_weight(img, h) == pt.bar_weight(lam, h)

	def test_no_addable_case(self):
		# with no addable i-nodes, psi just strips the removable ones
		lam = (1,)
		assert pt.addable_i_nodes(lam, 0, 3) == []
		assert cb.psi(lam, 0, 3) == ()


class TestPeel:
	def test_empty_word(self):
		assert cb.peel_word((), 5) == []

	def test_peel_requires_restricted(self):
		with pytest.raises(ValueError):
			cb.peel_word((11,), 5)

	def test_peel_reaches_empty(self):
		for mu in [(5, 3, 2), (4, 3, 2, 1), (6, 4, 1)]:
			word = cb.peel_word(mu, 5)
			assert sum(k for _, k in word) == pt.size(mu)


def column_dict(matrix, mu):
	v = matrix.column(mu)
	return {lam: str(c) for lam, c in v.items()}


class TestOracle:
	def test_weight_zero(self):
		m = cb.canonical_basis(pt.BlockId(5, (3, 1), 0))
		assert m.rows == ((3, 1),) and m.cols == ((3, 1),)
		assert m.entries == ((ONE,),)

	def test_entry_and_column_outside_the_matrix_raise(self):
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		top = m.rows[-1]  # not restricted, so a row but no column
		assert top not in m.cols
		assert m.entry(list(m.rows[0]), list(m.cols[-1])) == ZERO
		for mu in [top, (99,)]:
			with pytest.raises(ValueError):
				m.entry(m.rows[0], mu)
			with pytest.raises(ValueError):
				m.column(mu)
		with pytest.raises(ValueError):
			m.entry((99,), m.cols[0])

	def test_displayed_columns(self):
		block = pt.BlockId(5, (), 2)
		m = cb.canonical_basis(block)
		assert column_dict(m, (6, 4)) == {
			(6, 4): "1", (7, 3): "q^2", (8, 2): "q^2", (9, 1): "q^4"}
		assert column_dict(m, (5, 3, 2)) == {
			(5, 3, 2): "1", (5, 4, 1): "q^2", (6, 4): "q^2", (7, 3): "q^4"}

	def test_golden_matrix(self):
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		rows = [(5, 3, 2, 1), (5, 5, 1), (6, 3, 2), (6, 4, 1), (6, 5),
			(7, 3, 1), (8, 2, 1), (10, 1), (11,)]
		cols = [(5, 3, 2, 1), (5, 5, 1), (6, 3, 2), (6, 4, 1), (7, 3, 1)]
		assert list(m.rows) == rows
		assert list(m.cols) == cols
		want = [
			["1", "0", "0", "0", "0"],
			["q", "1", "0", "0", "0"],
			["q^2", "0", "1", "0", "0"],
			["q^2 + q^4", "q + q^3", "q^2", "1", "0"],
			["q^3", "q^2", "0", "q", "0"],
			["0", "0", "q^4", "q^2", "1"],
			["0", "0", "0", "q^2", "q^4"],
			["0", "q^2", "0", "q^3", "0"],
			["0", "q^4", "0", "0", "0"],
		]
		got = [[str(e) for e in row] for row in m.entries]
		assert got == want

	@pytest.mark.parametrize("block", [
		pt.BlockId(5, (), 2),
		pt.BlockId(5, (1,), 2),
		pt.BlockId(3, (), 2),
		pt.BlockId(7, (4, 2), 1),
	])
	def test_cb_axioms(self, block):
		m = cb.canonical_basis(block)
		content = pt.h_content(m.rows[0], block.h)
		for j, mu in enumerate(m.cols):
			for lam, row in zip(m.rows, m.entries):
				d = row[j]
				if lam == mu:
					assert d == ONE
				elif d:
					assert d.divisible_by_q()
					assert pt.strictly_dominates(lam, mu)
				if d:
					assert pt.h_content(lam, block.h) == content


@pytest.fixture
def clean_store():
	"""The column stores and the matrix cache, empty before and after the
	test."""
	def clear():
		cb._store.cache_clear()
		cb._CACHE.clear()
	clear()
	yield clear
	clear()


class TestColumnStore:
	@pytest.mark.parametrize("error", [pt.InvariantError, KeyboardInterrupt])
	def test_failed_call_leaves_store_clean(self, clean_store, monkeypatch, error):
		# fail once more than ten columns are finished and three are in
		# progress: the placeholders must go, or the next call reports a
		# false cycle
		block = pt.BlockId(5, (), 3)
		real = cb.fock.apply_f

		def failing(vec, i, k=1):
			columns = cb._store(block.h)[0]
			pending = sum(c is None for c in columns.values())
			if pending >= 3 and len(columns) - pending > 10:
				raise error("synthetic failure")
			return real(vec, i, k)
		monkeypatch.setattr(cb.fock, "apply_f", failing)
		with pytest.raises(error, match="synthetic failure"):
			cb.canonical_basis(block)
		columns = cb._store(block.h)[0]
		assert None not in columns.values()
		assert len(columns) > 10  # columns finished before the failure stay
		monkeypatch.setattr(cb.fock, "apply_f", real)
		after_failure = cb.canonical_basis(block)
		clean_store()
		assert cb.canonical_basis(block) == after_failure

	def test_matrix_columns_are_the_store_columns(self, clean_store):
		# a block's matrix is a view of the store, not a second copy
		for block in [pt.BlockId(5, (1,), 2), pt.BlockId(5, (), 3), pt.BlockId(7, (), 2)]:
			m = cb.canonical_basis(block)
			store = cb._store(block.h)[0]
			assert m.cols
			for mu in m.cols:
				assert m.columns[mu] is store[mu]

	def test_store_checks_the_coefficient_bound(self, clean_store, monkeypatch):
		# with the bound lowered to 1, the first coefficient 2 the store
		# meets is refused, and nothing half-built stays behind
		monkeypatch.setattr(cb, "COEFF_BOUND", 1)
		with pytest.raises(pt.InvariantError, match=r"^h=5 core=\(\) w=3, column \(5,5,4,1\): "
				r"coefficient 2\*q\^2 at \(9,5,1\) exceeds the bound 1$"):
			cb.canonical_basis(pt.BlockId(5, (), 3))
		assert None not in cb._store(5)[0].values()

	def test_leak_check_runs_on_stored_columns(self, clean_store):
		# a column already in the store is checked against the block that
		# asks for it: plant a term outside the block in a finished column
		block = pt.BlockId(5, (1,), 2)
		mu = cb.canonical_basis(block).cols[0]
		cb._CACHE.clear()
		cb._store(5)[0][mu][(99,)] = ONE
		with pytest.raises(pt.InvariantError,
				match=r"^h=5 core=\(1\) w=2, column \(5,3,2,1\): leaks outside the block at \(99\)$"):
			cb.canonical_basis(block)

	def test_any_order_same_matrices(self, clean_store, monkeypatch):
		# every weight-1/2 block of the gate's sweeps: one warm store in a
		# shuffled order gives the matrices of one cold store per block, and
		# builds each column once
		blocks = [pt.BlockId(h, core, w)
			for w, caps in ((1, W1_CORES), (2, W2_CORES))
			for h, cap in caps.items()
			for core in pt.enumerate_cores(h, cap)]
		cold = {}
		for block in blocks:
			cold[block] = cb.canonical_basis(block)
			clean_store()
		built = {}
		real = cb.string_top

		def counting(mu, h):
			built[h, mu] = built.get((h, mu), 0) + 1
			return real(mu, h)
		monkeypatch.setattr(cb, "string_top", counting)
		random.Random(2019).shuffle(blocks)
		for block in blocks:
			assert cb.canonical_basis(block) == cold[block], block
		assert built and set(built.values()) == {1}
		assert {h for h, _ in built} == set(W1_CORES)


def test_bar_check_catches_a_mutant_the_build_checks_pass(clean_store, monkeypatch):
	# scale the raising i = 0 coefficient by q^2 when lam has at least three
	# parts and ends in 1: this block still builds, every build check
	# passes, its matrix changes, and only bar invariance notices
	block = pt.BlockId(3, (1,), 3)
	clean = cb.canonical_basis(block)
	clean_store()
	real = cb.fock._image
	q2 = parse("q^2")

	def mutant(lam, i, k, h, raising):
		out = real(lam, i, k, h, raising)
		if raising and i == 0 and len(lam) >= 3 and lam[-1] == 1:
			out = tuple((mu, c * q2) for mu, c in out)
		return out
	monkeypatch.setattr(cb.fock, "_image", mutant)
	assert cb.canonical_basis(block) != clean
	assert "h=3 core=(1) w=3: e_0 G(3,3,3,1) at G(5,3,1) has 2*q^-1 + 3*q + q^3" \
		in bar_failures(block)[0]


def test_invariants_survive_optimised_mode():
	# doubling every coefficient that f_i^(k) produces breaks the
	# unitriangular lead of the first column built; python -O strips
	# asserts, but not this check
	script = textwrap.dedent("""
		import barfock.canonical as cb
		import barfock.partitions as pt
		assert False, "reached only without -O"
		real = cb.fock.apply_f
		cb.fock.apply_f = lambda vec, i, k=1: real(vec, i, k).scale(2)
		try:
			cb.canonical_basis(pt.BlockId(5, (), 2))
		except pt.InvariantError as e:
			print(e)
	""")
	src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
	proc = subprocess.run([sys.executable, "-O", "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert proc.stdout.startswith("h=5 core=() w=2, column (1): ")
	assert "not unitriangular" in proc.stdout


def test_psi_checks_survive_optimised_mode():
	# patched node sets: an addable node in the column of the removable
	# (4, 1), then a lone addable node (1, 7) that leaves column 6 of row 1
	# empty; psi must refuse both under python -O
	script = textwrap.dedent("""
		import barfock.canonical as cb
		import barfock.partitions as pt
		assert False, "reached only without -O"
		lam = (5, 4, 2, 1)
		real = pt.addable_i_nodes
		for add, remove in (
				(lambda lam, i, h: real(lam, i, h) + [(5, 1)], pt.removable_i_nodes),
				(lambda lam, i, h: [(1, 7)], lambda lam, i, h: [])):
			pt.addable_i_nodes, pt.removable_i_nodes = add, remove
			try:
				cb.psi(lam, 0, 3)
			except pt.InvariantError as e:
				print(e)
	""")
	src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
	proc = subprocess.run([sys.executable, "-O", "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert proc.stdout.splitlines() == [
		"addable and removable 0-nodes share a column on (5,4,2,1)",
		"psi_0: the unmatched nodes of (5,4,2,1) do not move contiguously "
		"to an h-strict partition",
	]


def test_oracle_images_and_enumeration_leave_no_cyclic_garbage():
	# with the collector off, a result that sits in a reference cycle is
	# never freed; each step below must leave nothing for gc.collect()
	script = textwrap.dedent("""
		import gc
		gc.disable()
		import barfock.canonical as cb
		import barfock.fock as fock
		import barfock.partitions as pt
		gc.collect()
		vec = fock.FockVector.basis(5, (7, 5, 1))  # outside the block below
		steps = (
			("cold oracle", lambda: cb.canonical_basis(pt.BlockId(5, (1,), 2))),
			("f image miss", lambda: fock.apply_f(vec, 0, 1)),
			("e image miss", lambda: fock.apply_e(vec, 0, 1)),
			("enumeration", lambda: pt.enumerate_h_strict(20, 3)),
		)
		for name, step in steps:
			assert step()
			print(name, gc.collect())
	""")
	src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
	proc = subprocess.run([sys.executable, "-c", script],
		capture_output=True, text=True, timeout=120,
		env=dict(os.environ, PYTHONPATH=src))
	assert proc.returncode == 0, proc.stderr
	assert proc.stdout.splitlines() == [
		"cold oracle 0", "f image miss 0", "e image miss 0", "enumeration 0"]


class TestRenderings:
	def test_text_uses_dot_for_zero(self):
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		text = m.to_text()
		assert "·" in text and "q^2 + q^4" in text

	def test_csv_parses_back(self):
		import csv as csvmod
		import io
		m = cb.canonical_basis(pt.BlockId(7, (4, 2), 1))
		rows = list(csvmod.reader(io.StringIO(m.to_csv())))
		assert rows[0][1:] == [pt.partition_str(c) for c in m.cols]
		assert rows[1][0] == pt.partition_str(m.rows[0])
		assert rows[1][1] == "1"

	def test_json_shape(self):
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		obj = m.to_json_obj()
		json.dumps(obj)	 # serialisable
		assert obj["h"] == 5 and obj["core"] == "(1)" and obj["weight"] == 2
		assert len(obj["entries"]) == len(obj["rows"])
