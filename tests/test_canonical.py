"""Signatures, the psi involution, and the canonical-basis oracle."""

import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

from collections.abc import Mapping

import pytest

import barfock.partitions as pt
import barfock.canonical as cb
import barfock.fock as fock
from barfock.formulas import formula_matrix
from barfock.laurent import ONE, ZERO, parse

from test_acceptance import W1_CORES, W2_CORES, _w1_blocks, _w2_blocks, dense
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

	def test_balanced_signature_returns_lam(self):
		# as many normal as conormal nodes, none or one each: psi fixes lam
		# and returns it as a tuple, also when given a list
		for lam, i, count in (((5, 4, 2, 1), 1, 0), ((4, 2), 1, 1)):
			norm, conorm = cb._signature(lam, i, 3)
			assert len(norm) == len(conorm) == count
			for given in (lam, list(lam)):
				img = cb.psi(given, i, 3)
				assert type(img) is tuple and img == lam


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
		assert dense(m) == [[ONE]]

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

	def test_cells_are_entries_read_off_one_column(self):
		# cells answers as entry does, row by row, and raises at the first
		# partition that is not a row, or at once on a column it lacks
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		for mu in m.cols:
			assert list(m.cells(m.rows, mu)) == [m.entry(lam, mu) for lam in m.rows]
		cells = m.cells([m.rows[0], (99,), m.rows[1]], m.cols[0])
		assert next(cells) == m.entry(m.rows[0], m.cols[0])
		with pytest.raises(ValueError, match=r"^\(99\) is not a row of h=5 core=\(1\) w=2$"):
			next(cells)
		with pytest.raises(ValueError, match="is not a column"):
			next(m.cells(m.rows, m.rows[-1]))

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
		got = list(m.dense_rows(str, "0"))
		assert got == want

	def test_grid_is_the_dense_matrix(self):
		# the row walk, on every weight-1 and weight-2 block of the gate,
		# against a cell-by-cell read of the sparse columns
		seen = 0
		for block in list(_w1_blocks()) + list(_w2_blocks()):
			m = cb.canonical_basis(block)
			want = [[m.columns[mu].get(lam, ZERO) for mu in m.cols] for lam in m.rows]
			calls = []

			def render(c):
				calls.append(c)
				return c

			got = list(m.dense_rows(render, ZERO))
			assert got == want, block
			assert len({id(row) for row in got}) == len(got)  # a fresh list per row
			# each distinct coefficient is rendered once
			assert len(calls) == len(set(calls)) == \
				len({c for col in m.columns.values() for c in col.values()})
			seen += 1
		assert seen == 106

	@pytest.mark.parametrize("block", [
		pt.BlockId(5, (), 2),
		pt.BlockId(5, (1,), 2),
		pt.BlockId(3, (), 2),
		pt.BlockId(7, (4, 2), 1),
	])
	def test_cb_axioms(self, block):
		m = cb.canonical_basis(block)
		content = pt.h_content(m.rows[0], block.h)
		grid = dense(m)
		for j, mu in enumerate(m.cols):
			for lam, row in zip(m.rows, grid):
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

	def test_columns_hold_the_partition_tables_objects(self, clean_store):
		# each partition is one tuple object per h: every key of every
		# finished column is the object fock's partition table holds
		cb.canonical_basis(pt.BlockId(5, (), 5))
		table = cb.fock._partitions(5)[0]
		columns = cb._store(5)[0]
		assert len(columns) > 100
		for col in columns.values():
			assert all(table[lam][0] is lam for lam in col.keys())

	def test_rebuilt_columns_read_the_records_kept_per_process(self, clean_store,
			monkeypatch):
		# the records outlive the store: a rebuild computes no h-content and
		# no prefix sums, and every term's record holds the partition's own,
		# its h-content shared with every record of equal content
		block = pt.BlockId(5, (), 5)
		cb.canonical_basis(block)
		clean_store()
		real = pt.h_content, pt.prefix_sums
		calls = []
		monkeypatch.setattr(pt, "h_content", lambda *a: calls.append(a) or real[0](*a))
		monkeypatch.setattr(pt, "prefix_sums", lambda *a: calls.append(a) or real[1](*a))
		cb.canonical_basis(block)
		assert calls == []
		table, contents = cb.fock._partitions(5)
		columns = cb._store(5)[0]
		assert len(columns) > 100
		for col in columns.values():
			for lam in col:
				assert table[lam] == (lam, real[0](lam, 5), real[1](lam))
				assert table[lam][1] is contents[table[lam][1]]  # one per value

	@pytest.mark.parametrize("field,message", [
		(1, "h-content differs at (10)"), (2, "support fails dominance at (10)")])
	def test_a_wrong_record_fails_its_check(self, clean_store, monkeypatch, field,
			message):
		# (10) is a non-restricted term of G(5,4,1) alone, so its record is
		# read by that column's checks and by no other
		rec = list(cb.fock._record((10,), 5))
		rec[field] = (0,) * len(rec[field])
		monkeypatch.setitem(cb.fock._partitions(5)[0], (10,), tuple(rec))
		with pytest.raises(pt.InvariantError) as err:
			cb.canonical_basis(pt.BlockId(5, (), 2))
		assert str(err.value) == "h=5 core=() w=2, column (5,4,1): " + message

	def test_store_containers_cost_under_30_bytes_per_term(self, clean_store):
		# the bytes that the finished columns' containers hold, traced over a
		# cold h=5 w=5 build and freed by dropping the columns, whose
		# partitions and coefficients the partition table and the interned
		# coefficients keep.  Two tuples per column read about 14 B/term
		# (small tuples go back to CPython's free lists, not to the
		# allocator, so a little reads as kept); a plain dict per column
		# reads about 45 B/term.
		tracemalloc.start()
		try:
			cb.canonical_basis(pt.BlockId(5, (), 5))
			cb._CACHE.clear()
			columns = cb._store(5)[0]
			terms = sum(map(len, columns.values()))
			held = tracemalloc.get_traced_memory()[0]
			for mu in columns:
				columns[mu] = None
			per_term = (held - tracemalloc.get_traced_memory()[0]) / terms
		finally:
			tracemalloc.stop()
		assert terms > 2000
		assert 8 < per_term < 30, per_term

	def test_columns_are_read_only_mappings(self):
		# a finished column answers as the dict with its items, lex ascending;
		# a matrix built from dict columns (the closed formulas) freezes them
		block = pt.BlockId(5, (1,), 2)
		m = cb.canonical_basis(block)
		for mu in m.cols:
			col = m.columns[mu]
			d = dict(col.items())
			assert col == d and d == col and len(col) == len(d)
			assert list(col) == list(col.keys()) == sorted(d)
			assert list(col.values()) == [d[lam] for lam in sorted(d)]
			for lam in m.rows + ((99,),):
				assert (lam in col) == (lam in d)
				assert col.get(lam, ZERO) == d.get(lam, ZERO)
			assert col != {**d, (99,): ONE}
			assert col != {**d, mu: parse("q")}
			assert col != {(99,) if lam == mu else lam: c for lam, c in d.items()}
		formula = formula_matrix(block)
		assert all(isinstance(col, cb.Column) for col in formula.columns.values())
		assert formula == m

	def test_a_wrapped_column_reads_as_its_dict_twin(self):
		# a vector over a store column answers as the vector over the same
		# items in a dict: printed, listed, acted on and compared
		block = pt.BlockId(5, (1,), 2)
		m = cb.canonical_basis(block)
		for mu in m.cols:
			col = m.columns[mu]
			assert isinstance(col, Mapping)
			d = dict(col)
			assert d == dict(col.items()) and all(col[lam] is d[lam] for lam in col)
			with pytest.raises(KeyError):
				col[(99,)]
			v, twin = fock.FockVector.wrap(5, col), fock.FockVector.wrap(5, d)
			assert str(v) == str(twin) and v.items() == twin.items()
			assert v == twin and twin == v
			for i in range(pt.n_of(5) + 1):
				for k in (0, 1):
					assert fock.apply_f(v, i, k) == fock.apply_f(twin, i, k), (mu, i, k)

	def test_library_vectors_skip_the_checks(self, monkeypatch):
		# column, + and scale wrap what the library made; only the
		# constructor called from outside checks each term
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		calls = []
		for name in ("check_partition", "is_h_strict"):
			real = getattr(pt, name)
			monkeypatch.setattr(pt, name,
				lambda *args, real=real, name=name: calls.append(name) or real(*args))
		a, b = m.column(m.cols[0]), m.column(m.cols[-1])
		assert a.terms is m.columns[m.cols[0]]
		total = a + b
		cancelled = total + a.scale(-1)
		assert cancelled == b and (a + a.scale(-1)).terms == {}
		assert a.scale(0).terms == {} and not a.scale(0)
		assert all(c for c in total.terms.values())
		assert calls == []
		fock.FockVector(5, {(6,): 1})  # the counters see the checking constructor
		assert calls == ["check_partition", "is_h_strict"]

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
		# asks for it: replace a finished column by one with a term outside
		# the block (a finished column is immutable)
		block = pt.BlockId(5, (1,), 2)
		mu = cb.canonical_basis(block).cols[0]
		cb._CACHE.clear()
		store = cb._store(5)[0]
		store[mu] = cb.Column.of({**dict(store[mu].items()), (99,): ONE})
		with pytest.raises(pt.InvariantError,
				match=r"^h=5 core=\(1\) w=2, column \(5,3,2,1\): leaks outside the block at \(99\)$"):
			cb.canonical_basis(block)

	def test_a_correction_reaching_below_itself_is_refused(self, clean_store):
		# straightening G(3,3,2,1) at h=3 w=3 subtracts a multiple of
		# G(5,3,1): plant a term lex below (5,3,1) in that stored column
		# and rebuild G(3,3,2,1), which must refuse the correction
		block = pt.BlockId(3, (), 3)
		cb.canonical_basis(block)
		cb._CACHE.clear()
		store = cb._store(3)[0]
		store[(5, 3, 1)] = cb.Column.of({**dict(store[(5, 3, 1)].items()), (4, 3, 2): parse("q")})
		del store[(3, 3, 2, 1)]
		with pytest.raises(pt.InvariantError, match=r"^h=3 core=\(\) w=3, column \(3,3,2,1\): "
				r"the correction G\(5,3,1\) reaches below itself at \(4,3,2\)$"):
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
			out = tuple(x * q2 if j % 2 else x for j, x in enumerate(out))  # (mu, c, ...)
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


def test_record_checks_survive_optimised_mode():
	# a record with a wrong h-content, then one with wrong prefix sums, for
	# (10), a term of G(5,4,1) alone; python -O keeps both checks
	script = textwrap.dedent("""
		import barfock.canonical as cb
		import barfock.partitions as pt
		assert False, "reached only without -O"
		table = cb.fock._partitions(5)[0]
		real = cb.fock._record((10,), 5)
		for field in (1, 2):
			rec = list(real)
			rec[field] = (0,) * len(rec[field])
			table[(10,)] = tuple(rec)
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
	assert proc.stdout.splitlines() == [
		"h=5 core=() w=2, column (5,4,1): h-content differs at (10)",
		"h=5 core=() w=2, column (5,4,1): support fails dominance at (10)",
	]


def test_psi_checks_survive_optimised_mode():
	# patched node sets: an addable node in the column of the removable
	# (4, 1), then a lone addable node (1, 7) that leaves column 6 of row 1
	# empty, then two addable nodes in column 6 with no removable ones,
	# then the real addable nodes in reverse column order, which share no
	# column, next to the real removable nodes and alone; psi must refuse
	# all five under python -O
	script = textwrap.dedent("""
		import barfock.canonical as cb
		import barfock.partitions as pt
		assert False, "reached only without -O"
		lam = (5, 4, 2, 1)
		real = pt.addable_i_nodes
		for add, remove in (
				(lambda lam, i, h: real(lam, i, h) + [(5, 1)], pt.removable_i_nodes),
				(lambda lam, i, h: [(1, 7)], lambda lam, i, h: []),
				(lambda lam, i, h: [(1, 6), (2, 6)], lambda lam, i, h: []),
				(lambda lam, i, h: real(lam, i, h)[::-1], pt.removable_i_nodes),
				(lambda lam, i, h: real(lam, i, h)[::-1], lambda lam, i, h: [])):
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
		"addable and removable 0-nodes share a column on (5,4,2,1)",
		"addable and removable 0-nodes share a column on (5,4,2,1)",
		"addable and removable 0-nodes share a column on (5,4,2,1)",
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
	def test_json_shape(self):
		m = cb.canonical_basis(pt.BlockId(5, (1,), 2))
		obj = m.to_json_obj()
		json.dumps(obj)	 # serialisable
		assert obj["h"] == 5 and obj["core"] == "(1)" and obj["weight"] == 2
		assert len(obj["entries"]) == len(obj["rows"])
