"""End-to-end command-line checks, run in process via cli.main (and in a
subprocess where the process itself matters: a closed stdout)."""

import csv
import io
import json
import os
import pickle
import subprocess
import sys
import tracemalloc

import pytest

import barfock.cli as cli
import barfock.canonical
import barfock.partitions as pt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_subprocess(argv, stdout):
	env = dict(os.environ, PYTHONPATH=SRC)
	return subprocess.run([sys.executable, "-m", "barfock.cli"] + argv,
		stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)


def run(capsys, *argv):
	code = cli.main(list(argv))
	cap = capsys.readouterr()
	return code, cap.out, cap.err


def test_block_by_size(capsys):
	code, out, _ = run(capsys, "block", "--h", "3", "--size", "8")
	assert code == 0
	lines = [l for l in out.splitlines() if l]
	assert lines[-1] == "(7 partitions)"
	assert "(8)" in lines and "(3,3,2)" in lines


def test_block_by_core_json(capsys):
	code, out, _ = run(capsys, "block", "--h", "5", "--core", "(1)",
		"--weight", "2", "--format", "json")
	assert code == 0
	obj = json.loads(out)
	assert obj["core"] == "(1)" and len(obj["partitions"]) == 9


def test_block_show_abacus(capsys):
	code, out, _ = run(capsys, "block", "--h", "5", "--size", "4",
		"--show-abacus")
	assert code == 0
	assert "b" in out and "n" in out and "x" in out


def test_block_size_with_weight_is_usage_error(capsys):
	# --weight only qualifies --core; with --size it used to be ignored
	code, out, err = run(capsys, "block", "--h", "5", "--size", "6", "--weight", "2")
	assert code == 1 and out == ""
	assert "--weight" in err and "--core" in err


@pytest.mark.parametrize("size", ["-1", "-3"])
def test_block_negative_size_is_usage_error(capsys, size):
	# no partition has negative size: the listing would be empty yet exit 0
	code, out, err = run(capsys, "block", "--h", "5", "--size", size)
	assert code == 1 and out == ""
	assert "--size" in err and "at least 0" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
	("block", "--h", "5", "--core", "(1)", "--weight", "1"),
	("core", "--h", "5", "--partition", "(5,5)"),
])
def test_show_abacus_outside_table_is_usage_error(capsys, argv, fmt):
	# json and csv have no place for the picture; it used to vanish silently
	code, out, err = run(capsys, *argv, "--show-abacus", "--format", fmt)
	assert code == 1 and out == ""
	assert err.count("error:") == 1 and "--show-abacus" in err and "table" in err


def test_core_command(capsys):
	code, out, _ = run(capsys, "core", "--h", "5", "--partition", "(9,6,3,1)")
	assert code == 0
	assert "core      (3,1)" in out and "weight    3" in out
	code, out, _ = run(capsys, "core", "--h", "5",
		"--partition", "9,6,3,1", "--format", "json")
	assert code == 0
	obj = json.loads(out)
	assert obj["core"] == "(3,1)" and obj["weight"] == 3


def test_core_rejects_non_strict(capsys):
	code, _, err = run(capsys, "core", "--h", "5", "--partition", "(4,4)")
	assert (code, err) == (1, "error: (4,4) is not 5-strict\n")


@pytest.mark.parametrize("argv,message", [
	(("cb", "--h", "5", "--core", "(5)", "--weight", "1"), "(5) is not a 5-bar-core"),
	(("cb", "--h", "5", "--core", "(2,2)", "--weight", "1"), "(2,2) is not 5-strict"),
	(("block", "--h", "5", "--core", "(0)", "--weight", "1"),
		"argument --core: parts must be positive integers: (0)"),
])
def test_library_errors_write_partitions_as_the_cli_does(capsys, argv, message):
	code, out, err = run(capsys, *argv)
	assert (code, out) == (1, "")
	assert err.endswith("error: %s\n" % message)


def test_cb_table_and_determinism(capsys):
	code, out1, _ = run(capsys, "cb", "--h", "5", "--core", "(1)",
		"--weight", "2")
	assert code == 0
	assert "q^2+q^4" in out1 or "q^2 + q^4" in out1.replace("  ", " ")
	code, out2, _ = run(capsys, "cb", "--h", "5", "--core", "(1)",
		"--weight", "2")
	assert code == 0
	assert out1 == out2


def test_cb_table_uses_dot_for_zero(capsys):
	code, out, _ = run(capsys, "cb", "--h", "5", "--core", "(1)", "--weight", "2")
	assert code == 0
	assert "·" in out and "q^2 + q^4" in out


def test_cb_csv_parses_back(capsys):
	code, out, _ = run(capsys, "cb", "--h", "7", "--core", "(4,2)",
		"--weight", "1", "--format", "csv")
	assert code == 0
	m = barfock.canonical.canonical_basis(pt.BlockId(7, (4, 2), 1))
	rows = list(csv.reader(io.StringIO(out)))
	assert rows[0][1:] == [pt.partition_str(c) for c in m.cols]
	assert rows[1][0] == pt.partition_str(m.rows[0])
	assert rows[1][1] == "1"


def test_cb_weight_cap(capsys):
	code, _, err = run(capsys, "cb", "--h", "5", "--core", "()",
		"--weight", "4")
	assert code == 1 and "cap" in err
	code, _, _ = run(capsys, "cb", "--h", "3", "--core", "()",
		"--weight", "4", "--max-weight", "4")
	assert code == 0


def test_formula_matches_cb_output(capsys):
	args = ("--h", "7", "--core", "(4,2)", "--weight", "1",
		"--format", "csv")
	_, a, _ = run(capsys, "cb", *args)
	_, b, _ = run(capsys, "formula", *args)
	assert a == b


def test_formula_provenance_table(capsys):
	code, out, _ = run(capsys, "formula", "--h", "5", "--core", "(1)",
		"--weight", "2", "--provenance")
	assert code == 0
	assert "provenance:" in out


def test_formula_provenance_csv_is_usage_error(capsys):
	code, _, err = run(capsys, "formula", "--h", "5", "--core", "(1)",
		"--weight", "2", "--provenance", "--format", "csv")
	assert code == 1
	assert "provenance" in err


def test_formula_weight3_is_usage_error(capsys):
	code, _, err = run(capsys, "formula", "--h", "5", "--core", "()",
		"--weight", "3")
	assert code == 1
	assert "formulas exist for weights 0, 1, 2" in err


def test_diff_agreement(capsys):
	code, out, _ = run(capsys, "diff", "--h", "3,5", "--weight", "1",
		"--max-core-size", "5")
	assert code == 0
	assert out.startswith("all blocks agree")


def test_diff_json(capsys):
	code, out, _ = run(capsys, "diff", "--h", "3", "--weight", "0",
		"--max-core-size", "4", "--format", "json")
	assert code == 0
	obj = json.loads(out)
	assert obj["agree"] is True and obj["discrepancies"] == []


def test_diff_csv_is_usage_error(capsys):
	code, out, err = run(capsys, "diff", "--h", "3", "--weight", "1",
		"--max-core-size", "3", "--format", "csv")
	assert code == 1 and out == ""
	assert "usage:" in err and "invalid choice" in err and "csv" in err


def test_diff_discrepancy_exits_2(capsys, monkeypatch):
	def fake(job):
		return (job, ((3,), (3,), "1", "0"))
	monkeypatch.setattr(cli, "_diff_one", fake)
	code, out, _ = run(capsys, "diff", "--h", "3", "--weight", "1",
		"--max-core-size", "2", "--jobs", "1")
	assert code == 2
	assert "DISCREPANCY" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_diff_shape_mismatch_is_a_discrepancy(capsys, monkeypatch, fmt):
	# a formula that drops its first column: that partition is reported,
	# `absent` on the formula's side, and the block is named
	real = cli.formulas.formula_matrix

	def dropped(block):
		m = real(block)
		return barfock.canonical.CanonicalBasisMatrix(
			m.block, m.rows, {mu: m.columns[mu] for mu in m.cols[1:]})
	monkeypatch.setattr(cli.formulas, "formula_matrix", dropped)
	code, out, err = run(capsys, "diff", "--h", "5", "--weight", "1",
		"--max-core-size", "2", "--format", fmt)
	assert code == 2 and err == ""
	if fmt == "table":
		assert out.splitlines() == [
			"DISCREPANCY h=5 core=() at ((3,2), (3,2)): oracle 1 vs formula absent",
			"(3 of 3 blocks disagree)"]
	else:
		obj = json.loads(out)
		assert obj["agree"] is False and len(obj["discrepancies"]) == 3
		assert obj["discrepancies"][1] == {"h": 5, "core": "(1)",
			"lam": "(3,2,1)", "mu": "(3,2,1)", "oracle": "1", "formula": "absent"}


@pytest.mark.parametrize("error,code", [
	(pt.InvariantError("column (1) is not unitriangular"), 3),
	(AssertionError("synthetic failure"), 3),
	(ValueError("residue 9 out of range"), 1),
])
def test_diff_failure_names_the_block(capsys, monkeypatch, error, code):
	def broken(block):
		raise error
	monkeypatch.setattr(cli.canonical, "canonical_basis", broken)
	kind = AssertionError if code == 3 else ValueError
	with pytest.raises(kind) as info:
		cli._diff_one((5, (1,), 2))
	# a --jobs N worker hands its exception back pickled
	again = pickle.loads(pickle.dumps(info.value))
	assert isinstance(again, kind) and str(again) == "h=5 core=(1) w=2: %s" % error
	got, out, err = run(capsys, "diff", "--h", "3", "--weight", "1",
		"--max-core-size", "2", "--jobs", "1")
	assert got == code and out == ""
	assert "h=3 core=() w=1: %s" % error in err and err.count("\n") == 1


def test_diff_failure_named_once(monkeypatch):
	# oracle messages already start with the block; it is not repeated
	def broken(block):
		raise pt.InvariantError("%s, column (1): leading coefficient is not 1" % block)
	monkeypatch.setattr(cli.canonical, "canonical_basis", broken)
	with pytest.raises(pt.InvariantError, match=r"^h=5 core=\(1\) w=2, column \(1\)"):
		cli._diff_one((5, (1,), 2))


class FakePool:
	"""Stands in for ProcessPoolExecutor: records max_workers and maps in
	process, so no worker is started."""

	made = []

	def __init__(self, max_workers):
		FakePool.made.append(max_workers)

	def __enter__(self):
		return self

	def __exit__(self, *exc):
		return False

	def map(self, fn, jobs):
		return map(fn, jobs)


# `diff --h 3,5 --weight 1 --max-core-size 4` runs 3 + 7 = 10 blocks
@pytest.mark.parametrize("jobs,cpus,workers", [
	(2, 4, 2),  # --jobs is the least
	(500, 64, 10),  # the blocks are
	(8, 3, 3),  # the usable CPUs are
	(1, 4, None),  # one worker: no pool, the blocks run in process
	(4, 1, None),
])
def test_diff_workers_are_capped(capsys, monkeypatch, jobs, cpus, workers):
	import concurrent.futures
	argv = ("diff", "--h", "3,5", "--weight", "1", "--max-core-size", "4")
	expect = run(capsys, *argv, "--jobs", "1")
	monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
	monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
		raising=False)
	monkeypatch.setattr(FakePool, "made", [])
	assert run(capsys, *argv, "--jobs", str(jobs)) == expect
	assert expect[:2] == (0, "all blocks agree (10 blocks, weight 1, h in 3,5, "
		"cores up to 4)\n")
	assert FakePool.made == ([] if workers is None else [workers])


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_diff_jobs_below_one_is_usage_error(capsys, jobs):
	code, out, err = run(capsys, "diff", "--h", "3", "--weight", "1",
		"--max-core-size", "2", "--jobs", jobs)
	assert code == 1 and out == ""
	assert "--jobs" in err and "at least 1" in err


@pytest.mark.parametrize("size", ["-1", "-5"])
def test_diff_negative_core_size_is_usage_error(capsys, size):
	# no core has negative size, so the sweep would check nothing and agree
	code, out, err = run(capsys, "diff", "--h", "3", "--weight", "1",
		"--max-core-size", size)
	assert code == 1 and out == ""
	assert "--max-core-size" in err and "at least 0" in err


@pytest.mark.parametrize("hs", ["3,3", "3,5,3", "5,7,7"])
def test_diff_repeated_h_is_usage_error(capsys, hs):
	# a repeated h would run each of its blocks twice and count them twice
	code, out, err = run(capsys, "diff", "--h", hs, "--weight", "1",
		"--max-core-size", "3")
	assert code == 1 and out == ""
	errors = [line for line in err.splitlines() if line.startswith("error:")]
	assert errors == ["error: argument --h: each h may be listed once, got " + hs]


def test_closed_stdout_exits_quietly(capsys):
	# a reader that has gone away, as after `| head -c 20`
	argv = ["cb", "--h", "5", "--core", "(1)", "--weight", "2", "--format", "json"]
	read_end, write_end = os.pipe()
	os.close(read_end)
	try:
		proc = run_subprocess(argv, stdout=write_end)
	finally:
		os.close(write_end)
	assert proc.returncode == 0 and proc.stderr == b""
	# a full read still gets every byte
	proc = run_subprocess(argv, stdout=subprocess.PIPE)
	assert proc.returncode == 0 and proc.stderr == b""
	assert proc.stdout.decode() == run(capsys, *argv)[1]


# h=7 core () w=5: 252 rows by 108 columns, 4,069 nonzero cells
BIG = ["--h", "7", "--core", "()", "--weight", "5", "--max-weight", "5"]
FORMATS = ["json", "csv", "table"]


@pytest.mark.parametrize("form", FORMATS)
@pytest.mark.parametrize("command", ["cb", "predict-spin"])
def test_reader_leaving_mid_matrix_exits_quietly(capsys, command, form):
	# more than the pipe (64 KiB) and the reader's buffer (8 KiB) hold, so
	# the writer meets the closed pipe in the middle of the matrix
	argv = [command, *BIG, "--format", form]
	assert len(run(capsys, *argv)[1].encode()) > 72 * 1024
	env = dict(os.environ, PYTHONPATH=SRC)
	proc = subprocess.Popen([sys.executable, "-m", "barfock.cli"] + argv,
		stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
	try:
		first = proc.stdout.readline()
		proc.stdout.close()
		err = proc.stderr.read()
		code = proc.wait(timeout=120)
	finally:
		proc.kill()
	assert first.strip()
	assert code == 0 and err == b""


class _Sink:
	"""A stdout that keeps nothing."""

	def write(self, text):
		return len(text)

	def flush(self):
		pass


@pytest.mark.parametrize("form", FORMATS)
@pytest.mark.parametrize("command", ["cb", "predict-spin"])
def test_printers_hold_no_dense_grid(monkeypatch, command, form):
	# the matrix is built first; only the printing is traced, and it stays
	# below one 8-byte reference per cell of the dense matrix
	mat = barfock.canonical.canonical_basis(pt.BlockId(7, (), 5))
	bound = 8 * len(mat.rows) * len(mat.cols)
	assert bound == 8 * 252 * 108
	monkeypatch.setattr(sys, "stdout", _Sink())
	started = not tracemalloc.is_tracing()
	if started:
		tracemalloc.start()
	tracemalloc.reset_peak()
	before = tracemalloc.get_traced_memory()[0]
	try:
		if command == "cb":
			cli._print_matrix(mat, form)
		else:
			cli._print_predictions(mat, "oracle", form)
		peak = tracemalloc.get_traced_memory()[1] - before
	finally:
		if started:
			tracemalloc.stop()
	assert peak < bound, (command, form, peak)


def test_internal_assertion_exits_3(capsys, monkeypatch):
	def boom(block):
		raise AssertionError("synthetic failure")
	monkeypatch.setattr(cli.canonical, "canonical_basis", boom)
	code, _, err = run(capsys, "cb", "--h", "3", "--core", "()",
		"--weight", "1")
	assert code == 3
	assert "internal assertion" in err


def test_out_of_memory_exits_3(capsys, monkeypatch):
	def starve(block):
		raise MemoryError()
	monkeypatch.setattr(cli.canonical, "canonical_basis", starve)
	monkeypatch.setenv("BARFOCK_MAX_MB", "")
	code, out, err = run(capsys, "cb", "--h", "3", "--core", "()",
		"--weight", "1")
	assert code == 3 and out == ""
	assert err.startswith("error: out of memory") and err.count("\n") == 1
	assert "Traceback" not in err


def test_recursion_limit_exits_3(capsys):
	# a 3-strict partition of 4000 can have 1,333 parts, one recursive
	# call each: past the interpreter's limit, the CLI says so in one line
	code, out, err = run(capsys, "block", "--h", "3", "--size", "4000")
	assert code == 3 and out == ""
	assert err.startswith("error: maximum recursion depth") and err.count("\n") == 1
	assert "Traceback" not in err


def test_verify_pair(capsys):
	code, out, _ = run(capsys, "verify-pair", "--h", "7",
		"--source-core", "(8,2,1)", "--i", "1")
	assert code == 0
	obj = json.loads(out)
	assert obj["ok"] is True and obj["kind"] == "A"


def test_verify_pair_no_addable_is_usage_error(capsys):
	code, _, err = run(capsys, "verify-pair", "--h", "5",
		"--source-core", "(1)", "--i", "2")
	assert code == 1
	assert "no addable" in err


def test_verify_pair_residue_out_of_range(capsys):
	code, _, err = run(capsys, "verify-pair", "--h", "5",
		"--source-core", "(1)", "--i", "9")
	assert code == 1
	assert err == "error: residue 9 out of range 0..2 for h=5\n"


def test_predict_spin_json(capsys):
	code, out, _ = run(capsys, "predict-spin", "--h", "7",
		"--core", "(4,2)", "--weight", "1", "--format", "json")
	assert code == 0
	obj = json.loads(out)
	assert obj["source"] == "oracle"
	assert all(set(p) >= {"mantissa", "half_power"} for p in obj["predictions"])


def test_predict_spin_csv_formula_source(capsys):
	code, out, _ = run(capsys, "predict-spin", "--h", "5", "--core", "(1)",
		"--weight", "2", "--format", "csv", "--source", "formula")
	assert code == 0
	assert out.splitlines()[0].startswith("lam,mu,d_at_one")


@pytest.mark.parametrize("weight", ["3", "4"])
def test_predict_spin_formula_weight_is_usage_error(capsys, weight):
	# the formula source has formula's rule, not the oracle's --max-weight cap
	code, out, err = run(capsys, "predict-spin", "--h", "5", "--core", "()",
		"--weight", weight, "--source", "formula")
	assert code == 1 and out == ""
	assert "formulas exist for weights 0, 1, 2" in err
	assert "cap" not in err


def test_predict_spin_oracle_keeps_the_cap(capsys):
	code, out, err = run(capsys, "predict-spin", "--h", "5", "--core", "()",
		"--weight", "4")
	assert code == 1 and out == ""
	assert "error: weight 4 exceeds the cap 3 (raise --max-weight if you mean it)" in err


def test_bad_h_is_usage_error(capsys):
	code, _, _ = run(capsys, "cb", "--h", "4", "--core", "()",
		"--weight", "1")
	assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
	code, _, err = run(capsys, )
	assert code == 1
	assert "usage:" in err
