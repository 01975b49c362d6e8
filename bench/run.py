"""The barfock benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads (see bench/README.md for why each exists):
  oracle_large    `barfock cb --format json` on three large empty-core blocks
  consumer_sweep  formula-vs-oracle, spin and pair checks at the gate's bounds
  member_sweep    psi_i on every h-strict partition up to the gate's bounds

Every repetition runs in a fresh interpreter (bench/worker.py), one at a
time, so module caches start cold and nothing runs in parallel.  Repetitions
are started while another one still fits in --seconds (at least MIN_REPS).
Each op's output is checked against the digests in bench/expected/.

--trace 0 reports the end-to-end metrics: medians over repetitions.  Each
repetition shuffles its ops with its own seed, drawn from --seed, so a
run's medians cover many op orders rather than the one order a seed picks.
--trace 1 alternates untraced and traced repetitions, reports per-layer
metrics from the traced ones, and fails its self-checks (correct: false)
if the traced outputs differ from the untraced ones, two traced runs count
differently, self times exceed the traced wall time, a traced name is left
unwrapped, or the layers that ran differ from the predicted pattern.

The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}; the line before it is the full record, with the environment.
--out FILE also merges the record into FILE (a BENCH_*.json).
"""

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("oracle_large", "consumer_sweep", "member_sweep")

MIN_REPS = 3          # untraced repetitions per --trace 0 run
SETUP_ONLY = 3        # set-up-only interpreters before each --trace 0 repetition
MIN_TRACED = 2        # traced repetitions per --trace 1 run
WORKER_TIMEOUT = 150  # seconds; a repetition takes under 15 on 2 shared vCPUs

# Layers whose metrics each workload should move, and layers that must stay
# idle there; the traced run checks both.
ACTIVE = {
	"oracle_large": {"cli", "canonical", "fock", "laurent", "partitions"},
	"consumer_sweep": {"canonical", "partitions", "abacus", "formulas", "pairs", "spin"},
	"member_sweep": {"canonical", "partitions"},
}
IDLE = {
	"oracle_large": set(),
	"consumer_sweep": {"cli"},
	"member_sweep": {"fock", "laurent", "cli"},
}


class BenchError(Exception):
	pass


def spawn(workload, seed, trace, setup_only=False):
	"""Run one worker; returns (set-up seconds, its record or None)."""
	cmd = [sys.executable, WORKER, "--workload", workload,
		"--seed", str(seed), "--trace", str(trace)]
	if setup_only:
		cmd.append("--setup-only")
	env = dict(os.environ, PYTHONHASHSEED="0")
	env.pop("PYTHONPATH", None)
	start = time.perf_counter()
	with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
			text=True) as proc:
		try:
			first = proc.stdout.readline()
			setup = time.perf_counter() - start
			rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
		except subprocess.TimeoutExpired:
			proc.kill()
			proc.wait()
			raise BenchError("worker timed out: %s" % " ".join(cmd))
	if proc.returncode != 0 or first.strip() != "ready":
		raise BenchError("worker failed (exit %s): %s" % (proc.returncode, " ".join(cmd)))
	return setup, (None if setup_only else json.loads(rest.splitlines()[-1]))


def layer_metrics(snap, trace_overhead_s):
	"""The per-layer metrics, from one traced repetition's span totals."""
	spans, counters, distinct = snap["spans"], snap["counters"], snap["distinct"]

	def calls(name):
		return spans[name][0]

	def self_s(name):
		return spans[name][2]

	def layer_self(layer):
		return sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer)

	node_calls = calls("partitions.node_sets")
	return {
		"fock.apply_f.calls": (calls("fock.apply_f"), "count"),
		"fock.apply_f.terms_in": (counters.get("fock.apply_f.terms_in", 0), "count"),
		"fock.apply_f.terms_out": (counters.get("fock.apply_f.terms_out", 0), "count"),
		"fock.apply_f.self_s": (self_s("fock.apply_f"), "s"),
		"fock.apply_e.calls": (calls("fock.apply_e"), "count"),
		"fock.apply_e.self_s": (self_s("fock.apply_e"), "s"),
		"fock.monomial_apply.calls": (calls("fock.monomial_apply"), "count"),
		"canonical.canonical_basis.calls": (calls("canonical.canonical_basis"), "count"),
		"canonical.canonical_basis.cache_hits": (
			counters.get("canonical.canonical_basis.cache_hits", 0), "count"),
		"canonical.canonical_basis.self_s": (self_s("canonical.canonical_basis"), "s"),
		"canonical.columns": (counters.get("canonical.columns", 0), "count"),
		"canonical.corrections": (calls("laurent.symmetric_correction"), "count"),
		"canonical.peel_word.calls": (calls("canonical.peel_word"), "count"),
		"canonical.peel_word.self_s": (self_s("canonical.peel_word"), "s"),
		"canonical.psi.calls": (calls("canonical.psi"), "count"),
		"canonical.psi.self_s": (self_s("canonical.psi"), "s"),
		"partitions.node_sets.calls": (node_calls, "count"),
		"partitions.node_sets.distinct": (distinct["partitions.node_sets"], "count"),
		"partitions.node_sets.repeat_ratio": (
			1 - distinct["partitions.node_sets"] / node_calls if node_calls else 0.0, "ratio"),
		"partitions.node_sets.self_s": (self_s("partitions.node_sets"), "s"),
		"partitions.enumerate_block.calls": (calls("partitions.enumerate_block"), "count"),
		"partitions.enumerate_block.distinct": (distinct["partitions.enumerate_block"], "count"),
		"partitions.enumerate_block.self_s": (self_s("partitions.enumerate_block"), "s"),
		"partitions.bar_core.calls": (calls("partitions.bar_core"), "count"),
		"partitions.bar_core.self_s": (self_s("partitions.bar_core"), "s"),
		"laurent.mul.calls": (calls("laurent.mul"), "count"),
		"laurent.add.calls": (calls("laurent.add"), "count"),
		# the wrapper's own cost is a large share of these tiny calls
		"laurent.self_s": (layer_self("laurent"), "s"),
		"abacus.self_s": (layer_self("abacus"), "s"),
		"formulas.formula_matrix.calls": (calls("formulas.formula_matrix"), "count"),
		"formulas.formula_matrix.self_s": (self_s("formulas.formula_matrix"), "s"),
		"formulas.mu_plus.calls": (calls("formulas.mu_plus"), "count"),
		"formulas.weight2_profile.calls": (calls("formulas.weight2_profile"), "count"),
		"formulas.weight2_profile.distinct": (distinct["formulas.weight2_profile"], "count"),
		"pairs.verify_pair.calls": (calls("pairs.verify_pair"), "count"),
		"pairs.verify_pair.self_s": (self_s("pairs.verify_pair"), "s"),
		"spin.predict_matrix.self_s": (self_s("spin.predict_matrix"), "s"),
		"cli.self_s": (layer_self("cli"), "s"),
		"cli.stdout_bytes": (counters.get("cli.stdout_bytes", 0), "bytes"),
		"trace.overhead_s": (trace_overhead_s, "s"),
	}


def counts_of(snap):
	"""Everything in a traced repetition that must repeat exactly."""
	return (
		{k: v[0] for k, v in snap["spans"].items()},
		snap["counters"], snap["distinct"],
	)


def trace_checks(workload, untraced, traced):
	"""Self-check failures of a traced run, as messages."""
	problems = []
	if any(r["digest"] != untraced[0]["digest"] for r in untraced + traced):
		problems.append("traced and untraced outputs differ")
	if any(counts_of(r["trace"]) != counts_of(traced[0]["trace"]) for r in traced):
		problems.append("two traced runs on one seed counted differently")
	for r in traced:
		total_self = sum(v[2] for v in r["trace"]["spans"].values())
		if total_self > r["wall_s"]:
			problems.append("self times %.6f s exceed the traced wall %.6f s"
				% (total_self, r["wall_s"]))
		if r["trace"]["unwrapped"]:
			problems.append("left unwrapped: %s" % ", ".join(r["trace"]["unwrapped"]))
	ran = {k.split(".")[0] for k, v in traced[0]["trace"]["spans"].items() if v[0]}
	for layer in sorted(ACTIVE[workload] - ran):
		problems.append("layer %s predicted active recorded no span" % layer)
	for layer in sorted(IDLE[workload] & ran):
		problems.append("layer %s predicted idle recorded spans" % layer)
	return problems


def git_commit():
	"""The checked-out commit, or "unknown" outside a git checkout.  git
	is kept from searching above the checkout, so a benchmark copied out
	of a repository never reads the enclosing repository's commit."""
	env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
	try:
		out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
			capture_output=True, text=True, timeout=30)
	except (OSError, subprocess.SubprocessError):
		return "unknown"
	return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
	return {
		"python": platform.python_version(),
		"implementation": platform.python_implementation(),
		"nproc": len(os.sched_getaffinity(0)),
		"platform": platform.platform(),
		"machine": platform.machine(),
		"commit": git_commit(),
	}


def fits(start, seconds, steps):
	"""Whether one more step, as long as the median step so far, ends
	within `seconds` of `start`; so a run stops near --seconds instead of
	running on for most of a repetition."""
	step = median(steps) if steps else 0.0
	return time.perf_counter() - start + step <= seconds


def nearest_rank(sorted_values, p):
	"""The p-th percentile as the ceil(p/100 * N)-th smallest value, and the
	number of values beyond it (0 and 0 when there are none, as when every
	phase failed to build its ops)."""
	if not sorted_values:
		return 0.0, 0
	k = max(1, math.ceil(p / 100 * len(sorted_values)))
	return sorted_values[k - 1], len(sorted_values) - k


def run_untraced(args):
	rng = random.Random(args.seed)
	setups, reps, steps = [], [], []
	start = time.perf_counter()
	while len(reps) < MIN_REPS or fits(start, args.seconds, steps):
		step = time.perf_counter()
		# set-up samples spread over the whole run, so that the host's
		# drift over tens of seconds averages out of their median
		for _ in range(SETUP_ONLY):
			setups.append(spawn(args.workload, args.seed, 0, setup_only=True)[0])
		setup, rec = spawn(args.workload, rng.randrange(2 ** 31), 0)
		setups.append(setup)
		reps.append(rec)
		steps.append(time.perf_counter() - step)
	# each op's median latency over the repetitions, so that a slow moment
	# of the host does not land in the tail; percentiles are over the ops
	by_op = {}
	for r in reps:
		for op, x in r["latencies_s"].items():
			by_op.setdefault(op, []).append(x)
	op_ms = sorted(median(xs) * 1e3 for xs in by_op.values())
	pct = {p: nearest_rank(op_ms, p) for p in (50, 90, 99)}
	metrics = {
		"setup_s": (median(setups), "s"),
		"wall_s": (median([r["wall_s"] for r in reps]), "s"),
		"ops_per_s": (median([r["units"] / r["wall_s"] for r in reps]), "1/s"),
		"op_p50_ms": (pct[50][0], "ms"),
		"op_p90_ms": (pct[90][0], "ms"),
		"op_p99_ms": (pct[99][0], "ms"),
		"peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MiB"),
	}
	samples = {
		"repetitions": len(reps),
		"ops_per_repetition": reps[0]["ops"],
		"latency_ops": len(op_ms),
		"samples_beyond": {"op_p%d_ms" % p: pct[p][1] for p in pct},
		"wall_s": [r["wall_s"] for r in reps],
		"setup_s": setups,
	}
	return metrics, reps, [], samples


def run_traced(args):
	# every repetition keeps the one order --seed picks, so the traced
	# repetitions can be checked to count exactly alike
	untraced, traced, steps = [], [], []
	start = time.perf_counter()
	while (not untraced or len(traced) < MIN_TRACED
			or fits(start, args.seconds, steps)):
		step = time.perf_counter()
		if len(untraced) * MIN_TRACED <= len(traced):
			untraced.append(spawn(args.workload, args.seed, 0)[1])
		else:
			traced.append(spawn(args.workload, args.seed, 1)[1])
		steps.append(time.perf_counter() - step)
	overhead = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
	per_rep = [layer_metrics(r["trace"], overhead) for r in traced]
	# counts repeat exactly (a self-check); times are medians
	metrics = {name: (median([m[name][0] for m in per_rep]) if unit == "s" else value, unit)
		for name, (value, unit) in per_rep[0].items()}
	samples = {
		"untraced_wall_s": [r["wall_s"] for r in untraced],
		"traced_wall_s": [r["wall_s"] for r in traced],
	}
	return metrics, untraced, traced, samples


def write_out(path, record):
	"""Merge the record into a BENCH_*.json file, keyed by workload and mode."""
	data = {"runs": {}}
	if os.path.exists(path):
		with open(path) as f:
			data = json.load(f)
	data["runs"]["%s trace=%d" % (record["workload"], record["trace"])] = record
	data["runs"] = dict(sorted(data["runs"].items()))
	with open(path, "w") as f:
		json.dump(data, f, indent=1, sort_keys=True)
		f.write("\n")


def main():
	ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
	ap.add_argument("--workload", required=True, choices=WORKLOADS)
	ap.add_argument("--seed", type=int, required=True)
	ap.add_argument("--seconds", type=float, required=True)
	ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
	ap.add_argument("--out", help="also merge the full record into this file")
	args = ap.parse_args()

	if not os.path.isfile(os.path.join(ROOT, "src", "barfock", "__init__.py")):
		sys.stderr.write("bench: no barfock sources under %s\n" % os.path.join(ROOT, "src"))
		return 2
	try:
		if args.trace:
			metrics, untraced, traced, samples = run_traced(args)
		else:
			metrics, untraced, traced, samples = run_untraced(args)
	except BenchError as e:
		sys.stderr.write("bench: %s\n" % e)
		return 1

	reps = untraced + traced
	attempted = sum(r["ops"] for r in reps)
	failed = sum(r["failed"] for r in reps)
	problems = trace_checks(args.workload, untraced, traced) if traced else []
	record = {
		"workload": args.workload,
		"workloads": list(WORKLOADS),
		"seed": args.seed,
		"seconds": args.seconds,
		"trace": args.trace,
		"environment": environment(),
		"samples": samples,
		"attempted": attempted,
		"failed": failed,
		"failed_frac": failed / attempted,
		"failures": [f for r in reps for f in r["failures"]][:10],
		"self_check_problems": problems,
		"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
	}
	if args.out:
		write_out(args.out, record)
	print(json.dumps(record, sort_keys=True))
	print(json.dumps({
		"correct": failed == 0 and not problems,
		"attempted": attempted,
		"failed": failed,
		"metrics": record["metrics"],
	}))
	return 0


if __name__ == "__main__":
	sys.exit(main())
