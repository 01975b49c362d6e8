"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only | --record]

Imports barfock from the checkout's src/, builds the workload's inputs and
prints "ready" (the end of set-up), then runs one timed pass and prints one
JSON line: wall time, every op's latency by op id, failures, a digest of all
op outputs and, with --trace 1, the span totals.  --record runs an
untraced pass and rewrites bench/expected/NAME.sha256 from its outputs.

Run it through bench/run.py, which starts one worker per repetition so
the library's module caches start cold every time.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expected_path(name):
	return os.path.join(HERE, "expected", name + ".sha256")


def read_expected(name):
	"""(digest, op id) per op in canonical order, as `sha256sum` prints them."""
	with open(expected_path(name)) as f:
		return [tuple(line.rstrip("\n").split("  ", 1)) for line in f]


def digest(output):
	"""sha256 of the exact bytes, or of the canonical JSON of a report."""
	if not isinstance(output, bytes):
		output = json.dumps(output, sort_keys=True, separators=(",", ":")).encode()
	return hashlib.sha256(output).hexdigest()


def _describe(e):
	return "%s: %s" % (type(e).__name__, e)


def run_pass(workload, seed, tr, traced):
	"""Run every op once; returns wall time, the ops' latencies by op id,
	their outputs indexed by the op's position in canonical order, and the
	errors of phases that could not build their ops."""
	rng = random.Random(seed)
	wall = 0.0
	latencies = {}
	outputs = []
	phase_errors = []
	clock = time.perf_counter
	for phase in workload.phases():
		tr.enabled = traced
		start = clock()
		try:
			ops = phase()
		except Exception as e:  # its ops go missing and count as failed
			ops = []
			phase_errors.append(["*", _describe(e)])
		wall += clock() - start
		tr.enabled = False
		base = len(outputs)
		outputs.extend([None] * len(ops))
		order = list(range(len(ops)))
		rng.shuffle(order)
		for k in order:
			op_id, thunk = ops[k]
			d = error = None
			tr.enabled = traced
			start = clock()
			try:
				report, ok = thunk()
			except Exception as e:  # a failing op is counted, never fatal
				report, ok, error = None, False, _describe(e)
			elapsed = clock() - start
			tr.enabled = False
			wall += elapsed
			latencies[op_id] = elapsed
			if report is not None:
				try:
					out = report()
					if isinstance(out, bytes):  # only the cli ops print
						tr.add("cli.stdout_bytes", len(out))
					d = digest(out)
				except Exception as e:
					ok, error = False, _describe(e)
			outputs[base + k] = (op_id, d, ok, error)
	return wall, latencies, outputs, phase_errors


def check(outputs, phase_errors, expected):
	"""Check a pass against the expected digests, matching ops by id.
	Returns the failure messages, the number of failed ops and the number
	attempted: every expected op, plus any op the pass ran that was not
	expected.  An expected op that did not run counts as failed."""
	want = {op_id: d for d, op_id in expected}
	failures = list(phase_errors)
	ran = set()
	for op_id, d, ok, error in outputs:
		ran.add(op_id)
		if error is not None:
			failures.append([op_id, error])
		elif op_id not in want:
			failures.append([op_id, "not an expected op"])
		elif d != want[op_id]:
			failures.append([op_id, "digest %s, expected %s" % (d, want[op_id])])
		elif not ok:
			failures.append([op_id, "the op's own check failed"])
	missing = [op_id for _d, op_id in expected if op_id not in ran]
	failures.extend([op_id, "not run"] for op_id in missing)
	return failures, len(failures) - len(phase_errors), len(outputs) + len(missing)


def main():
	ap = argparse.ArgumentParser()
	ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
	ap.add_argument("--seed", type=int, default=0)
	ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
	mode = ap.add_mutually_exclusive_group()
	mode.add_argument("--setup-only", action="store_true")
	mode.add_argument("--record", action="store_true")
	args = ap.parse_args()

	workload = WORKLOADS[args.workload]()
	tr = tracer.Tracer()
	unwrapped = tracer.install(tr) if args.trace else []
	print("ready", flush=True)
	if args.setup_only:
		return 0

	wall, latencies, outputs, phase_errors = run_pass(workload, args.seed, tr, bool(args.trace))
	if args.record:
		bad = phase_errors + [[op_id, error] for op_id, _d, ok, error in outputs if not ok]
		if bad:
			sys.stderr.write("not recording, ops failed: %r\n" % bad[:10])
			return 1
		with open(expected_path(args.workload), "w") as f:
			for op_id, d, _ok, _error in outputs:
				f.write("%s  %s\n" % (d, op_id))
		return 0

	failures, failed, attempted = check(outputs, phase_errors, read_expected(args.workload))
	units = workload.units if workload.units is not None else len(outputs)
	record = {
		"wall_s": wall,
		"ops": attempted,
		"units": units,
		"latencies_s": latencies,
		"failed": failed,
		"failures": failures[:10],
		"digest": hashlib.sha256("".join(
			"%s %s\n" % (op_id, d) for op_id, d, _ok, _error in outputs).encode()).hexdigest(),
		# ru_maxrss is in KiB on Linux
		"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
	}
	if args.trace:
		record["trace"] = tr.snapshot()
		record["trace"]["unwrapped"] = unwrapped
	print(json.dumps(record), flush=True)
	return 0


if __name__ == "__main__":
	sys.exit(main())
