"""Command-line front end.

Subcommands: block, core, cb, formula, diff, verify-pair, predict-spin.
Everything is deterministic: identical invocations print identical bytes.
Exit codes: 0 success, 1 usage error, 2 a discrepancy or failed check was
found, 3 an internal assertion tripped, memory ran out (a cap set with
BARFOCK_MAX_MB, say) or recursion went too deep (`block --h 3 --size
4000`); the last two print one `error: ...` line on stderr, no
traceback.  A check or a bad value that fails inside `diff` names its
block (`h=5 core=(1) w=2: ...`), also when it fails in a --jobs worker.
A reader that closes stdout early (`barfock cb ... | head`) ends the run
quietly with exit 0.  `_print_matrix` is the one printer of a matrix
(`cb`, `formula`) and `_print_predictions` prints `predict-spin`; the
library modules hand them data and print nothing.  Both read the matrix
through its row walk (`dense_rows`) and write one row at a time in every
format, so neither holds a dense grid or the whole text: the oracle, not
the printer, sets a run's peak memory.
"""

import argparse
import csv
import json
import os
import sys

from . import abacus
from . import canonical
from . import fock
from . import formulas
from . import pairs
from . import partitions as pt
from . import spin
from .laurent import Laurent


class _Parser(argparse.ArgumentParser):
	def error(self, message):
		self.print_usage(sys.stderr)
		raise ValueError(message)


def _partition_arg(text):
	try:
		return pt.parse_partition(text)
	except ValueError as e:
		raise argparse.ArgumentTypeError(str(e))


def _h_list(text):
	try:
		hs = tuple(pt.check_h(int(tok)) for tok in text.split(","))
	except ValueError as e:
		raise argparse.ArgumentTypeError(str(e))
	if len(set(hs)) < len(hs):  # each of its blocks would run twice
		raise argparse.ArgumentTypeError("each h may be listed once, got %s" % text)
	return hs


def build_parser():
	top = _Parser(prog="barfock",
		description="h-strict partition blocks, canonical bases, and the "
		"closed formulas for small bar-weight")
	sub = top.add_subparsers(dest="command", required=True)

	def fmt(p, default="table"):
		p.add_argument("--format", choices=("table", "json", "csv"),
			default=default)

	p = sub.add_parser("block", help="list h-strict partitions by size or block")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--size", type=int)
	p.add_argument("--core", type=_partition_arg)
	p.add_argument("--weight", type=int)
	p.add_argument("--show-abacus", action="store_true")
	fmt(p)

	p = sub.add_parser("core", help="bar-core and bar-weight of a partition")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--partition", type=_partition_arg, required=True)
	p.add_argument("--show-abacus", action="store_true")
	fmt(p)

	p = sub.add_parser("cb", help="canonical-basis matrix of a block (oracle)")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--core", type=_partition_arg, required=True)
	p.add_argument("--weight", type=int, required=True)
	p.add_argument("--max-weight", type=int, default=3,
		help="safety cap on the block weight (default 3)")
	fmt(p)

	p = sub.add_parser("formula", help="closed-formula matrix (weight 0, 1 or 2)")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--core", type=_partition_arg, required=True)
	p.add_argument("--weight", type=int, required=True)
	p.add_argument("--provenance", action="store_true",
		help="annotate entries with the formula clause that produced them")
	fmt(p)

	p = sub.add_parser("diff", help="compare formula against oracle over all "
		"cores up to a size bound")
	p.add_argument("--h", type=_h_list, required=True,
		help="comma-separated list, e.g. 3,5,7")
	p.add_argument("--weight", type=int, required=True)
	p.add_argument("--max-core-size", type=int, required=True)
	p.add_argument("--jobs", type=int, default=1,
		help="worker processes, at most one per block and per usable CPU "
		"(default 1: no workers)")
	p.add_argument("--format", choices=("table", "json"), default="table")

	p = sub.add_parser("verify-pair", help="run all checks on one linked pair "
		"of blocks")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--source-core", type=_partition_arg, required=True)
	p.add_argument("--i", type=int, required=True)
	p.add_argument("--weight", type=int, default=2)
	p.add_argument("--max-weight", type=int, default=3)

	p = sub.add_parser("predict-spin", help="reduced decomposition-number "
		"predictions for a block's matrix")
	p.add_argument("--h", type=int, required=True)
	p.add_argument("--core", type=_partition_arg, required=True)
	p.add_argument("--weight", type=int, required=True)
	p.add_argument("--max-weight", type=int, default=3)
	p.add_argument("--source", choices=("oracle", "formula"), default="oracle")
	fmt(p)

	return top


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _emit(text):
	sys.stdout.write(text)
	if not text.endswith("\n"):
		sys.stdout.write("\n")


def _json(obj):
	return json.dumps(obj, indent=2)


def _json_members(obj):
	"""The members of json.dumps(obj, indent=2), its braces cut: lines at
	depth 1, ready to stand inside a larger object."""
	return _json(obj)[2:-2]


def _print_matrix(mat, form, labels=None):
	"""The one printer of a matrix, one write per row: json (the bytes of
	json.dumps(mat.to_json_obj(), indent=2), provenance after the entries),
	or a header of column labels over labelled rows, as csv or as a
	right-aligned table (zero "·", each column as wide as its label and
	its distinct values, labels listed below)."""
	if form == "csv" and labels is not None:
		raise ValueError("provenance labels are available with "
			"--format table or json")
	out = sys.stdout
	if form == "json":
		out.write("{\n" + _json_members(mat.json_head()) + ',\n  "entries": [')
		sep = "\n    "  # every block has a member and a restricted one
		for row in mat.dense_rows(lambda c: _json(str(c)), '"0"'):
			out.write(sep + "[\n      " + ",\n      ".join(row) + "\n    ]")
			sep = ",\n    "
		out.write("\n  ]")
		if labels is not None:
			out.write(",\n" + _json_members({"provenance": [
				[pt.partition_str(lam), pt.partition_str(mu), lab]
				for (lam, mu), lab in sorted(labels.items())]}))
		out.write("\n}\n")
		return
	if form == "csv":  # labels are made as they are written
		writer = csv.writer(out, lineterminator="\n")
		writer.writerow(["", *map(pt.partition_str, mat.cols)])
		for lam, row in zip(mat.rows, mat.dense_rows(str, "0")):
			writer.writerow([pt.partition_str(lam), *row])
		return
	cols = [pt.partition_str(mu) for mu in mat.cols]
	shown = {}  # each distinct coefficient rendered once
	widths = [max(len(pt.partition_str(lam)) for lam in mat.rows)]
	for label, mu in zip(cols, mat.cols):
		width = max(len(label), len("·"))
		for c in set(mat.columns[mu].values()):
			text = shown.get(c)
			if text is None:
				text = shown[c] = str(c)
			width = max(width, len(text))
		widths.append(width)
	out.write("  ".join(map(str.rjust, [""] + cols, widths)).rstrip() + "\n")
	for lam, row in zip(mat.rows, mat.dense_rows(shown.__getitem__, "·")):
		out.write("  ".join(map(str.rjust, [pt.partition_str(lam)] + row, widths))
			.rstrip() + "\n")
	if labels is not None:
		_emit("\nprovenance:")
		for (lam, mu), lab in sorted(labels.items()):
			_emit("  %s <- %s: %s" %
				(pt.partition_str(lam), pt.partition_str(mu), lab))


def _check_weight(weight, cap):
	if weight < 0:
		raise ValueError("negative weight")
	if weight > cap:
		raise ValueError("weight %d exceeds the cap %d (raise --max-weight "
			"if you mean it)" % (weight, cap))


def _check_formula_weight(weight):
	if weight not in (0, 1, 2):
		raise ValueError("formulas exist for weights 0, 1, 2")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_block(args):
	pt.check_h(args.h)
	if args.show_abacus and args.format != "table":
		raise ValueError("--show-abacus goes with --format table")
	if (args.size is None) == (args.core is None):
		raise ValueError("give exactly one of --size or --core/--weight")
	if args.size is not None:
		if args.weight is not None:
			raise ValueError("--weight goes with --core, not --size")
		if args.size < 0:
			raise ValueError("--size must be at least 0, got %d" % args.size)
		lams = pt.enumerate_h_strict(args.size, args.h)
		head = {"h": args.h, "size": args.size}
	else:
		if args.weight is None:
			raise ValueError("--core needs --weight")
		block = pt.BlockId(args.h, args.core, args.weight)
		lams = pt.enumerate_block(block)
		head = {"h": args.h, "core": pt.partition_str(block.core),
			"weight": block.weight}
	if args.format == "json":
		head["partitions"] = [pt.partition_str(x) for x in lams]
		_emit(_json(head))
		return 0
	if args.format == "csv":
		_emit("partition\n" + "".join(
			'"%s"\n' % pt.partition_str(x) for x in lams))
		return 0
	for x in lams:
		_emit(pt.partition_str(x))
		if args.show_abacus:
			_emit(abacus.from_partition(x, args.h).grid())
			_emit("")
	if not args.show_abacus:
		_emit("(%d partitions)" % len(lams))
	return 0


def cmd_core(args):
	h = pt.check_h(args.h)
	if args.show_abacus and args.format != "table":
		raise ValueError("--show-abacus goes with --format table")
	lam = args.partition
	core = pt.bar_core(lam, h)
	weight = pt.bar_weight(lam, h)
	if args.format == "json":
		_emit(_json({
			"h": h,
			"partition": pt.partition_str(lam),
			"core": pt.partition_str(core),
			"weight": weight,
		}))
		return 0
	if args.format == "csv":
		_emit('partition,core,weight\n"%s","%s",%d'
			% (pt.partition_str(lam), pt.partition_str(core), weight))
		return 0
	_emit("partition %s" % pt.partition_str(lam))
	_emit("core      %s" % pt.partition_str(core))
	_emit("weight    %d" % weight)
	if args.show_abacus:
		_emit("")
		_emit(abacus.from_partition(lam, h).grid())
	return 0


def cmd_cb(args):
	_check_weight(args.weight, args.max_weight)
	block = pt.BlockId(args.h, args.core, args.weight)
	mat = canonical.canonical_basis(block)
	_print_matrix(mat, args.format)
	return 0


def cmd_formula(args):
	_check_formula_weight(args.weight)
	block = pt.BlockId(args.h, args.core, args.weight)
	if args.provenance:
		mat, labels = formulas.formula_matrix(block, with_labels=True)
	else:
		mat, labels = formulas.formula_matrix(block), None
	_print_matrix(mat, args.format, labels)
	return 0


def _diff_one(job):
	h, core, weight = job
	block = pt.BlockId(h, core, weight)
	try:
		oracle = canonical.canonical_basis(block)
		formula = formulas.formula_matrix(block)
	except (AssertionError, ValueError) as e:
		# a worker's traceback stays in its process: name the block here
		text = str(e) if str(e).startswith(str(block)) else "%s: %s" % (block, e)
		kind = pt.InvariantError if isinstance(e, AssertionError) else ValueError
		raise kind(text) from e
	if oracle == formula:
		return (job, None)
	a, b = _cells(oracle), _cells(formula)
	# the shapes first: a cell that only one side has is `absent` on the other
	diff = sorted(a.keys() ^ b.keys()) or sorted(c for c in a if a[c] != b[c])
	if not diff:  # the two differ only in the order of rows or cols
		return (job, None)
	return (job, diff[0] + (a.get(diff[0], "absent"), b.get(diff[0], "absent")))


def _cells(mat):
	"""mat's entries as text, keyed by (row, column)."""
	return {(lam, mu): v for lam, row in zip(mat.rows, mat.dense_rows(str, "0"))
		for mu, v in zip(mat.cols, row)}


def cmd_diff(args):
	_check_formula_weight(args.weight)
	if args.jobs < 1:
		raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
	if args.max_core_size < 0:
		raise ValueError("--max-core-size must be at least 0, got %d" % args.max_core_size)
	jobs = []
	for h in args.h:
		for core in pt.enumerate_cores(h, args.max_core_size):
			jobs.append((h, core, args.weight))
	# the pool forks all its workers at once, and each one builds its own
	# column store: more workers than blocks or CPUs only add memory
	cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
		else os.cpu_count() or 1
	workers = min(args.jobs, len(jobs), cpus)
	if workers > 1:
		from concurrent.futures import ProcessPoolExecutor
		with ProcessPoolExecutor(max_workers=workers) as ex:
			results = list(ex.map(_diff_one, jobs))
	else:
		results = [_diff_one(j) for j in jobs]
	bad = [(j, d) for j, d in results if d is not None]
	if args.format == "json":
		_emit(_json({
			"weight": args.weight,
			"h": list(args.h),
			"max_core_size": args.max_core_size,
			"blocks": len(jobs),
			"agree": not bad,
			"discrepancies": [
				{"h": j[0], "core": pt.partition_str(j[1]),
					"lam": pt.partition_str(d[0]), "mu": pt.partition_str(d[1]),
					"oracle": d[2], "formula": d[3]}
				for j, d in bad
			],
		}))
	else:
		if bad:
			(h, core, _w), (lam, mu, a, b) = bad[0]
			_emit("DISCREPANCY h=%d core=%s at (%s, %s): oracle %s vs formula %s"
				% (h, pt.partition_str(core), pt.partition_str(lam),
					pt.partition_str(mu), a, b))
			_emit("(%d of %d blocks disagree)" % (len(bad), len(jobs)))
		else:
			_emit("all blocks agree (%d blocks, weight %d, h in %s, cores up to %d)"
				% (len(jobs), args.weight,
					",".join(str(h) for h in args.h), args.max_core_size))
	return 2 if bad else 0


def cmd_verify_pair(args):
	_check_weight(args.weight, args.max_weight)
	found = [d for d in pairs.detect_pairs(args.source_core, args.h)
		if d.i == args.i]
	if not found:
		pt.addable_i_nodes(args.source_core, args.i, args.h)  # names 0..n for a bad residue
		raise ValueError("%s has no addable %d-nodes, so no pair there"
			% (pt.partition_str(args.source_core), args.i))
	report = pairs.verify_pair(found[0], args.weight)
	_emit(_json(report.to_json_obj()))
	return 0 if report.ok else 2


def cmd_predict_spin(args):
	# --max-weight caps the oracle; the formulas stop at weight 2 by themselves
	if args.source == "oracle":
		_check_weight(args.weight, args.max_weight)
		build = canonical.canonical_basis
	else:
		_check_formula_weight(args.weight)
		build = formulas.formula_matrix
	block = pt.BlockId(args.h, args.core, args.weight)
	_print_predictions(build(block), args.source, args.format)
	return 0


def _print_predictions(mat, source, form):
	"""predict-spin's output, one write per row: a cell per entry, holding
	d(1) of the entry, x_h of its row and the prediction, as
	spin.predict_matrix reads them, with no record per cell.  x_h is
	computed once per row, d(1) once per distinct coefficient, and the
	text of a cell after its column label once per distinct (d(1), x_h)."""
	out = sys.stdout
	cols = [pt.partition_str(mu) for mu in mat.cols]  # row labels come one by one
	first = between = ""  # before the first cell, and before every other
	if form == "table":
		lead = "%%-%ds  " % max(len(pt.partition_str(lam)) for lam in mat.rows)
		cols = [c.ljust(max(map(len, cols))) for c in cols]
		tail, odd = "  d(1)=%d  x_h=%d  -> %d * 2^(%d/2)%s\n", ("", "  [odd half-power]")
	elif form == "csv":
		out.write("lam,mu,d_at_one,x_h,mantissa,half_power,half_power_odd\n")
		lead, cols = '"%s","', [c + '"' for c in cols]
		tail, odd = ",%d,%d,%d,%d,%s\n", ("false", "true")
	else:  # a partition's label needs no json escape
		out.write("{\n" + _json_members({"h": mat.block.h,
			"core": pt.partition_str(mat.block.core), "weight": mat.block.weight,
			"source": source}) + ',\n  "predictions": [')
		lead, cols = '{\n      "lam": "%s",\n      "mu": "', [c + '"' for c in cols]
		tail = (',\n      "d_at_one": %d,\n      "x_h": %d,\n      "mantissa": %d,'
			'\n      "half_power": %d,\n      "half_power_odd": %s\n    }')
		odd, first, between = ("false", "true"), "\n    ", ",\n    "
	tails = {}  # a cell's text after its column label, by (d(1), x_h)
	sep = first
	for lam, row in zip(mat.rows, mat.dense_rows(Laurent.eval_at_one, 0)):
		x = spin.x_h(lam, mat.block.h)
		start = lead % pt.partition_str(lam)
		parts = []
		for col, d in zip(cols, row):
			text = tails.get((d, x))
			if text is None:
				half = spin.half_power(d, x)
				text = tails[d, x] = tail % (d, x, d, half, odd[half % 2])
			parts += (sep, start, col, text)
			sep = between
		out.write("".join(parts))
	if form == "json":
		out.write("\n  ]\n}\n")


_COMMANDS = {
	"block": cmd_block,
	"core": cmd_core,
	"cb": cmd_cb,
	"formula": cmd_formula,
	"diff": cmd_diff,
	"verify-pair": cmd_verify_pair,
	"predict-spin": cmd_predict_spin,
}


def _apply_memory_cap():
	"""BARFOCK_MAX_MB caps the address space (soft+hard), if set."""
	raw = os.environ.get("BARFOCK_MAX_MB")
	if not raw:
		return
	try:
		import resource
		limit = int(raw) * 1024 * 1024
		resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
	except (ImportError, ValueError, OSError) as e:
		sys.stderr.write("warning: cannot apply BARFOCK_MAX_MB: %s\n" % e)


def main(argv=None):
	_apply_memory_cap()
	parser = build_parser()
	try:
		args = parser.parse_args(argv)
		code = _COMMANDS[args.command](args)
		sys.stdout.flush()
		return code
	except BrokenPipeError:
		# the reader has gone; later flushes (at exit, too) go nowhere
		os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
		return 0
	except ValueError as e:
		sys.stderr.write("error: %s\n" % e)
		return 1
	except AssertionError as e:
		sys.stderr.write("internal assertion failed: %s\n" % e)
		return 3
	except MemoryError:
		cap = os.environ.get("BARFOCK_MAX_MB")
		sys.stderr.write("error: out of memory%s\n"
			% (" under BARFOCK_MAX_MB=%s" % cap if cap else ""))
		return 3
	except RecursionError as e:
		sys.stderr.write("error: %s\n" % e)
		return 3


if __name__ == "__main__":
	sys.exit(main())
