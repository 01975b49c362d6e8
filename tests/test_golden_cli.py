"""Golden corpus for the matrix output of `barfock cb` and `barfock formula`.

golden_cli.json maps one key per (h, core, weight, command, format) to the
sha256 of the subcommand's stdout, for every block of weight in
CLI_WEIGHTS with a core of at most CLI_CORES nodes at h in CLI_H: `cb` in
every format, and `formula --provenance` in the two formats that carry
provenance (table and json).

Re-record (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os

import barfock.canonical as cb
import barfock.cli as cli
import barfock.partitions as pt

CLI_H, CLI_WEIGHTS, CLI_CORES = (3, 5, 7), (0, 1, 2), 6
RUNS = (
	("cb", (), ("json", "csv", "table")),
	("formula", ("--provenance",), ("table", "json")),
)
PATH = os.path.join(os.path.dirname(__file__), "golden_cli.json")


def cli_digests():
	out = {}
	for h in CLI_H:
		for weight in CLI_WEIGHTS:
			for core in pt.enumerate_cores(h, CLI_CORES):
				for command, extra, formats in RUNS:
					for form in formats:
						buf = io.StringIO()
						with contextlib.redirect_stdout(buf):
							code = cli.main([command, "--h", str(h),
								"--core", pt.partition_str(core),
								"--weight", str(weight), "--format", form, *extra])
						assert code == 0, (command, h, core, weight, form)
						key = "%d %s %d %s %s" % (h, pt.partition_str(core), weight,
							command, form)
						out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
	return out


def test_cb_json_is_the_data_view():
	# the json writer streams its rows; it must print exactly the bytes of
	# the data view that the benchmark digests
	for h in CLI_H:
		for weight in CLI_WEIGHTS:
			for core in pt.enumerate_cores(h, CLI_CORES):
				buf = io.StringIO()
				with contextlib.redirect_stdout(buf):
					code = cli.main(["cb", "--h", str(h), "--core", pt.partition_str(core),
						"--weight", str(weight), "--format", "json"])
				mat = cb.canonical_basis(pt.BlockId(h, core, weight))
				assert code == 0
				assert buf.getvalue() == json.dumps(mat.to_json_obj(), indent=2) + "\n", \
					(h, core, weight)


def test_cli_matrix_bytes():
	with open(PATH) as f:
		want = json.load(f)
	got = cli_digests()
	assert len(got) == 390
	assert sorted(got) == sorted(want)
	for key in sorted(got):
		assert got[key] == want[key], key


if __name__ == "__main__":
	with open(PATH, "w") as f:
		json.dump(cli_digests(), f, indent=1, sort_keys=True)
		f.write("\n")
