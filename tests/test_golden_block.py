"""Golden corpus for `barfock block --core ... --weight ...`.

golden_block.json maps one key per (h, core, weight, format) to the sha256
of the subcommand's stdout, for every block of weight in BLOCK_WEIGHTS
with a core of at most BLOCK_CORES nodes at h in BLOCK_H (a corner of the
acceptance sweeps' blocks), in all three formats.

Re-record (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden_block.py
"""

import contextlib
import hashlib
import io
import json
import os

import barfock.cli as cli
import barfock.partitions as pt

BLOCK_H, BLOCK_WEIGHTS, BLOCK_CORES = (3, 5, 7), (1, 2), 6
FORMATS = ("json", "csv", "table")
PATH = os.path.join(os.path.dirname(__file__), "golden_block.json")


def block_digests():
	out = {}
	for h in BLOCK_H:
		for weight in BLOCK_WEIGHTS:
			for core in pt.enumerate_cores(h, BLOCK_CORES):
				for form in FORMATS:
					buf = io.StringIO()
					with contextlib.redirect_stdout(buf):
						code = cli.main(["block", "--h", str(h),
							"--core", pt.partition_str(core),
							"--weight", str(weight), "--format", form])
					assert code == 0, (h, core, weight, form)
					key = "%d %s %d %s" % (h, pt.partition_str(core), weight, form)
					out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
	return out


def test_block_bytes():
	with open(PATH) as f:
		want = json.load(f)
	got = block_digests()
	assert sorted(got) == sorted(want)
	for key in sorted(got):
		assert got[key] == want[key], key


if __name__ == "__main__":
	with open(PATH, "w") as f:
		json.dump(block_digests(), f, indent=1, sort_keys=True)
		f.write("\n")
