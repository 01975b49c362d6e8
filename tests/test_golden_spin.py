"""Golden corpus for the spin predictions and the abacus tags.

golden_spin.json holds two tables.  "predict-spin" maps one key per
(h, core, weight, source, format) to the sha256 of `barfock predict-spin`'s
stdout, for every weight-1 and weight-2 block with a core of at most
SPIN_CORES nodes at h in SPIN_H, both sources and all three formats.
"tags" maps each weight-2 block with a core of at most TAG_CORES nodes at
h in TAG_H to one "partition tag" line per member, in block order, the
tag being abacus_notation's text.

Re-record (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden_spin.py
"""

import contextlib
import hashlib
import io
import json
import os

import barfock.abacus as ab
import barfock.cli as cli
import barfock.partitions as pt

SPIN_H, SPIN_CORES = (3, 5, 7), 6
TAG_H, TAG_CORES = (5, 7), 6
SOURCES = ("oracle", "formula")
FORMATS = ("json", "csv", "table")
PATH = os.path.join(os.path.dirname(__file__), "golden_spin.json")


def _blocks(hs, weights, cap):
	for h in hs:
		for weight in weights:
			for core in pt.enumerate_cores(h, cap):
				yield pt.BlockId(h, core, weight)


def _block_key(block):
	return "%d %s %d" % (block.h, pt.partition_str(block.core), block.weight)


def spin_digests():
	out = {}
	for block in _blocks(SPIN_H, (1, 2), SPIN_CORES):
		for source in SOURCES:
			for form in FORMATS:
				buf = io.StringIO()
				with contextlib.redirect_stdout(buf):
					code = cli.main(["predict-spin", "--h", str(block.h),
						"--core", pt.partition_str(block.core),
						"--weight", str(block.weight),
						"--source", source, "--format", form])
				assert code == 0, (block, source, form)
				key = "%s %s %s" % (_block_key(block), source, form)
				out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
	return out


def tag_lines():
	return {_block_key(block): ["%s %s" % (pt.partition_str(lam),
			ab.abacus_notation(lam, block)) for lam in pt.enumerate_block(block)]
		for block in _blocks(TAG_H, (2,), TAG_CORES)}


def _golden():
	with open(PATH) as f:
		return json.load(f)


def test_predict_spin_bytes():
	want = _golden()["predict-spin"]
	got = spin_digests()
	assert sorted(got) == sorted(want)
	for key in sorted(got):
		assert got[key] == want[key], key


def test_abacus_tags():
	assert tag_lines() == _golden()["tags"]


if __name__ == "__main__":
	with open(PATH, "w") as f:
		json.dump({"predict-spin": spin_digests(), "tags": tag_lines()},
			f, indent=1, sort_keys=True)
		f.write("\n")
