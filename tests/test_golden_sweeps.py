"""One golden digest over the weight <= 2 sweeps: every block's members,
formula matrix and provenance labels.

golden_sweeps.json maps each sweep to the sha256 of one text that holds,
block after block in enumerate_cores order, the block, its members lex
ascending (enumerate_block), its formula matrix (to_json_obj) and its
labels, sorted.  The sweeps are the widest in-process `diff` sweeps:
- "w1": weight 1, h = 3, 5, ..., 15, cores up to size 40 (5,411 blocks);
- "w2": weight 2, h = 3, 5, ..., 15, cores up to size 30 (2,499 blocks).
They take several seconds each, so tier-1 does not run them.

Check both sweeps (exit 0 when every digest matches):
    PYTHONPATH=src python tests/test_golden_sweeps.py --slow

Re-record them (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden_sweeps.py --record
"""

import hashlib
import json
import os
import sys

import barfock.formulas as fm
import barfock.partitions as pt

PATH = os.path.join(os.path.dirname(__file__), "golden_sweeps.json")
HS = (3, 5, 7, 9, 11, 13, 15)
SWEEPS = {"w1": (1, 40), "w2": (2, 30)}  # name -> (weight, largest core size)


def sweep_digest(name):
	"""The sha256 of one sweep's blocks, members, matrices and labels, and
	the number of blocks it covers."""
	weight, cap = SWEEPS[name]
	sha = hashlib.sha256()
	blocks = 0
	for h in HS:
		for core in pt.enumerate_cores(h, cap):
			block = pt.BlockId(h, core, weight)
			mat, labels = fm.formula_matrix(block, with_labels=True)
			text = json.dumps({
				"block": str(block),
				"members": [pt.partition_str(lam) for lam in pt.enumerate_block(block)],
				"matrix": mat.to_json_obj(),
				"labels": [[pt.partition_str(lam), pt.partition_str(mu), lab]
					for (lam, mu), lab in sorted(labels.items())],
			}, sort_keys=True, separators=(",", ":"))
			sha.update(text.encode())
			sha.update(b"\n")
			blocks += 1
	return {"blocks": blocks, "sha256": sha.hexdigest()}


if __name__ == "__main__":
	if sys.argv[1:] == ["--record"]:
		with open(PATH, "w") as f:
			json.dump({name: sweep_digest(name) for name in SWEEPS}, f,
				indent=1, sort_keys=True)
			f.write("\n")
	elif sys.argv[1:] == ["--slow"]:
		with open(PATH) as f:
			want = json.load(f)
		bad = False
		for name in sorted(SWEEPS):
			got = sweep_digest(name)
			ok = got == want.get(name)
			bad = bad or not ok
			print("%s %s: %d blocks" % ("ok  " if ok else "FAIL", name, got["blocks"]))
		sys.exit(1 if bad or sorted(want) != sorted(SWEEPS) else 0)
	else:
		sys.exit("usage: test_golden_sweeps.py --slow | --record")
