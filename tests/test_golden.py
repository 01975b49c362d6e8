"""Golden corpus: canonical-basis matrices pinned by sha256.

One hash per block and peel policy, of the matrix's canonical JSON (keys
sorted, no whitespace).  golden_cb.json holds the weight-3 and weight-4
blocks, beyond the closed formulas, recorded from the vacuum-monomial
oracle that the recursive one replaced.  golden_cb_sweep.json holds every
weight-1 and weight-2 block of the acceptance sweeps, recorded before the
Fock operator cached its images.

Re-record the sweep hashes (only when the matrices are meant to change):
    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

import barfock.canonical as cb
import barfock.partitions as pt

# (h, weight) -> largest core size; every core up to it is covered
CORPUS = {(3, 3): 6, (5, 3): 6, (7, 3): 6, (3, 4): 6, (5, 4): 6}
# the acceptance sweeps' bounds (tests/test_acceptance.py W1_CORES, W2_CORES)
SWEEP = {(3, 1): 15, (5, 1): 15, (7, 1): 15, (3, 2): 10, (5, 2): 10, (7, 2): 8}
POLICIES = ("smallest", "largest")
HERE = os.path.dirname(__file__)
SWEEP_PATH = os.path.join(HERE, "golden_cb_sweep.json")

GOLDEN = {}
for _name in ("golden_cb.json", "golden_cb_sweep.json"):
	with open(os.path.join(HERE, _name)) as f:
		GOLDEN.update(json.load(f))


def corpus(h, weight):
	"""(key, block, policy) for every corpus entry of one (h, weight)."""
	cap = {**CORPUS, **SWEEP}[(h, weight)]
	for core in pt.enumerate_cores(h, cap):
		block = pt.BlockId(h, core, weight)
		for policy in POLICIES:
			key = "%d %s %d %s" % (h, pt.partition_str(core), weight, policy)
			yield key, block, policy


def digest(block, policy):
	obj = cb.canonical_basis(block, policy).to_json_obj()
	text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
	return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_is_complete():
	keys = [key for hw in {**CORPUS, **SWEEP} for key, _, _ in corpus(*hw)]
	assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("h,weight", sorted({**CORPUS, **SWEEP}))
def test_golden_digests(h, weight):
	for key, block, policy in corpus(h, weight):
		assert digest(block, policy) == GOLDEN[key], key


if __name__ == "__main__":
	with open(SWEEP_PATH, "w") as f:
		json.dump({key: digest(block, policy) for hw in sorted(SWEEP)
			for key, block, policy in corpus(*hw)}, f, indent=1, sort_keys=True)
		f.write("\n")
