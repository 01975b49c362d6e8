"""Golden corpus: the canonical-basis matrices of the weight-3 and weight-4
blocks, pinned by sha256.

One hash per block and peel policy, of the matrix's canonical JSON (keys
sorted, no whitespace), recorded from the vacuum-monomial oracle that the
recursive one replaced.  Weight <= 2 is pinned by the formula-vs-oracle
sweeps; these blocks are beyond the closed formulas.
"""

import hashlib
import json
import os

import pytest

import barfock.canonical as cb
import barfock.partitions as pt

# (h, weight) -> largest core size; every core up to it is covered
CORPUS = {(3, 3): 6, (5, 3): 6, (7, 3): 6, (3, 4): 6, (5, 4): 6}
POLICIES = ("smallest", "largest")

with open(os.path.join(os.path.dirname(__file__), "golden_cb.json")) as f:
	GOLDEN = json.load(f)


def corpus(h, weight):
	"""(key, block, policy) for every corpus entry of one (h, weight)."""
	for core in pt.enumerate_cores(h, CORPUS[(h, weight)]):
		block = pt.BlockId(h, core, weight)
		for policy in POLICIES:
			key = "%d %s %d %s" % (h, pt.partition_str(core), weight, policy)
			yield key, block, policy


def test_corpus_is_complete():
	keys = [key for hw in CORPUS for key, _, _ in corpus(*hw)]
	assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("h,weight", sorted(CORPUS))
def test_golden_digests(h, weight):
	for key, block, policy in corpus(h, weight):
		obj = cb.canonical_basis(block, policy).to_json_obj()
		text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
		assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key], key
