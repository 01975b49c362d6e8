"""Golden corpus: canonical-basis matrices pinned by sha256.

One hash per block, of the matrix's canonical JSON (keys sorted, no
whitespace).  golden_cb.json holds the weight-3 and weight-4 blocks,
beyond the closed formulas, recorded from the vacuum-monomial oracle that
the recursive one replaced.  golden_cb_sweep.json holds every weight-1 and
weight-2 block of the acceptance sweeps, recorded before the Fock operator
cached its images.

golden_consumer.json pins the consumers of those sweeps: one hash per
weight-1/2 block of the closed-formula matrix with its provenance labels,
and one per (pair, weight) of the verify_pair report, for every pair
detected on the weight-2 cores, at weights 1 and 2.

golden_signature.json pins the signature layer: one hash per h over every
h-strict partition up to SIGNATURE_BOUNDS[h] nodes, of its bar-core and,
for every residue i, its addable, removable and normal i-nodes and its
psi_i image.

Re-record the sweep, consumer and signature hashes (only when the output is meant to
change):
    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

import barfock.canonical as cb
import barfock.formulas as fm
import barfock.pairs as pr
import barfock.partitions as pt

# (h, weight) -> largest core size; every core up to it is covered
CORPUS = {(3, 3): 6, (5, 3): 6, (7, 3): 6, (3, 4): 6, (5, 4): 6}
# the acceptance sweeps' bounds (tests/test_acceptance.py W1_CORES, W2_CORES)
SWEEP = {(3, 1): 15, (5, 1): 15, (7, 1): 15, (3, 2): 10, (5, 2): 10, (7, 2): 8}
# h -> largest partition size: the gate's MEMBER_BOUNDS, h=9 up to 30, and
# h=11 and 13 up to 38, past 2h, so repeated multiples of h are covered
SIGNATURE_BOUNDS = {3: 22, 5: 30, 7: 36, 9: 30, 11: 38, 13: 38}
HERE = os.path.dirname(__file__)
SWEEP_PATH = os.path.join(HERE, "golden_cb_sweep.json")
CONSUMER_PATH = os.path.join(HERE, "golden_consumer.json")
SIGNATURE_PATH = os.path.join(HERE, "golden_signature.json")

GOLDEN = {}
for _name in ("golden_cb.json", "golden_cb_sweep.json"):
	with open(os.path.join(HERE, _name)) as f:
		GOLDEN.update(json.load(f))


def corpus(h, weight):
	"""(key, block) for every corpus entry of one (h, weight)."""
	cap = {**CORPUS, **SWEEP}[(h, weight)]
	for core in pt.enumerate_cores(h, cap):
		yield "%d %s %d" % (h, pt.partition_str(core), weight), pt.BlockId(h, core, weight)


def _sha(obj):
	text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
	return hashlib.sha256(text.encode()).hexdigest()


def digest(block):
	return _sha(cb.canonical_basis(block).to_json_obj())


def consumer_digests(h, weight):
	"""key -> hash for the formula blocks of one SWEEP entry and, at weight
	2, for the pairs detected on its cores at weights 1 and 2."""
	out = {}
	for core in pt.enumerate_cores(h, SWEEP[(h, weight)]):
		mat, labels = fm.formula_matrix(pt.BlockId(h, core, weight), with_labels=True)
		out["formula %d %s %d" % (h, pt.partition_str(core), weight)] = _sha({
			"matrix": mat.to_json_obj(),
			"labels": [[pt.partition_str(lam), pt.partition_str(mu), lab]
				for (lam, mu), lab in sorted(labels.items())],
		})
		if weight != 2:
			continue
		for d in pr.detect_pairs(core, h):
			for w in (1, 2):
				key = "pair %d %s %d %d" % (h, pt.partition_str(core), d.i, w)
				out[key] = _sha(pr.verify_pair(d, w).to_json_obj())
	return out


def signature_text(h):
	"""One line per h-strict partition with its bar-core, and one per
	(partition, residue) with the node sets and the psi image."""
	lines = []
	for m in range(SIGNATURE_BOUNDS[h] + 1):
		for lam in pt.enumerate_h_strict(m, h):
			text = pt.partition_str(lam)
			lines.append("%s core %s" % (text, pt.partition_str(pt.bar_core(lam, h))))
			for i in range(pt.n_of(h) + 1):
				lines.append("%s %d: %r %r %r %s" % (text, i,
					pt.addable_i_nodes(lam, i, h), pt.removable_i_nodes(lam, i, h),
					cb.normal_nodes(lam, i, h), pt.partition_str(cb.psi(lam, i, h))))
	return "\n".join(lines)


def test_corpus_is_complete():
	keys = [key for hw in {**CORPUS, **SWEEP} for key, _ in corpus(*hw)]
	assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("h,weight", sorted({**CORPUS, **SWEEP}))
def test_golden_digests(h, weight):
	for key, block in corpus(h, weight):
		assert digest(block) == GOLDEN[key], key


def _sweep_entry(key):
	"""The SWEEP (h, weight) a consumer key belongs to."""
	kind, h, _core, *rest = key.split(" ")
	return int(h), int(rest[-1]) if kind == "formula" else 2


@pytest.mark.parametrize("h,weight", sorted(SWEEP))
def test_consumer_digests(h, weight):
	with open(CONSUMER_PATH) as f:
		want = {k: v for k, v in json.load(f).items()
			if _sweep_entry(k) == (h, weight)}
	got = consumer_digests(h, weight)
	assert sorted(got) == sorted(want)
	for key in sorted(got):
		assert got[key] == want[key], key


@pytest.mark.parametrize("h", sorted(SIGNATURE_BOUNDS))
def test_signature_digests(h):
	with open(SIGNATURE_PATH) as f:
		want = json.load(f)[str(h)]
	assert _sha(signature_text(h)) == want, h


def _record(path, table):
	with open(path, "w") as f:
		json.dump(table, f, indent=1, sort_keys=True)
		f.write("\n")


if __name__ == "__main__":
	_record(SWEEP_PATH, {key: digest(block) for hw in sorted(SWEEP)
		for key, block in corpus(*hw)})
	_record(CONSUMER_PATH, {key: val for hw in sorted(SWEEP)
		for key, val in consumer_digests(*hw).items()})
	_record(SIGNATURE_PATH, {str(h): _sha(signature_text(h))
		for h in sorted(SIGNATURE_BOUNDS)})
