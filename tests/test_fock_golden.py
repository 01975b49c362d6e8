"""Golden f/e images: f_i^(k) and e_i^(k) on every small h-strict basis
vector, pinned by sha256.

One hash per h, of the canonical text of every image: each h-strict
partition up to BOUNDS[h] nodes, every residue i and every k <= 3, in both
directions.  The hashes were recorded from the separate raising and
lowering routines that the one parametrised operator replaced; the
canonical-basis corpus reaches only apply_f, so apply_e is pinned here.

Re-record (only when the operators are meant to change):
    PYTHONPATH=src python tests/test_fock_golden.py
"""

import hashlib
import json
import os

import pytest

import barfock.fock as fock
import barfock.partitions as pt

BOUNDS = {3: 15, 5: 18, 7: 20}
POWERS = (1, 2, 3)
PATH = os.path.join(os.path.dirname(__file__), "golden_fe.json")


def image_text(h):
	"""One line per (direction, partition, i, k): the image's str()."""
	lines = []
	for m in range(BOUNDS[h] + 1):
		for lam in pt.enumerate_h_strict(m, h):
			v = fock.FockVector.basis(h, lam)
			for i in range(pt.n_of(h) + 1):
				for k in POWERS:
					for name, op in (("f", fock.apply_f), ("e", fock.apply_e)):
						lines.append("%s %s %d %d: %s" % (
							name, pt.partition_str(lam), i, k, op(v, i, k)))
	return "\n".join(lines)


def digest(h):
	return hashlib.sha256(image_text(h).encode()).hexdigest()


@pytest.mark.parametrize("h", sorted(BOUNDS))
def test_fe_golden_digests(h):
	with open(PATH) as f:
		golden = json.load(f)
	assert digest(h) == golden[str(h)], h


if __name__ == "__main__":
	with open(PATH, "w") as f:
		json.dump({str(h): digest(h) for h in sorted(BOUNDS)}, f, indent=1, sort_keys=True)
		f.write("\n")
