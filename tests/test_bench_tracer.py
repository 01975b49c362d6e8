"""The benchmark's tracer still binds every name it wraps.

bench/tracer.py rebinds library functions by module attribute (node sets
through `partitions`, the oracle through `pairs` and `canonical`, ...) and
probes `canonical._CACHE`.  A rename in the library would only show up as a
failing `--trace 1` benchmark run; this test installs the tracer in a fresh
interpreter, so the rebinding leaves this process alone, and runs one
traced oracle call, which must pass through the wrapped Fock operator and
Laurent product.  It reads bench/ and changes nothing there.
"""

import os
import subprocess
import sys

import barfock

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
	os.path.abspath(barfock.__file__))))

SCRIPT = """
import sys
sys.path[:0] = [%r, %r]
import tracer
from barfock import canonical, partitions as pt

tr = tracer.Tracer()
assert tracer.install(tr) == [], tracer.install(tr)
tr.enabled = True
canonical.canonical_basis(pt.BlockId(5, (1,), 2))
canonical.canonical_basis(pt.BlockId(5, (1,), 2))
snap = tr.snapshot()
assert snap["spans"]["canonical.canonical_basis"][0] == 2, snap
assert snap["counters"]["canonical.canonical_basis.cache_hits"] == 1, snap
assert snap["spans"]["partitions.node_sets"][0] > 0, snap
# the cold call's hot path runs through the names the tracer wraps
assert snap["spans"]["fock.apply_f"][0] > 0, snap
assert snap["counters"]["fock.apply_f.terms_out"] > 0, snap
assert snap["spans"]["laurent.mul"][0] > 0, snap
print("ok")
"""


def test_tracer_installs_and_traces():
	script = SCRIPT % (os.path.join(ROOT, "bench"), os.path.join(ROOT, "src"))
	proc = subprocess.run([sys.executable, "-c", script],
		capture_output=True, text=True, timeout=120)
	assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
