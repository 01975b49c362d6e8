"""Golden digests for the largest empty-core blocks, the oracle's frontier.

golden_frontier.json maps one key per (h, core, weight, command, format) to
the sha256 of the subcommand's stdout, in two sets:
- "tier1": `cb --format json` at h=3 w=10 and w=12, h=5 w=7 and w=8, and
  h=7 w=6 and w=7, a few seconds cold; tier-1 checks it.
- "slow": `cb` at h=7 w=8 in all three formats, `cb --format json` at h=3
  w=14, h=5 w=10 and h=7 w=9, and `predict-spin` at h=7 w=7 in all three
  formats; tier-1 does not run it.  It keeps every h's column store, so
  the check takes most of a minute and several hundred MiB.

Check the slow set (exit 0 when every digest matches):
    PYTHONPATH=src python tests/test_golden_frontier.py --slow

Re-record both sets (only when the output is meant to change):
    PYTHONPATH=src python tests/test_golden_frontier.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import barfock.cli as cli

PATH = os.path.join(os.path.dirname(__file__), "golden_frontier.json")
FORMATS = ("json", "csv", "table")
SETS = {
	"tier1": [(3, 10, "cb", "json"), (3, 12, "cb", "json"), (5, 7, "cb", "json"),
		(5, 8, "cb", "json"), (7, 6, "cb", "json"), (7, 7, "cb", "json")],
	"slow": [(7, 8, "cb", form) for form in FORMATS]
		+ [(3, 14, "cb", "json"), (5, 10, "cb", "json"), (7, 9, "cb", "json")]
		+ [(7, 7, "predict-spin", form) for form in FORMATS],
}


def _key(h, weight, command, form):
	return "%d () %d %s %s" % (h, weight, command, form)


def frontier_digests(name):
	"""The digests of one set, by key, each run in this process."""
	out = {}
	for h, weight, command, form in SETS[name]:
		buf = io.StringIO()
		with contextlib.redirect_stdout(buf):
			code = cli.main([command, "--h", str(h), "--core", "()",
				"--weight", str(weight), "--max-weight", str(weight), "--format", form])
		assert code == 0, (h, weight, command, form)
		out[_key(h, weight, command, form)] = \
			hashlib.sha256(buf.getvalue().encode()).hexdigest()
	return out


def _wanted(name):
	with open(PATH) as f:
		return json.load(f)[name]


def test_frontier_bytes():
	want = _wanted("tier1")
	got = frontier_digests("tier1")
	assert sorted(got) == sorted(want)
	for key in sorted(got):
		assert got[key] == want[key], key


if __name__ == "__main__":
	if sys.argv[1:] == ["--record"]:
		with open(PATH, "w") as f:
			json.dump({name: frontier_digests(name) for name in SETS}, f,
				indent=1, sort_keys=True)
			f.write("\n")
	elif sys.argv[1:] == ["--slow"]:
		want, got = _wanted("slow"), frontier_digests("slow")
		bad = [key for key in sorted(want) if got.get(key) != want[key]]
		for key in sorted(want):
			print("%s %s" % ("FAIL" if key in bad else "ok  ", key))
		sys.exit(1 if bad or sorted(got) != sorted(want) else 0)
	else:
		sys.exit("usage: test_golden_frontier.py --slow | --record")
