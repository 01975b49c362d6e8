"""Source rules that no other test reaches."""

import ast
import glob
import os

import barfock


def test_no_assert_statements():
	# every check in the package raises InvariantError (partitions.require),
	# so it survives python -O; a bare assert would vanish there
	pkg = os.path.dirname(os.path.abspath(barfock.__file__))
	paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
	assert paths
	found = []
	for path in paths:
		with open(path, encoding="utf-8") as f:
			tree = ast.parse(f.read(), filename=path)
		found += ["%s:%d" % (os.path.basename(path), node.lineno)
			for node in ast.walk(tree) if isinstance(node, ast.Assert)]
	assert found == []
