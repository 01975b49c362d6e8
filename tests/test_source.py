"""Source rules that no other test reaches."""

import ast
import glob
import os

import barfock
import barfock.canonical


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


MUTATORS = {"setdefault", "update", "append", "extend", "insert", "add",
	"pop", "popitem", "clear", "remove", "discard"}
CACHES = {"lru_cache", "cache"}


def _decorator_name(node):
	node = node.func if isinstance(node, ast.Call) else node
	return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def module_tables(source):
	"""Module-level names that some statement subscript-assigns, deletes
	by subscript or mutates through a method, and module-level functions
	decorated with a cache."""
	tree = ast.parse(source)
	names = set()
	for node in tree.body:
		if isinstance(node, (ast.Assign, ast.AnnAssign)):
			targets = node.targets if isinstance(node, ast.Assign) else [node.target]
			names |= {n.id for t in targets for n in ast.walk(t)
				if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
	found = {node.name for node in tree.body
		if isinstance(node, ast.FunctionDef)
		and any(_decorator_name(dec) in CACHES for dec in node.decorator_list)}
	for node in ast.walk(tree):
		if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
			base = node.value
		elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
				and node.func.attr in MUTATORS):
			base = node.func.value
		else:
			continue
		if isinstance(base, ast.Name) and base.id in names:
			found.add(base.id)
	return found


def test_table_scan_sees_every_kind_of_table():
	planted = (
		"import functools\n"
		"A, B, C, D = {}, [], {}, 0\n"
		"def f(k):\n"
		"\tA[k] = 1\n"
		"\tB.append(k)\n"
		"\tlocal = {}\n"
		"\tlocal[k] = D\n"
		"\tdel C[k]\n"
		"@functools.lru_cache(maxsize=4)\n"
		"def g(k):\n"
		"\treturn k\n")
	assert module_tables(planted) == {"A", "B", "C", "g"}


def test_canonical_docstring_lists_every_table():
	# the canonical docstring promises the full list of process-wide
	# tables; a table added anywhere in the package must join it
	pkg = os.path.dirname(os.path.abspath(barfock.__file__))
	doc = barfock.canonical.__doc__
	found = []
	for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
		mod = os.path.basename(path)[:-3]
		with open(path, encoding="utf-8") as f:
			found += [name if mod == "canonical" else "%s.%s" % (mod, name)
				for name in sorted(module_tables(f.read()))]
	assert found
	assert [name for name in found if "`%s`" % name not in doc] == []
