"""Source rules that no other test reaches."""

import ast
import glob
import inspect
import os

import barfock
import barfock.canonical
import barfock.fock


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


# the packed (lo, p) form of a Laurent value: only laurent builds, reads
# or sizes the digits
PACKED = {"_make", "_pack", "_unpack", "_B", "_HALF"}


def packed_names(source):
	"""The PACKED names a module reads, imports or defines, as a name, an
	attribute or an imported alias."""
	found = set()
	for node in ast.walk(ast.parse(source)):
		if isinstance(node, ast.Name):
			found.add(node.id)
		elif isinstance(node, ast.Attribute):
			found.add(node.attr)
		elif isinstance(node, ast.alias):
			found.update({node.name, node.asname})
		elif isinstance(node, ast.FunctionDef):
			found.add(node.name)
	return found & PACKED


def test_packed_scan_sees_every_kind_of_use():
	planted = (
		"from .laurent import _make\n"
		"from . import laurent as L\n"
		"import barfock.laurent\n"
		"def f(c):\n"
		"\treturn L._pack({0: 1}), barfock.laurent._unpack(c.p)\n"
		"def g(c):\n"
		"\treturn c.p << _B, '_HALF', c.lo\n")
	assert packed_names(planted) == {"_make", "_pack", "_unpack", "_B"}
	assert packed_names("from .laurent import _HALF as half\n") == {"_HALF"}


def test_only_laurent_touches_the_packed_form():
	# fock and canonical accumulate through laurent.add_product and read
	# only the public lo and p; the digits' width and builders stay in
	# laurent, so the exactness bounds there hold for every value
	pkg = os.path.dirname(os.path.abspath(barfock.__file__))
	paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
	found = []
	for path in paths:
		with open(path, encoding="utf-8") as f:
			names = packed_names(f.read())
		if os.path.basename(path) == "laurent.py":
			assert names == PACKED  # the rule names what laurent has
		else:
			found += ["%s: %s" % (os.path.basename(path), name) for name in sorted(names)]
	assert found == []


# output formats and the stream belong to cli: its _print_matrix is the
# one printer of a matrix, and the other modules hand it data
PRINTER = {"csv", "io", "json", "sys.stdout"}


def printer_uses(source):
	"""The PRINTER names a module uses: csv, io or json imported (whole,
	in part or from), and sys.stdout read or imported."""
	found = set()
	for node in ast.walk(ast.parse(source)):
		if isinstance(node, ast.Import):
			found.update(alias.name.split(".")[0] for alias in node.names)
		elif isinstance(node, ast.ImportFrom) and node.level == 0:
			found.add(node.module.split(".")[0])
			found.update(node.module + "." + alias.name for alias in node.names)
		elif isinstance(node, ast.Attribute) and node.attr == "stdout" \
				and isinstance(node.value, ast.Name) and node.value.id == "sys":
			found.add("sys.stdout")
	return found & PRINTER


def test_printer_scan_sees_every_kind_of_use():
	planted = (
		"import csv\n"
		"import io as stream\n"
		"from json import dumps\n"
		"from . import io_helpers\n"
		"import sys\n"
		"def f(x):\n"
		"\tsys.stdout.write(x)\n"
		"\treturn sys.stderr, 'csv', x.stdout\n")
	assert printer_uses(planted) == {"csv", "io", "json", "sys.stdout"}
	assert printer_uses("from sys import stdout as out\n") == {"sys.stdout"}
	assert printer_uses("import json.decoder, csvkit\n") == {"json"}
	assert printer_uses("from .io import x\nimport sys\nsys.stderr\n") == set()


def test_only_cli_prints():
	# canonical and the other library modules offer data views; which
	# format a matrix prints in, and where it goes, is decided in cli
	found = ["%s: %s" % pair for pair in _scan_package(printer_uses)
		if pair[0] != "cli"]
	assert found == []


def _called_name(func):
	"""The name a call's callee is read by: the attribute, or the name."""
	return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def fock_vector_calls(source):
	"""The lines where a module calls FockVector(...), named as a name or
	as an attribute."""
	return {node.lineno for node in ast.walk(ast.parse(source))
		if isinstance(node, ast.Call) and _called_name(node.func) == "FockVector"}


def test_fock_vector_scan_sees_every_kind_of_call():
	planted = (
		"from .fock import FockVector\n"
		"from . import fock as F\n"
		"def f(h, lam):\n"
		"\treturn FockVector(h, {lam: 1})\n"
		"def g(h, terms):\n"
		"\treturn F.FockVector(h, terms), F.FockVector.wrap(h, terms)\n"
		"def k(h):\n"
		"\treturn FockVector.basis(h, ()), 'FockVector(h)', FockVector\n")
	assert fock_vector_calls(planted) == {4, 6}


def test_library_vectors_come_from_wrap():
	# the checking constructor is for input from outside: within src/ only
	# FockVector.basis calls it, as cls; the library's own vectors, whose
	# terms it made zero-free and keyed by h-strict tuples, are wrapped
	assert ["%s:%d" % pair for pair in _scan_package(fock_vector_calls)] == []
	tree = ast.parse(inspect.getsource(barfock.fock.FockVector))
	callers = [fn.name for fn in tree.body[0].body if isinstance(fn, ast.FunctionDef)
		and any(isinstance(node, ast.Call) and _called_name(node.func) == "cls"
			for node in ast.walk(fn))]
	assert callers == ["basis"]


MUTATORS = {"setdefault", "update", "append", "extend", "insert", "add",
	"pop", "popitem", "clear", "remove", "discard"}
CACHES = {"lru_cache", "cache"}


def _decorator_name(node):
	node = node.func if isinstance(node, ast.Call) else node
	return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _cached_functions(tree):
	return {node.name for node in tree.body
		if isinstance(node, ast.FunctionDef)
		and any(_decorator_name(dec) in CACHES for dec in node.decorator_list)}


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
	found = _cached_functions(tree)
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


def uncached_tables(source):
	"""The tables of module_tables that are not a cache-decorated function."""
	return module_tables(source) - _cached_functions(ast.parse(source))


def _scan_package(scan):
	"""scan over every module of the package, as (module, name) pairs."""
	pkg = os.path.dirname(os.path.abspath(barfock.__file__))
	found = []
	for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
		with open(path, encoding="utf-8") as f:
			found += [(os.path.basename(path)[:-3], name) for name in sorted(scan(f.read()))]
	return found


def test_canonical_docstring_lists_every_table():
	# the canonical docstring promises the full list of process-wide
	# tables; a table added anywhere in the package must join it
	doc = barfock.canonical.__doc__
	found = [name if mod == "canonical" else "%s.%s" % (mod, name)
		for mod, name in _scan_package(module_tables)]
	assert found
	assert [name for name in found if "`%s`" % name not in doc] == []


# The one process-wide table that is not a functools cache, and why.
NOT_A_CACHE = {
	"canonical._CACHE": "bench/tracer.py's cache probe reads it; ROADMAP item 4 "
		"removes it",
}


def test_table_policy_scan_sees_a_dict_memo():
	planted = (
		"import functools\n"
		"from functools import lru_cache\n"
		"_MEMO = {}\n"
		"def f(k):\n"
		"\tif k not in _MEMO:\n"
		"\t\t_MEMO[k] = k\n"
		"\treturn _MEMO[k]\n"
		"@functools.cache\n"
		"def g(k):\n"
		"\treturn k\n"
		"@lru_cache(maxsize=4)\n"
		"def h(k):\n"
		"\treturn k\n")
	assert module_tables(planted) == {"_MEMO", "g", "h"}
	assert uncached_tables(planted) == {"_MEMO"}


def test_every_table_is_a_functools_cache():
	# one cache policy: a table holds its key, bound and reset in the
	# functools cache on the function that builds its entries
	found = ["%s.%s" % pair for pair in _scan_package(uncached_tables)]
	assert found == sorted(NOT_A_CACHE)


# Helpers that only tests call but that stay, each for the fact its test
# states.  canonical.peel_word and fock.monomial_apply need no entry: the
# bench tracer names them as strings.
TEST_ONLY = {
	"Laurent.bar": "the bar involution, which test_bar_invariance applies to the "
		"e/f structure constants in the canonical basis",
	"FockVector.scale": "the divided-power identity f_i^k = [k]_i! f_i^(k)",
	"exceptional_triples": "the paper's exceptional triples of a linked pair",
	"remove_h_bar_all": "the paper's h-bar removal; bar_core, add_h_bar_all "
		"and the bar values _block_members records are checked against it",
}


def _references(node):
	"""How often each name is read below node: as a name, an attribute or
	a string constant equal to it (the bench tracer names its targets so)."""
	counts = {}
	for n in ast.walk(node):
		if isinstance(n, ast.Name):
			key = n.id
		elif isinstance(n, ast.Attribute):
			key = n.attr
		elif isinstance(n, ast.Constant) and isinstance(n.value, str):
			key = n.value
		else:
			continue
		counts[key] = counts.get(key, 0) + 1
	return counts


def unreferenced(defining, referencing):
	"""Top-level functions and non-dunder methods of the `defining`
	sources that nothing in either list reads outside their own body, as
	qualified names."""
	trees = [ast.parse(source) for source in defining]
	total = {}
	for tree in trees + [ast.parse(source) for source in referencing]:
		for key, count in _references(tree).items():
			total[key] = total.get(key, 0) + count
	found = []
	for tree in trees:
		for node in tree.body:
			members = [("", node)]
			if isinstance(node, ast.ClassDef):
				members = [(node.name + ".", m) for m in node.body]
			for prefix, fn in members:
				if not isinstance(fn, ast.FunctionDef) or \
						(fn.name.startswith("__") and fn.name.endswith("__")):
					continue
				if total.get(fn.name, 0) == _references(fn).get(fn.name, 0):
					found.append(prefix + fn.name)
	return sorted(found)


def test_reference_scan_sees_every_kind_of_use():
	defining = (
		"def called():\n\treturn 1\n"
		"def unused():\n\treturn called()\n"
		"def recursive(k):\n\treturn recursive(k - 1) if k else 0\n"
		"def named():\n\treturn 0\n"
		"class K:\n"
		"\tdef __eq__(self, other):\n\t\treturn True\n"
		"\tdef read(self):\n\t\treturn 0\n"
		"\tdef only_test(self):\n\t\treturn self\n")
	referencing = "import m\nm.K().read()\nTRACED = [(m, 'named')]\n"
	assert unreferenced([defining], [referencing]) == \
		["K.only_test", "recursive", "unused"]


def test_no_helper_only_tests_call():
	# src and bench are the callers that count; a helper that only a test
	# reads goes, unless TEST_ONLY gives the paper fact its test states
	pkg = os.path.dirname(os.path.abspath(barfock.__file__))
	bench = os.path.join(os.path.dirname(os.path.dirname(pkg)), "bench")
	src_paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
	bench_paths = sorted(glob.glob(os.path.join(bench, "*.py")))
	assert src_paths and bench_paths

	def read(path):
		with open(path, encoding="utf-8") as f:
			return f.read()

	found = unreferenced([read(p) for p in src_paths], [read(p) for p in bench_paths])
	assert [name for name in found if name not in TEST_ONLY] == []
	assert sorted(TEST_ONLY) == [name for name in found if name in TEST_ONLY]
