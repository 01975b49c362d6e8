"""Outside-in spans around the public functions of each barfock layer.

The library is not edited: `install` rebinds each traced function to a
wrapper in every place the name is bound -- module attributes (including
names imported with `from x import y`), class attributes, and default
argument values captured when a function was defined.  A span is opened at
each wrapped call; while it is open the stack holds its name, start and
the time covered by its children, so a span's self time is its duration
minus its children's, and each closed duration is charged to its parent.
Closed spans are folded into per-name totals rather than kept one by one,
which keeps a million-call oracle run within a few megabytes.
"""

import inspect
import sys
import time

_clock = time.perf_counter


class Tracer:
	def __init__(self):
		self.enabled = False
		self.spans = {}      # span name -> [calls, total_s, self_s]
		self.counters = {}   # counter name -> int
		self.keys = {}       # span name -> set of distinct argument keys
		self._stack = []     # open spans: [name, start, child_s]

	def add(self, name, value):
		self.counters[name] = self.counters.get(name, 0) + value

	def wrap(self, span, fn, key=None, before=None, after=None):
		"""A wrapper timing fn as `span`.

		key(args) names the distinct input a call works on; before(args,
		kwargs) runs ahead of the call and its value is handed to
		after(args, result, value) once the call returns.
		"""
		stats = self.spans.setdefault(span, [0, 0.0, 0.0])
		if key is not None:
			seen = self.keys.setdefault(span, set())
		stack = self._stack

		def traced(*args, **kwargs):
			if not self.enabled:
				return fn(*args, **kwargs)
			if key is not None:
				seen.add(key(args))
			pre = before(args, kwargs) if before is not None else None
			frame = [span, _clock(), 0.0]
			stack.append(frame)
			try:
				result = fn(*args, **kwargs)
			finally:
				duration = _clock() - frame[1]
				stack.pop()
				if stack:
					stack[-1][2] += duration
				stats[0] += 1
				stats[1] += duration
				stats[2] += duration - frame[2]
			if after is not None:
				after(args, result, pre)
			return result

		traced.__wrapped__ = fn
		return traced

	def snapshot(self):
		"""Plain-data totals: spans, counters and distinct-key counts."""
		return {
			"spans": {k: list(v) for k, v in sorted(self.spans.items())},
			"counters": dict(sorted(self.counters.items())),
			"distinct": {k: len(v) for k, v in sorted(self.keys.items())},
		}


def _node_key(name):
	return lambda args: (name, tuple(args[0]), args[1], args[2])


def install(tracer):
	"""Wrap every traced barfock function; returns the names still bound
	to an unwrapped original anywhere in the package (empty on success)."""
	import barfock.abacus as abacus
	import barfock.canonical as canonical
	import barfock.cli as cli
	import barfock.fock as fock
	import barfock.formulas as formulas
	import barfock.laurent as laurent
	import barfock.pairs as pairs
	import barfock.partitions as partitions
	import barfock.spin as spin

	def terms(args, result, _pre):
		tracer.add("fock.apply_f.terms_in", len(args[0]))
		tracer.add("fock.apply_f.terms_out", len(result))

	def cache_probe(args, kwargs):
		policy = args[1] if len(args) > 1 else kwargs.get("peel_policy", "smallest")
		return (args[0], policy) in canonical._CACHE

	def cache_count(_args, result, hit):
		if hit:
			tracer.add("canonical.canonical_basis.cache_hits", 1)
		else:
			tracer.add("canonical.columns", len(result.cols))

	specs = [
		# (module, attribute, span name, options)
		(laurent, "symmetric_correction", "laurent.symmetric_correction", {}),
		(laurent, "exact_div", "laurent.exact_div", {}),
		(partitions, "addable_i_nodes", "partitions.node_sets",
			{"key": _node_key("addable")}),
		(partitions, "removable_i_nodes", "partitions.node_sets",
			{"key": _node_key("removable")}),
		(partitions, "enumerate_block", "partitions.enumerate_block",
			{"key": lambda args: args[0]}),
		(partitions, "enumerate_cores", "partitions.enumerate_cores", {}),
		(partitions, "bar_core", "partitions.bar_core", {}),
		(abacus, "from_partition", "abacus.from_partition", {}),
		(abacus, "core_via_abacus", "abacus.core_via_abacus", {}),
		(abacus, "bar_positions", "abacus.bar_positions", {}),
		(abacus, "abacus_notation", "abacus.abacus_notation", {}),
		(fock, "apply_f", "fock.apply_f", {"after": terms}),
		(fock, "apply_e", "fock.apply_e", {}),
		(fock, "monomial_apply", "fock.monomial_apply", {}),
		(canonical, "canonical_basis", "canonical.canonical_basis",
			{"before": cache_probe, "after": cache_count}),
		(canonical, "peel_word", "canonical.peel_word", {}),
		(canonical, "psi", "canonical.psi", {}),
		(formulas, "formula_matrix", "formulas.formula_matrix", {}),
		(formulas, "mu_plus", "formulas.mu_plus", {}),
		(formulas, "weight2_profile", "formulas.weight2_profile",
			{"key": lambda args: (args[1], tuple(args[0]))}),
		(pairs, "detect_pairs", "pairs.detect_pairs", {}),
		(pairs, "verify_pair", "pairs.verify_pair", {}),
		(spin, "predict_matrix", "spin.predict_matrix", {}),
		(cli, "main", "cli.main", {}),
	]
	methods = [
		# operators live on the class; the reflected forms are separate slots
		(laurent.Laurent, "__mul__", "laurent.mul"),
		(laurent.Laurent, "__rmul__", "laurent.mul"),
		(laurent.Laurent, "__add__", "laurent.add"),
		(laurent.Laurent, "__radd__", "laurent.add"),
	]

	originals = {}
	for module, attr, span, opts in specs:
		fn = getattr(module, attr)
		originals[id(fn)] = (fn, tracer.wrap(span, fn, **opts), span)
	for cls, attr, span in methods:
		fn = cls.__dict__[attr]
		wrapped = originals[id(fn)][1] if id(fn) in originals else tracer.wrap(span, fn)
		originals[id(fn)] = (fn, wrapped, span)
		setattr(cls, attr, wrapped)

	modules = [m for name, m in sorted(sys.modules.items())
		if name == "barfock" or name.startswith("barfock.")]
	functions = [f for m in modules for f in _functions_in(vars(m))]
	functions += [fn for fn, _, _ in originals.values()]
	for fn in functions:
		if fn.__defaults__:
			fn.__defaults__ = tuple(_swap(v, originals) for v in fn.__defaults__)
	for module in modules:
		namespace = vars(module)
		for name, value in list(namespace.items()):
			namespace[name] = _swap(value, originals)
	return _unwrapped(modules, functions, originals)


def _swap(value, originals):
	hit = originals.get(id(value))
	return hit[1] if hit is not None and hit[0] is value else value


def _functions_in(namespace):
	"""Functions bound in a namespace, and the methods of its classes."""
	for value in list(namespace.values()):
		if inspect.isfunction(value):
			yield value
		elif inspect.isclass(value):
			for member in vars(value).values():
				if inspect.isfunction(member):
					yield member


def _unwrapped(modules, functions, originals):
	"""Span names whose original function is still reachable by name."""
	values = []
	for module in modules:
		namespace = vars(module)
		values.extend(namespace.values())
		values.extend(m for v in namespace.values() if inspect.isclass(v)
			for m in vars(v).values())
	values.extend(d for fn in functions for d in fn.__defaults__ or ())
	return sorted({originals[id(v)][2] for v in values
		if id(v) in originals and originals[id(v)][0] is v})
