"""Canonical basis of the Fock space, by the Lascoux-Leclerc-Thibon recursion.

For each restricted mu, string_top removes all normal i-nodes for the
first residue that has any, leaving a restricted nu one i-string lower.
It moves the nodes, as psi does, by partitions.move_nodes, the package's
one node-move rule, which fock's operators also use.
The divided power f_i^(k) applied to the already-computed G(nu) gives a
bar-invariant A(mu) whose coefficient at mu is 1 modulo q, and one
ascending lex pass straightens it: wherever a coefficient at lam != mu
fails to lie in qZ[q], subtract the bar-symmetric multiple of G(lam).
Everything that theory promises along the way is checked, not assumed,
and the checks raise InvariantError, so they survive `python -O`.

The canonical basis is unique, so finished columns live in one store per
h, shared by every block the oracle builds: each G(mu) is built and
checked once per process.  A call that fails takes its unfinished columns
back out of the store.  A column is built in a dict and, once finished,
frozen into a Column: its partitions lex ascending and their
coefficients, as two tuples.

Every process-wide table is a `functools` cache on the function that
builds its entries, which holds its key, bound and reset; the exception
is `_CACHE`, a plain dict that bench/tracer.py's cache probe reads:
- `fock._image`: f/e images by (lam, i, k, h, direction); the one LRU
  cache, of `fock.IMAGE_CACHE_SIZE` entries;
- `fock._partitions`: by h, the partition table, one record per
  partition: the tuple object every image and column holds, its h-content
  and its prefix sums, which the oracle's per-term checks read; and one
  tuple per distinct h-content.  Unbounded, one record per partition an
  image, the vacuum or a target column reaches (35,770 at h=7 w=8);
- `fock._coefficient`: by (exponent, bar factors); unbounded (105 at h=7 w=8);
- `_store`: columns and interned coefficients by h; unbounded, one
  column per restricted partition the process reaches.  A column is a
  zero-free Column keyed by `fock._partitions(h)`'s objects; coefficients
  are interned by their packed (lo, p) pair, and each is checked against
  `laurent.COEFF_BOUND` when it is first interned (see `laurent`);
- `_CACHE`: matrices by block; unbounded, views of `_store`;
- `partitions._block_members`: a block's members, lex ascending, each
  with the sorted values its bar removals record, by (h, core, weight);
  unbounded, one entry per block enumerated and per block of the same
  core at each lower weight, which it grows from; `formulas` reads a
  weight-1 chain and its bracket indices there, and checks the special
  partitions against a weight-2 block's members, and
  `abacus.bar_positions` reads a weight-2 member's pair there;
- `partitions._edge_table`: per (i, h), two tuples of h small counts; one
  entry per residue and h the process walks.
Nothing else in `src/` keeps state between calls.
"""

import heapq
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from functools import cache

from . import fock
from . import partitions as pt
from .laurent import COEFF_BOUND, ONE, ZERO, add_product, symmetric_correction


# ---------------------------------------------------------------------------
# i-signatures
# ---------------------------------------------------------------------------

_SHARED = "addable and removable %d-nodes share a column on %s"
_PAST_END = (0, float("inf"))  # a - right of every column, which _signature merges last


def _signature(lam, i, h):
	"""Normal and conormal i-nodes of lam, as two lists of (row, col)
	ascending by column.

	The i-signature lists the addable (+) and removable (-) i-nodes in
	ascending column order; cancelling adjacent +- pairs, stack style,
	leaves some -'s followed by some +'s, the normal and conormal nodes.
	Both node sets come column-ascending, so one two-pointer merge reads
	the signature off them.  No two nodes share a column; that is
	load-bearing for the reduction and checked: merged columns must rise
	strictly, which also catches a walk out of order.
	"""
	add = pt.addable_i_nodes(lam, i, h)
	rem = pt.removable_i_nodes(lam, i, h)
	if len(add) + len(rem) < 2:  # nothing to cancel, no column to share
		return rem, add
	normal, conormal = [], []  # conormal: the +'s nothing has cancelled yet
	last = 0  # columns start at 1
	pluses = iter(add)
	plus = next(pluses, None)
	for minus in rem + [_PAST_END]:  # the sentinel lets every + left through
		c = minus[1]
		while plus and plus[1] < c:
			if plus[1] <= last:
				pt.require(False, _SHARED, i, lam)
			last = plus[1]
			conormal.append(plus)
			plus = next(pluses, None)
		if minus is _PAST_END:
			break
		if c <= last:
			pt.require(False, _SHARED, i, lam)
		last = c
		if conormal:
			conormal.pop()
		else:
			normal.append(minus)
	return normal, conormal


def normal_nodes(lam, i, h):
	"""Surviving removable nodes, as (row, col) ascending by column."""
	return _signature(lam, i, h)[0]


def psi(lam, i, h):
	"""The signature involution: flip the surviving +/- imbalance."""
	norm, conorm = _signature(lam, i, h)
	r, s = len(norm), len(conorm)
	if s == r:  # balanced: psi fixes lam
		return tuple(lam)
	if s > r:
		mu = pt.move_nodes(lam, conorm[: s - r], h, 1)
	else:
		mu = pt.move_nodes(lam, norm[s - r:], h, -1)
	pt.require(mu is not None, "psi_%d: the unmatched nodes of %s do not move "
		"contiguously to an h-strict partition", i, lam)
	return mu


# ---------------------------------------------------------------------------
# peeling and the oracle
# ---------------------------------------------------------------------------

def string_top(mu, h):
	"""Remove all normal i-nodes for the least residue i that has any.

	Returns (nu, i, k); the result must stay restricted.
	"""
	pt.require(mu, "nothing to peel")
	for i in range(pt.n_of(h) + 1):
		norm = normal_nodes(mu, i, h)
		if norm:
			nu = pt.move_nodes(mu, norm, h, -1)
			pt.require(nu is not None, "peel step: the normal %d-nodes of %s do not "
				"move contiguously to an h-strict partition", i, mu)
			pt.require(pt.is_restricted(nu, h),
				"peel step left the restricted world: %s -> %s", mu, nu)
			return nu, i, len(norm)
	raise pt.InvariantError("nonempty restricted partition with no normal nodes: %s"
		% pt.partition_str(mu))


def peel_word(mu, h):
	"""The divided-power word rebuilding mu from the vacuum, first letter
	applied first."""
	if not pt.is_restricted(mu, h):
		raise ValueError("only restricted partitions can be peeled: %s"
			% pt.partition_str(mu))
	word = []
	nu = mu
	while nu:
		nu, i, k = string_top(nu, h)
		word.append((i, k))
	word.reverse()
	return word


class Column(Mapping):
	"""A finished sparse column: its partitions lex ascending and their
	coefficients, as two tuples.  A read-only Mapping lam -> coefficient;
	it equals the dict with the same items, and get finds every entry by
	bisection."""

	__slots__ = ("lams", "coeffs")

	def __init__(self, lams, coeffs):
		self.lams = lams
		self.coeffs = coeffs

	@classmethod
	def of(cls, terms):
		"""The frozen copy of a {lam: coefficient} dict."""
		lams = tuple(sorted(terms))
		return cls(lams, tuple(map(terms.__getitem__, lams)))

	def __len__(self):
		return len(self.lams)

	def __iter__(self):
		return iter(self.lams)

	def values(self):
		return self.coeffs

	def items(self):
		return zip(self.lams, self.coeffs)

	def get(self, lam, default=None):
		j = bisect_left(self.lams, lam)
		if j < len(self.lams) and self.lams[j] == lam:
			return self.coeffs[j]
		return default

	def __getitem__(self, lam):
		c = self.get(lam)
		if c is None:
			raise KeyError(lam)
		return c

	def __eq__(self, other):
		if isinstance(other, Column):
			return self.lams == other.lams and self.coeffs == other.coeffs
		if isinstance(other, dict):
			return len(other) == len(self.lams) and \
				all(other.get(lam) == c for lam, c in self.items())
		return NotImplemented

	def __repr__(self):
		return "Column(%r)" % dict(self.items())


class CanonicalBasisMatrix:
	"""Decomposition-number matrix of one block, held as sparse columns.

	Rows are all block members lex ascending, columns the restricted ones
	lex ascending; columns maps each mu, in that order, to the zero-free
	Column of G(mu).  A dict column is frozen on the way in; the oracle's
	columns are the store's own, so every matrix is compared and read
	through one column type, which column(mu) wraps.  Every dense reader
	goes through one row walk, dense_rows, which never holds the grid.
	"""

	__slots__ = ("block", "rows", "cols", "columns", "_members")

	def __init__(self, block, rows, columns):
		self.block = block
		self.rows = tuple(rows)
		self.cols = tuple(columns)
		self.columns = {mu: col if isinstance(col, Column) else Column.of(col)
			for mu, col in columns.items()}
		self._members = frozenset(self.rows)

	def _column(self, mu):
		try:
			return self.columns[tuple(mu)]
		except KeyError:
			raise ValueError("%s is not a column of %s"
				% (pt.partition_str(mu), self.block)) from None

	def entry(self, lam, mu):
		lam = tuple(lam)
		if lam not in self._members:
			raise ValueError("%s is not a row of %s" % (pt.partition_str(lam), self.block))
		return self._column(mu).get(lam, ZERO)

	def cells(self, lams, mu):
		"""entry(lam, mu) for each partition lam of lams in turn, lazily:
		column mu is read once, into a dict, at the first step."""
		col = dict(self._column(mu).items())
		for lam in lams:
			if lam not in self._members:
				raise ValueError("%s is not a row of %s" % (pt.partition_str(lam), self.block))
			yield col.get(lam, ZERO)

	def column(self, mu):
		return fock.FockVector.wrap(self.block.h, self._column(mu))

	def __eq__(self, other):
		return isinstance(other, CanonicalBasisMatrix) and \
			(self.block, self.rows, self.cols, self.columns) == \
			(other.block, other.rows, other.cols, other.columns)

	def dense_rows(self, render, zero):
		"""The dense matrix a row at a time, in `rows` order: a fresh list
		per row holding render(c) where a column holds c and `zero`
		elsewhere, each distinct c rendered once.  The walk is set up once
		from the sparse columns, in O(nonzeros): two flat arrays, row after
		row, of each nonzero cell's column index and the index of its
		rendered value, so no dense grid and no object per cell is held.
		to_json_obj, spin, and cli's printers and diff read it."""
		row_of = {lam: r for r, lam in enumerate(self.rows)}
		ends = array("I", [0]) * (len(self.rows) + 1)  # ends[r + 1]: cells in rows 0..r
		for column in self.columns.values():
			for lam in column:
				ends[row_of[lam] + 1] += 1
		for r in range(len(self.rows)):
			ends[r + 1] += ends[r]
		free = ends[:-1]  # each row's next free cell
		where = array("I", [0]) * ends[-1]
		which = array("I", [0]) * ends[-1]
		shown, ids = [], {}  # rendered values, and each one's index by coefficient
		for j, column in enumerate(self.columns.values()):
			for lam, c in column.items():
				r = row_of[lam]
				k = free[r]
				free[r] = k + 1
				i = ids.get(c)
				if i is None:
					i = ids[c] = len(shown)
					shown.append(render(c))
				where[k] = j
				which[k] = i
		del row_of, free, ids
		for r in range(len(self.rows)):
			row = [zero] * len(self.cols)
			a, b = ends[r], ends[r + 1]
			for j, i in zip(where[a:b], which[a:b]):
				row[j] = shown[i]
			yield row

	def json_head(self):
		"""to_json_obj without its entries: the block and the row and column
		labels."""
		return {
			"h": self.block.h,
			"core": pt.partition_str(self.block.core),
			"weight": self.block.weight,
			"rows": [pt.partition_str(r) for r in self.rows],
			"cols": [pt.partition_str(c) for c in self.cols],
		}

	def to_json_obj(self):
		obj = self.json_head()
		obj["entries"] = list(self.dense_rows(str, "0"))
		return obj


_CACHE = {}  # finished matrices, by block


@cache
def _store(h):
	"""h's columns by mu, from the vacuum on, and interned coefficients."""
	vacuum = fock._record((), h)[0]
	return {vacuum: Column((vacuum,), (ONE,))}, {}


def _column(mu, block):
	"""G(mu), read from h's store or built into it by the recursion and
	checks that canonical_basis states; block only names the call in the
	messages.  A column built here is left in the store as its placeholder
	None if a check below it raises; canonical_basis takes those out."""
	h = block.h
	G, coeffs = _store(h)  # coeffs: one object per distinct coefficient, by (lo, p)
	if mu in G:
		pt.require(G[mu] is not None,
			"%s: columns depend on each other in a cycle at %s", block, mu)
		return G[mu]
	mu, content, sums = fock._record(mu, h)
	G[mu] = None  # in progress
	nu, i, k = string_top(mu, h)
	# apply_f's result is a fresh dict: the column is built in it
	terms = fock.apply_f(fock.FockVector.wrap(h, _column(nu, block)), i, k).terms
	lead = terms.get(mu, ZERO)
	pt.require((lead - ONE).divisible_by_q(),
		"%s, column %s: f_%d^(%d) G%s is not unitriangular (lead %s)",
		block, mu, i, k, nu, lead)
	heap = sorted(terms)
	while heap:
		bad = heapq.heappop(heap)
		c = terms.get(bad)
		if bad == mu or c is None or c.lo >= 1:  # terms are zero-free
			continue
		pt.require(pt.is_restricted(bad, h),
			"%s, column %s: correction needed at non-restricted %s", block, mu, bad)
		minus_s = -symmetric_correction(c)
		correction = _column(bad, block)
		# a finished column is lex ascending: its first term is its least
		pt.require(correction.lams[0] >= bad, "%s, column %s: the correction "
			"G%s reaches below itself at %s", block, mu, bad, correction.lams[0])
		for lam, d in correction.items():
			if lam not in terms:
				heapq.heappush(heap, lam)
			e = add_product(terms.get(lam, ZERO), minus_s, d)
			if e.p:
				terms[lam] = e
			else:
				del terms[lam]
	pt.require(terms.get(mu) == ONE,
		"%s, column %s: leading coefficient is not 1", block, mu)
	known = fock._partitions(h)[0].get
	lams = tuple(sorted(terms))
	values = []
	for lam in lams:
		c = terms[lam]
		rec = known(lam) or fock._record(lam, h)
		pt.require(rec[1] == content,
			"%s, column %s: h-content differs at %s", block, mu, lam)
		if lam != mu:
			pt.require(c.lo >= 1,
				"%s, column %s: off-diagonal entry at %s not in qZ[q]", block, mu, lam)
			pt.require(pt.sums_dominate(rec[2], sums),
				"%s, column %s: support fails dominance at %s", block, mu, lam)
		key = c.lo, c.p
		kept = coeffs.get(key)
		if kept is None:
			kept = c.tight()  # its bound is its height, so bounds start afresh
			pt.require(kept.bound <= COEFF_BOUND,
				"%s, column %s: coefficient %s at %s exceeds the bound %d",
				block, mu, c, lam, COEFF_BOUND)
			coeffs[key] = kept
		values.append(kept)
	G[mu] = col = Column(lams, tuple(values))
	return col


def canonical_basis(block):
	"""The block's canonical-basis matrix, by memoised recursion on columns.

	G(()) is the vacuum.  For a restricted mu with (nu, i, k) =
	string_top(mu), A(mu) = f_i^(k) G(nu) is bar-invariant with
	coefficient 1 modulo q at mu; its support can reach lex below mu.
	That support is walked once in ascending lex order, and each position
	lam != mu whose coefficient c lies outside qZ[q] is fixed by
	subtracting symmetric_correction(c) * G(lam).  The lex-least dirty
	position is the right pivot: what is left to remove is a bar-invariant
	combination of canonical columns, and its lex-least dirty position is
	the lex-least column in that combination, with the whole multiplier as
	its coefficient.  The support of G(lam) is lex >= lam, so a correction
	never dirties a position already passed.

	G is the module's column store for h: every call reads it and adds
	the columns it builds, the G(nu) of smaller blocks that the recursion
	reaches included.  _column reads or builds one column, recursing on
	G(nu) and the corrections; this call enumerates the block, asks for
	its restricted columns lex descending, and assembles the matrix, so
	it keeps no state of its own.  The canonical basis is unique, so a column is the
	same whichever block asked for it, and each one is built and checked
	once.  Whether a column stays inside the block depends on the block,
	so that check runs on every target column when the matrix is
	assembled, stored columns included.  A column asked for while it is
	being computed is a dependency cycle and a hard error; its in-progress
	placeholder is None, and a call that raises removes its placeholders,
	so the store only ever holds fully checked columns.

	The per-term checks of a finished column read each term's record in
	fock's partition table, made once per process when an image first
	reaches the partition: its h-content, one tuple per distinct value, and
	its prefix sums.  Equal h-content means equal size, so
	once the content check passes, dominance compares prefix sums
	(partitions.sums_dominate).  Terms are zero-free, so the qZ[q] test is
	lo >= 1.  Coefficients are interned by (lo, p); the first time a value
	is met it is checked against COEFF_BOUND and kept as tight(), with its
	exact height as its carried bound.  Columns accumulate through
	laurent.add_product, which builds one value per sum, in a dict keyed
	by fock's partition table; the checks walk a finished column in lex
	order and freeze it into a Column of its interned coefficients.
	"""
	key = (block, "smallest")  # the key bench/tracer.py's cache probe builds
	if key in _CACHE:
		return _CACHE[key]
	h = block.h
	parts = pt.enumerate_block(block)
	restricted = [p for p in parts if pt.is_restricted(p, h)]
	G = _store(h)[0]
	try:
		for mu in sorted(restricted, reverse=True):
			_column(mu, block)
	except BaseException:
		for mu in [m for m, vec in G.items() if vec is None]:
			del G[mu]
		raise
	out = CanonicalBasisMatrix(block, parts, {mu: G[mu] for mu in restricted})
	for mu, col in out.columns.items():
		if not out._members.issuperset(col):
			leak = next(lam for lam in col if lam not in out._members)
			raise pt.InvariantError("%s, column %s: leaks outside the block at %s"
				% (block, pt.partition_str(mu), pt.partition_str(leak)))
	_CACHE[key] = out
	return out
