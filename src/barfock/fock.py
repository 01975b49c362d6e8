"""Level-1 Fock space combinatorics: vectors, f/e operators.

Vectors are finite Z[q,q^-1]-combinations of h-strict partitions.  The
divided powers f_i^(k) and e_i^(k) act directly: f_i^(k) lam sums over the
mu obtained by adding k of lam's addable i-nodes, e_i^(k) lam over those
obtained by removing k of its removable ones: the targets are the
k-subsets of those nodes that partitions.move_nodes accepts.  Both read
the coefficient off lam's two i-node sets.  For each moved node, in
column c, count lam's i-nodes of the moving kind (addable for f,
removable for e) that did not move, minus its i-nodes of the other kind,
left of c for f and right of c for e.  With s the total, the coefficient
is q_i^s, where q_i = q, q^2, q^4 for i = 0, 0 < i < n, i = n.  For i = 0
each pair of columns {mh, mh+1} (m >= 1) of which only the outer one
moved (mh+1 for f, mh for e) contributes a further factor 1 - (-q^2)^b,
b the number of parts of lam equal to mh.  e is the mirror image of f:
negating the columns turns "right of c" into "left of c", so one routine
serves both.

Both operators are linear, so they act term by term: the image of one
partition, f_i^(k) lam or e_i^(k) lam as one flat tuple (mu, coefficient,
mu, coefficient, ...), is computed once per (lam, i, k, h, direction) and
kept in one LRU cache of IMAGE_CACHE_SIZE entries; a vector's image is the
sum of its terms' images scaled by their coefficients.  Overlapping
canonical-basis columns reach the same partitions again and again, within
a block and across blocks, and the cache is keyed by the whole input, so
every caller (the oracle on every block, the pair checks) shares it.
Sharing is safe because an image is immutable: a tuple of partitions and
Laurent values, and callers get a FockVector over a fresh dict built from
it.  Equal coefficients are one Laurent object, and each target is the
partition object of its record in _partitions(h), h's one partition table,
so the cached images, and the canonical-basis columns built from them, keep
each partition and each coefficient once.  A record also holds the
partition's h-content and prefix sums, which the canonical-basis oracle's
per-term checks read: they are computed once per partition per process.
The library's own vectors come from FockVector.wrap, which takes a clean
dict as it is; the checking constructor is for callers outside.
"""

from functools import cache, lru_cache
from itertools import combinations

from . import partitions as pt
from .laurent import Laurent, ONE, ZERO, add_product, q_power

# images kept by _image, the one bounded table: twice the 6,217 distinct
# images of the h=7 w=6 block.  Unbounded, one h=7 w=9 block misses 107,424
# times, not 324,476, in 20.6-21.3 s, not 23.5-26.5 s, at 211 MiB, not 215;
# but `diff --weight 2 --max-core-size 30 --h 3,5,...,15` (2,499 blocks)
# has the same 138,492 hits and 123,302 misses either way, in 23.1-27.0 s
# against 26.3-28.0 s, and peaks at 128.5 MiB, not 103.5: so it stays.
# (Times and MiB measured at commit 341a1ed.)
IMAGE_CACHE_SIZE = 1 << 14

_new = object.__new__


class FockVector:
	"""A finite combination of h-strict partitions over Z[q, q^-1]."""

	__slots__ = ("h", "terms")

	def __init__(self, h, terms=None):
		self.h = pt.check_h(h)
		tt = {}
		for lam, c in (terms or {}).items():
			lam = pt.check_partition(lam)
			if not pt.is_h_strict(lam, h):
				raise ValueError("%s is not %d-strict" % (pt.partition_str(lam), h))
			c = c if isinstance(c, Laurent) else Laurent(c)
			if c:
				tt[lam] = c
		self.terms = tt

	@classmethod
	def basis(cls, h, lam, coeff=1):
		return cls(h, {tuple(lam): coeff})

	@classmethod
	def wrap(cls, h, terms):
		"""A vector over terms, taken as it is: the library's own zero-free
		{partition tuple: Laurent} mappings (dicts, and the oracle's
		finished columns) skip the constructor's checks."""
		vec = _new(cls)
		vec.h = h
		vec.terms = terms
		return vec

	def support(self):
		"""Partitions with nonzero coefficient, lex ascending."""
		return sorted(self.terms)

	def __bool__(self):
		return bool(self.terms)

	def __len__(self):
		return len(self.terms)

	def __add__(self, other):
		pt.require(isinstance(other, FockVector) and other.h == self.h,
			"adding %r to a Fock vector of h=%d", other, self.h)
		tt = dict(self.terms)
		for lam, c in other.terms.items():
			tt[lam] = tt.get(lam, ZERO) + c
		return FockVector(self.h, tt)

	def scale(self, c):
		c = c if isinstance(c, Laurent) else Laurent(c)
		return FockVector(self.h, {lam: v * c for lam, v in self.terms.items()})

	def __eq__(self, other):
		return isinstance(other, FockVector) and \
			(self.h, self.terms) == (other.h, other.terms)

	def items(self):
		"""(partition, coefficient) pairs, lex ascending."""
		return [(lam, self.terms[lam]) for lam in sorted(self.terms)]

	def __str__(self):
		if not self.terms:
			return "0"
		bits = []
		for lam, c in self.items():
			cs = str(c)
			if cs == "1":
				bits.append(pt.partition_str(lam))
			elif "+" in cs or "-" in cs[1:]:
				bits.append("(%s)*%s" % (cs, pt.partition_str(lam)))
			else:
				bits.append("%s*%s" % (cs, pt.partition_str(lam)))
		return " + ".join(bits)

	def __repr__(self):
		return "FockVector(h=%d, %s)" % (self.h, self)


def _q_i_exponent(i, h):
	"""q_i's exponent; _image's node-set walks refuse i outside 0..n first."""
	if i == 0:
		return 1
	return 4 if i == pt.n_of(h) else 2


@cache
def _partitions(h):
	"""h's partition table and its h-contents.  The table maps each
	partition to its record (lam, h-content, prefix sums), which _record
	makes the first time an image, the vacuum or a canonical-basis target
	reaches the partition: lam is the one tuple object that every image and
	column holds for it, and the h-content the one tuple that the second
	dict holds for its value, by itself."""
	return {}, {}


def _record(lam, h):
	"""lam's record in _partitions(h), made on first sight."""
	table, contents = _partitions(h)
	rec = table.get(lam)
	if rec is None:
		content = pt.h_content(lam, h)
		rec = table[lam] = lam, contents.setdefault(content, content), pt.prefix_sums(lam)
	return rec


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _image(lam, i, k, h, raising):
	"""f_i^(k) lam (raising) or e_i^(k) lam (lowering) on one basis vector,
	as one flat tuple (mu, coefficient, mu, coefficient, ...) by the rule
	in the module docstring; each mu is its record's object in
	_partitions(h).

	Let lam+ be lam completed by its addable i-nodes.  Every h-strict mu
	reached from lam by adding i-nodes lies rowwise between lam and lam+,
	the pointwise optimum (see the node-set walks in partitions).  So lam+
	is a valid superpartition of mu and mu+ one of lam, whence mu+ = lam+:
	mu's addable set is lam's minus the moved nodes, and likewise for e
	with removable sets.  Two node-set calls thus serve every target, and
	one serves when lam has fewer than k nodes of the moving kind, whose
	image is empty.

	The moved nodes are therefore a k-subset of reach, lam's nodes of the
	moving kind, and the targets are the subsets that move_nodes accepts:
	each row must take a run of its reach nodes at its edge.  That is
	C(|reach|, k) subsets to try.  Blocks up to h=3 w=14 never have
	|reach| > 9, so at most C(9, 4) = 126 per image; cold, the
	oracle_large benchmark blocks try 13,011 subsets for 10,448 targets,
	and h=3 w=14 tries 206,521 for 132,823.

	The exponent is read off per-node weights, computed once per image.
	"Before" means "left of" for f and "right of" for e.  A reach node x
	gets w(x), the reach nodes before it minus the blocking nodes (lam's
	i-nodes of the other kind) before it.  A node set's exponent counts,
	for each moved node, the unmoved reach nodes before it minus the
	blocking ones, which is sum w(x) less one for each pair of moved
	nodes: k(k-1)/2, provided no two reach nodes share a column, so that
	one of each pair is strictly before the other.  Both node sets come
	column-ascending and no column holds two of their nodes (see the walks
	in partitions), so one merge of the two lists gives every weight.
	"""
	sign = 1 if raising else -1
	reach_of, other_of = (pt.addable_i_nodes, pt.removable_i_nodes) if raising \
		else (pt.removable_i_nodes, pt.addable_i_nodes)
	reach = reach_of(lam, i, h)
	if len(reach) < k:
		return ()  # fewer than k nodes can move
	blocking = other_of(lam, i, h)
	shift = 0 if raising else len(reach) - len(blocking) - 1  # e counts from the right
	weights, j = [], 0  # j: the blocking nodes left of reach[r]
	for r, (_, x) in enumerate(reach):
		while j < len(blocking) and blocking[j][1] < x:
			j += 1
		weights.append(shift + sign * (r - j))
	step = _q_i_exponent(i, h)
	pairs = k * (k - 1) // 2
	known = _partitions(h)[0].get
	out = []
	for nodes, ws in zip(combinations(reach, k), combinations(weights, k)):
		mu = pt.move_nodes(lam, nodes, h, sign)
		if mu is None:
			continue
		s = sum(ws) - pairs
		bs = ()
		if i == 0:
			cols = [x for _, x in nodes]
			# the outer column of a pair {mh, mh+1} moved alone
			mhs = [x - 1 if raising else x for x in cols if x - sign not in cols]
			bs = tuple(sorted(lam.count(mh) for mh in mhs if mh and mh % h == 0))
		out += (known(mu) or _record(mu, h))[0], _coefficient(step * s, bs)
	return tuple(out)


@cache
def _coefficient(e, bs):
	"""q^e times 1 - (-q^2)^b for each b in bs, one object per value."""
	coeff = q_power(e)
	for b in bs:
		coeff = coeff * (ONE - Laurent({2 * b: (-1) ** b}))
	return coeff


def _apply(vec, i, k, raising):
	"""f_i^(k) (raising) or e_i^(k) (lowering) on a Fock vector: the sum of
	its terms' cached images, each scaled by the term's coefficient.  The
	result's terms are always a fresh dict, which the caller may keep.  A
	negative k and a residue outside 0..n are refused first, whatever k and
	the vector are."""
	if k < 0:
		raise ValueError("divided powers need k >= 0, got k=%d" % k)
	h = vec.h
	pt._edge_table(i, h)  # refuses a residue outside 0..n, whatever k and vec
	if k == 0:
		return FockVector.wrap(h, dict(vec.terms))
	acc = {}
	get = acc.get
	for lam, c in vec.terms.items():
		image = iter(_image(lam, i, k, h, raising))
		for mu, coeff in zip(image, image):
			acc[mu] = add_product(get(mu, ZERO), c, coeff)
	return FockVector.wrap(h, {mu: c for mu, c in acc.items() if c.p})


def apply_f(vec, i, k=1):
	"""Divided power f_i^(k) applied to a Fock vector."""
	return _apply(vec, i, k, True)


def apply_e(vec, i, k=1):
	"""Divided power e_i^(k) applied to a Fock vector."""
	return _apply(vec, i, k, False)


def monomial_apply(seq, h):
	"""Apply a word of divided powers to the empty partition.

	seq is a list of (i, k); the word acts left to right, i.e. the first
	pair is applied first.
	"""
	v = FockVector.basis(h, ())
	for i, k in seq:
		v = apply_f(v, i, k)
		pt.require(v, "monomial killed the vector (bad peel sequence)")
	return v
