"""Cyclic codes <s^k e> in RG and their sizes and minimum weights.

A code here is a finite R-submodule of RG generated by elements
s^{k_i} e_i for primitive idempotents e_i and powers of the uniformizer.
Word counts follow the closed form |<s^k e>| = 2^((t-k) d) with d the
F2-dimension of the component of e; minimum weights have closed forms
for components whose block has at most one nonzero index, and
lower/upper bounds otherwise, all through one per-component path
(_weigh).  Each closed form is a function of the block's l nonzero
indices and their primes p_i and levels j_i alone, D = prod_i p_i^j_i
(_block_order) and phi(D) among them, so none factors an integer.
analyze_code checks a code's premise once (check_components) and alone
decides the walks.  The premise is a fact about the family:
primitive_family certifies each family once, so a code is valid exactly
when each component is the member its label names
(idempotents.family_member, one lookup in the family's label index) and
no label repeats, which needs no product.
It weighs every code as a direct sum, one component being a sum of one:
a sum that fits the budget is walked once for its weight and witness,
and a member's own weight is its binary residue code's (residue_weight),
but a lone member's in budget, the walk's.  Over budget that holds under
the gate of the R-walk it replaced (no closed form, own code in budget):
a wider gate would change reports.  A split component's only probe is
its generator: the products s^k (1 - g_1)...(1 - g_l) hat(H) are nonzero
in the components of all its block's members, so are words of none (see
weight_probes).

Every code is a direct sum of members, and each member fact is formed
once per process, on one record per member and k (_member): the
generator s^k e, its payloads shifted k bits up; the size formula; the
closed form or, for a split member, the lower bound; the step
a_i^(p^j) - a_i^(p^(j-1)) of a single-index block's second probe; and,
for a member that is walked, the walk of <s^k e> with its weighed
minimum.  The residue code's weight does not depend on k, and is the
walk of the record at k = t - 1 (residue_weight).  A record is keyed by
the algebra, the label, k and the member's payload bytes, so it is a
pure function of its key, sound after any cache_clear and whether or not
check_components ran; a walk's size checks run once, when it is formed.
A component finds its record once, by one bytes key
(CodeComponent.member).  Every call still forms the certificate
(check_components: a label lookup, and an equality test unless the
component holds the member's own element), each probe's product with
s^k e and its weight, and a sum's concatenated generator list and
weighing.

Enumeration is the independent check.  One primitive closes every walk:
_walk finds the R-span of one element's translates by additive closure,
the cosets of each by doubling over its powers, so its words are the
subset sums of a generator list: the powers s^j b of each fresh
translate b in turn.  A walk keeps its words only as an R-span in Howell
form (_Span), whose one reduction decides membership exactly and grows
the span.  <s^k e> = s^k RGe is walked in the quotient (R/s^(t-k))G as
the span of e mod s^(t-k), which x -> s^k x maps onto it one to one and
support for support; the zero code at k = t forms no walk.  A direct
sum's generator list is its members' lists in turn, as RG is the direct
sum of its ideals RGe.
Every word is still formed and weighed, a block at a time (CodewordSet),
so the bytes held are a few blocks of _BLOCK_BYTES, whatever the word
count.  A word is the t - k bit-planes of its quotient, plane i packing
bit i of every coefficient into ceil(n/64) 64-bit lanes, and a block of
words is stored plane first, shape (t - k, words, lanes), so each plane
of a block is one contiguous run of machine words (24 bytes a word for
<s e> over z4 at n = 165, one plane added by XOR at k = t - 1).  Adding
a generator to a block is plane arithmetic over whole planes
(ChainRing.add_planes), and a weight is one OR-reduce over the plane
axis, a popcount per lane and a sum over the lanes.  An in-budget
direct sum's walked weight is at most each member's probes and exact
weight, all weights of its nonzero words (analyze_code).  Past an
up-front budget gate and each walk's own size
checks, nothing in the enumeration consults the count or weight
formulas, so agreement between the two is evidence, not construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .arith import GroupSpec, InvariantError
from .chain_ring import ChainRing
from .group_algebra import AlgebraElem, GroupAlgebra, grid_order
from .idempotents import family_member, primitive_family

DEFAULT_BUDGET = 1 << 20
_BLOCK_BYTES = 1 << 20  # words and weights per block (CodewordSet)


class BudgetExceeded(Exception):
    """Raised when a predicted enumeration size does not fit the budget."""

    def __init__(self, predicted, budget):
        super().__init__(f"predicted {predicted} words exceeds budget {budget}")
        self.predicted = predicted
        self.budget = budget


@dataclass(frozen=True)
class CodeComponent:
    """One generator s^k e with the block/split label of e."""

    element: AlgebraElem
    block: tuple
    split: str | None
    k: int

    def __post_init__(self):
        t = self.element.algebra.ring.t
        if not 0 <= self.k <= t:
            raise ValueError(f"need 0 <= k <= {t}, got k={self.k}")

    @cached_property
    def member(self) -> _Member:
        """The record of this component's member at its k (_member), found once."""
        return _member(self.element.algebra, tuple(self.block), self.split, self.k,
                       self.element.coeffs.tobytes())

    @property
    def generator(self) -> AlgebraElem:
        """s^k e, the generator of the code."""
        return self.member.generator

    def label_dict(self):
        return {"block": list(self.block), "split": self.split, "k": self.k}


def check_components(alg: GroupAlgebra, components):
    """The premise of the size and weight formulas: each component's element
    is the member of alg's primitive family that its label names, and no
    label repeats.

    Members of one certified family are idempotent and pairwise orthogonal,
    so a label lookup (idempotents.family_member) and an equality test
    decide it, with no product in RG once the family is built.  The
    member's own element passes by identity; any other must be equal to it,
    and equality compares the algebras too, so every component lies in alg.
    """
    labels = [(tuple(c.block), c.split) for c in components]
    for c, (block, split) in zip(components, labels):
        rec = family_member(alg.group, alg.ring, block, split)
        if rec is not None and (rec.element is c.element or rec.element == c.element):
            continue
        named = f"component labelled block {block} split {split}"
        for r in primitive_family(alg.group, alg.ring):
            if r.element == c.element:
                raise ValueError(f"{named} is the family member of block {r.block} split {r.split}")
        raise ValueError(f"{named} is not a member of the primitive family of {alg}")
    if len(set(labels)) < len(labels):
        raise ValueError("a component label repeats")


def _block_order(spec: GroupSpec, block):
    """(l, D) for a block (j_1, ..., j_r): l nonzero indices, D = prod_i p_i^j_i;
    n/D is the order of the block's subgroup H = prod_i <a_i^(p_i^j_i)>."""
    powers = [p**j for p, j in zip(spec.primes, block) if j > 0]
    return len(powers), math.prod(powers)


def component_dimension(spec: GroupSpec, block) -> int:
    """F2-dimension of one primitive component of the given block: the
    block's phi(D) dimensions shared by its 2^(l-1) members (one if l = 0),
    phi(D) = prod_i (p_i - 1) p_i^(j_i - 1) over the block's nonzero indices,
    as the p_i are distinct primes."""
    levels = [(p, j) for p, j in zip(spec.primes, block) if j > 0]
    num = math.prod((p - 1) * p ** (j - 1) for p, j in levels)
    den = 1 << max(len(levels) - 1, 0)
    if num % den:
        raise InvariantError(f"block {tuple(block)}: dimension {num}/{den} is not an integer")
    return num // den


def code_size_formula(spec: GroupSpec, ring: ChainRing, block, k: int) -> int:
    """|<s^k e>| = 2^((t-k) d); size 1 (the zero code) at k = t."""
    if not 0 <= k <= ring.t:
        raise ValueError(f"need 0 <= k <= {ring.t}")
    return 1 << ((ring.t - k) * component_dimension(spec, block))


def code_size(alg: GroupAlgebra, components) -> int:
    return math.prod(c.member.size for c in components)


# -- enumeration ------------------------------------------------------


class CodewordSet:
    """A code as the subset sums of its generator list, zero word first.

    A code s^k M, M a submodule of RG, is walked and weighed in the quotient
    algebra (R/s^(t-k))G (_quotient), as the map x -> s^k x, on payloads
    x << k, takes M mod s^(t-k) onto it one to one and support for
    support.  gens holds the generators g_0, g_1, ... there as bit-planes,
    plane first: shape (t - k, m, ceil(n/64)) uint64 (ChainRing.to_planes),
    and row r of the code is the sum of g_i over the set bits i of r: 2^m
    words, in the order the walk finds them (_walk).  No row store is kept.
    The rows are formed in blocks (_blocks) of 2^a rows, shape
    (t - k, 2^a, ceil(n/64)), a (low_bits) the most generators, up to all,
    for which a block fits _BLOCK_BYTES with every byte a weighed row holds:
    its lanes, their OR, its popcounts and its intp weight.
    Block h is the low table of the subset sums of g_0, ..., g_(a-1) plus
    the sum of g_(a+i) over the set bits i of h.  rows decodes every word,
    and min_nonzero its witness, into algebra, the code's own, by << k.
    A member's set is shared by every code that holds it (_Member.walk):
    its minimum is weighed once, and a (low_bits) reads _BLOCK_BYTES when
    blocks are formed, not when the set was made.
    """

    def __init__(self, alg: GroupAlgebra, gens: np.ndarray, k: int = 0):
        self.algebra, self.k, self.quotient = alg, k, _quotient(alg, k)
        gens.setflags(write=False)
        self.gens = gens

    def __len__(self):
        return 1 << self.gens.shape[1]

    @property
    def low_bits(self) -> int:
        planes, m, lanes = self.gens.shape
        # a weighed row: its planes' lanes, their OR, its popcounts and its intp weight
        row = (planes + 1) * lanes * 8 + lanes + np.dtype(np.intp).itemsize
        return min(m, max((_BLOCK_BYTES // row).bit_length() - 1, 0))

    def _blocks(self):
        """Yields (start, rows [start, start + 2^a) as planes) in row order.
        The first block is the low table, rows [0, 2^a): each g_j, j < a,
        doubles the rows so far, rows [2^j, 2^(j+1)) being rows [0, 2^j)
        plus g_j.  Block h adds one sum of the rest to the table.  Every
        block after the first is written over one buffer, so a block is
        read before the next is asked for."""
        ring, a = self.quotient.ring, self.low_bits
        low = _zero_words(self.quotient, 1 << a)
        for j in range(a):
            ring.add_planes(low[:, : 1 << j], self.gens[:, j, None], out=low[:, 1 << j : 2 << j])
        yield 0, low
        high = self.gens[:, a:]
        if not high.shape[1]:
            return
        block = np.empty_like(low)
        sums = _zero_words(self.quotient, high.shape[1] + 1)  # sums[:, j]: g_(a+i) over the set bits i >= j of h
        for h in range(1, 1 << high.shape[1]):
            c = (h & -h).bit_length() - 1  # from h - 1 to h, bit c is set and the bits below it clear
            ring.add_planes(sums[:, c + 1], high[:, c], out=sums[:, c])
            sums[:, :c] = sums[:, c, None]
            ring.add_planes(low, sums[:, 0, None], out=block)
            yield h << a, block

    @property
    def rows(self) -> np.ndarray:
        ring, n = self.quotient.ring, self.algebra.n
        out = np.empty((len(self), n), dtype=self.algebra.ring.dtype)
        for start, block in self._blocks():
            out[start : start + block.shape[1]] = ring.from_planes(block, n)
        out <<= self.k
        return out

    def min_nonzero(self):
        """(weight, word) of the first lightest nonzero word in row order;
        None for the zero code.  Each block is weighed as it is formed: a
        weight is the popcount of the OR of the word's planes, one OR-reduce
        over the plane axis, counted lane by lane and summed over the lanes
        (the padding bits are 0)."""
        n, best = self.algebra.n, None
        for _, block in self._blocks():
            lanes = np.bitwise_count(np.bitwise_or.reduce(block, axis=0))
            w = lanes[:, 0].astype(np.intp)
            for j in range(1, lanes.shape[1]):  # a loop beats a reduce over so short an axis
                w += lanes[:, j]
            w[w == 0] = n + 1  # the zero word; every word weighs at most n
            pos = int(np.argmin(w))
            if w[pos] <= n and (best is None or w[pos] < best[0]):
                best = int(w[pos]), block[:, pos].copy()
        if best is None:
            return None
        word = self.quotient.ring.from_planes(best[1], n).astype(self.algebra.ring.dtype) << self.k
        return best[0], AlgebraElem(self.algebra, word)

    @cached_property
    def minimum(self):
        """min_nonzero, weighed once per set."""
        return self.min_nonzero()


@lru_cache(maxsize=None)
def _quotient(alg: GroupAlgebra, k: int) -> GroupAlgebra:
    """(R/s^(t-k))G, in which a code s^k M of alg is walked and weighed
    (CodewordSet); formed once per algebra and k."""
    return GroupAlgebra(ChainRing(alg.ring.family, alg.ring.t - k), alg.group)


class _Span:
    """The R-span of the vectors added so far, in Howell form.

    Each row is 0 before its pivot column p and s^v at p, one row per pivot
    column, and s^(t-v) times a row is in the span of the rows with later
    pivots (the Howell property).  So a span element that is 0 before
    column j is a combination of the rows with pivots j or later, and
    subtracting (x_p >> v) * row in pivot order (s^v divides x_p iff its
    low v bits are 0; see chain_ring) leaves a zero residue exactly for the
    span's elements.

    Each row is kept once, as its n payloads, however many words
    (prod 2^(t-v)) the span has, and a reduction step forms its multiple
    (x_p >> v) * row by one ring.mul_arr, as every multiple in this module
    is formed.
    """

    def __init__(self, ring: ChainRing):
        self.ring = ring
        self.rows = {}  # pivot column -> (v, the row)

    def reduce(self, X):
        """Residues of X (..., n): each is its row of X minus a span element,
        and is 0 iff that row is in the span."""
        ring = self.ring
        for p in sorted(self.rows):
            v, row = self.rows[p]
            q = X[..., p, None] >> v
            if q.any():  # else every multiple of this row is 0
                X = ring.sub_arr(X, ring.mul_arr(q, row))
        return X

    def add(self, r):
        """Grow the span by R r, for r a residue of reduce, keeping the
        Howell property.  r, and each vector queued after it once reduced,
        becomes, if nonzero, the row of its first nonzero column p, where it
        has fewer low zero bits w than the row it displaces (reduce left
        only the low v bits there).  Only what is queued, the displaced row
        and s^(t-w) times the new row, is reduced here."""
        ring, t = self.ring, self.ring.t
        x, todo = r.copy(), []  # a kept view would pin the caller's whole array
        while True:
            if x.any():
                p = int(np.flatnonzero(x)[0])
                a = int(x[p])
                w = (a & -a).bit_length() - 1  # a = s^w times a unit
                if a >> w != 1:  # make the pivot s^w
                    x = ring.mul_arr(ring.inv(a >> w), x)
                _, row = self.rows.get(p, (t, None))
                self.rows[p] = (w, x)
                if row is not None:  # s^v at p is now a multiple of s^w
                    todo.append(row)
                if (x & ((1 << w) - 1)).any():  # else s^(t-w) x = 0
                    todo.append(ring.mul_arr(ring.s_pow_payload(t - w), x))
            if not todo:
                return
            x = self.reduce(todo.pop())


def _zero_words(alg: GroupAlgebra, count: int) -> np.ndarray:
    """count zero words as bit-planes, shape (t, count, ceil(n/64)) uint64."""
    return np.zeros((alg.ring.t, count, -(-alg.n // 64)), dtype=np.uint64)


def _walk(alg: GroupAlgebra, x: AlgebraElem, want: int, label) -> np.ndarray:
    """The R-span of the translates of x in alg by additive closure from
    W = {0}, as its generator list (CodewordSet): bit-planes of shape
    (t, m, ceil(n/64)).  want is its size formula, label names it.

    For each translate b of x, in multi-index order of the group element
    (the order fixes the rows, and so the reported witness), {c : c b in W}
    is an ideal (s^m), m counting the powers s^j b outside W.  The cosets
    W + c b, c < 2^m, are new and disjoint, and doubling lists them: for
    j < m, rows [size, 2 size) are rows [0, size) plus s^j b, so b adds
    s^0 b, ..., s^(m-1) b to the generator list.  Coset c holds W + c b in
    both ring families, as for c < 2^j the payload c has no bit j and 2^j
    is s^j: (c + 2^j) b = c b + s^j b.  A translate with m = 0 stays in W
    (W only grows) and is dropped.  W is kept only as an R-span (_Span),
    and the translates still waiting are reduced against it again after
    each add.  So the walk holds no word: only its generator list, the
    span's one row per pivot and the t powers s^j x (twice over).  It
    raises, naming label, on outgrowing want and on ending off it.
    """
    ring, n, t = alg.ring, alg.n, alg.ring.t
    # a walk of 2^m words has m generators: outgrowing the formula raises before gens overflows
    gens, size, span = _zero_words(alg, max(want.bit_length() - 1, 0)), 1, _Span(ring)
    # row j holds s^j x twice over, so a^i s^j x is a slice of it
    table = ring.mul_arr((1 << np.arange(t))[:, None], np.concatenate([x.coeffs] * 2))
    powers = np.lib.stride_tricks.sliding_window_view(table, n, axis=1)
    chunk = max(1, (1 << 16) // (len(powers) * n * table.itemsize))  # translates per lookup
    order = grid_order(alg.group)
    for i in range(0, len(order), chunk):
        head = order[i : i + chunk]  # the chunk's translates still waiting
        while head.size:
            res = span.reduce(powers[:, n - head])
            ms = res.any(axis=2).sum(axis=0)
            fresh = np.flatnonzero(ms)
            if not fresh.size:
                break
            head, m = head[fresh], int(ms[fresh[0]])
            if size << m > want:
                raise InvariantError(f"member {label}: closure outgrows the size formula")
            span.add(res[0, fresh[0]])
            count = size.bit_length() - 1
            gens[:, count : count + m] = ring.to_planes(powers[:m, n - head[0]])
            head, size = head[1:], size << m
            del res  # not held while the next pass gathers
    if size != want:
        raise InvariantError(f"member {label}: {size} words walked, not the size formula's")
    return gens


class _Member:
    """The facts of one member e of alg at one k, each formed once (_member).

    generator is s^k e: s^k is the payload bit 1 << k in both ring families
    (ChainRing.s_pow_payload), so each payload is shifted up by k and the
    bits at t and above dropped.  size is the size formula of <s^k e> and
    exact its closed form, None for a split member, whose lower bound is
    lower.  step is a_i^(p^j) - a_i^(p^(j-1)) for a block whose one nonzero
    index i is at level j, else None (weight_probes).  walk is the set of
    <s^k e> (CodewordSet): for k < t the walk (_walk) of e mod s^(t-k) in
    (R/s^(t-k))G, for k = t the zero code's, with no generator, in alg.
    lower, step and walk are formed when first read, and a walk that raises
    is not kept.  residue is the record at k = t - 1.
    """

    def __init__(self, alg: GroupAlgebra, block: tuple, split, k: int, element: bytes):
        self.algebra, self.block, self.split, self.k, self.element = alg, block, split, k, element
        ring = alg.ring
        self.generator = AlgebraElem(alg, (np.frombuffer(element, dtype=ring.dtype) << k) & ring.mask)
        self.size = code_size_formula(alg.group, ring, block, k)
        self.exact = min_weight_formula(alg.group, block)

    @cached_property
    def lower(self) -> int:
        return min_weight_lower_bound(self.algebra.group, self.block, self.split)

    @cached_property
    def step(self) -> AlgebraElem | None:
        alg = self.algebra
        nonzero = [i for i, j in enumerate(self.block) if j > 0]
        if len(nonzero) != 1:
            return None
        (i,) = nonzero
        p, j = alg.group.primes[i], self.block[i]
        return alg.generator_power(i, p**j) - alg.generator_power(i, p ** (j - 1))

    @cached_property
    def walk(self) -> CodewordSet:
        alg, k = self.algebra, self.k
        if k == alg.ring.t:
            return CodewordSet(alg, _zero_words(alg, 0))
        q = _quotient(alg, k)
        e = AlgebraElem(q, np.frombuffer(self.element, dtype=alg.ring.dtype) & q.ring.mask)
        label = {"block": list(self.block), "split": self.split, "k": k}
        return CodewordSet(alg, _walk(q, e, self.size, label), k)

    @cached_property
    def _residue(self) -> _Member:
        return _member(self.algebra, self.block, self.split, self.algebra.ring.t - 1, self.element)

    @property
    def residue(self) -> _Member:
        # a record does not hold itself, so dropping the cache frees it
        return self if self.k == self.algebra.ring.t - 1 else self._residue


@lru_cache(maxsize=None)
def _member(alg: GroupAlgebra, block: tuple, split, k: int, element: bytes) -> _Member:
    """The record of alg's member with these payload bytes at k, formed once
    per process: its facts are functions of its key, so an entry is sound
    whatever else is cached or cleared."""
    return _Member(alg, block, split, k, element)


def enumerate_codewords(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodewordSet:
    """The direct sum of the components' codes, from their walks' generator lists.

    Each member's walk (_Member.walk) gives its generator list, and the
    sum's is theirs in turn, the first member in the low bits, in the
    quotient of the least k among the members with a generator: a
    member's planes are raised by its own k less that one.  With
    member sizes s_1, s_2, ..., row i_1 + s_1 (i_2 + s_2 (...)) is the sum
    of word i_j of each member.  A lone member's set is its walk's own,
    shared with every other code that holds it; a sum's is formed afresh.
    The budget gate takes the whole sum's size formula, so it bounds the
    words walked, which is time; the bytes a walk and its weighing hold
    are bounded by the block (CodewordSet).  Nothing here certifies the
    components: analyze_code does so with check_components.
    """
    predicted = code_size(alg, components)
    if predicted > budget:
        raise BudgetExceeded(predicted, budget)
    walks = [c.member.walk for c in components]
    if len(walks) == 1:
        return walks[0]
    live = [w for w in walks if w.gens.shape[1]]  # none from the zero code at k = t
    k = min((w.k for w in live), default=0)
    gens, row = _zero_words(_quotient(alg, k), sum(w.gens.shape[1] for w in live)), 0
    for w in live:  # x -> s^(k_i - k) x: a word of its quotient into this one
        m = w.gens.shape[1]
        gens[w.k - k :, row : row + m] = w.gens
        row += m
    return CodewordSet(alg, gens, k)


def residue_weight(alg: GroupAlgebra, comp: CodeComponent):
    """(weight, word) first lightest in <s^(t-1) e> = s^(t-1) RGe, which is
    F2G e', e' = e mod s: for k < t the minimum weight of <s^k e>, as
    s^(t-1-k) <s^k e> = s^(t-1) RGe (Norton and Salagean 2000).  It does not
    depend on k, so it is the walk of the member's record at k = t - 1
    (_Member.residue), shared with every code that holds the member at that k."""
    return comp.member.residue.walk.minimum


# -- closed forms and bounds ------------------------------------------


def min_weight_formula(spec: GroupSpec, block):
    """Exact minimum weight 2^l n/D for blocks with l <= 1 nonzero indices.

    All-zero block: |G|.  Single nonzero index: twice |H| = n/D.  Returns
    None for blocks that split (no closed form).
    """
    l, d = _block_order(spec, block)
    return (spec.n // d) << l if l <= 1 else None


def min_weight_lower_bound(spec: GroupSpec, block, split):
    """Lower bound for a split component (l >= 2 nonzero block indices).

    Scaled from |H| = n/D by 2^max(2, l - 1): 4 for two indices, 2^(l-1) for more.
    """
    l, d = _block_order(spec, block)
    if split is None or l < 2:
        raise ValueError("component is not a split of a multi-index block")
    return (spec.n // d) << max(2, l - 1)


def weight_probes(alg: GroupAlgebra, comp: CodeComponent):
    """Codewords whose weights bound the minimum from above.

    The generator s^k e, and for a single nonzero index i1 at level j also
    (a_i1^(p^j) - a_i1^(p^(j-1))) s^k e if it is nonzero.  Each is a
    multiple of the generator, so a word of <s^k e> by construction: once
    check_components has passed, probe * e == probe holds without a
    product to test it.  A split block
    (l >= 2 nonzero indices) has no second probe.  The candidate
    s^k (1 - g_1)...(1 - g_l) hat(H), with H the level-j subgroups at the
    split indices and each g_i = a_i^(c p_i^(j_i - 1)) one level below, is
    never a codeword: for each member e' of the block, g_i acts on RGe' as
    a root of unity of odd order p_i, whose residue is not 1, so 1 - g_i
    is a unit there, and hat(H) e' = e'.  So for k < t the candidate P is
    nonzero in RGe' for all 2^(l-1) >= 2 members e', while a word of
    <s^k e> vanishes in every other member's component.
    """
    rec = comp.member
    out = [] if rec.generator.is_zero() else [rec.generator]
    if rec.step is not None:  # formed on every call, as is each probe's weight
        probe = rec.step * rec.generator
        if not probe.is_zero():
            out.append(probe)
    return out


def min_weight_upper_bound(alg: GroupAlgebra, comp: CodeComponent):
    """(bound, witness) over the probe set; None if no probe survives."""
    best = None
    for probe in weight_probes(alg, comp):
        w = probe.weight()
        if best is None or w < best[0]:
            best = (w, probe)
    return best


# -- report -----------------------------------------------------------


@dataclass
class CodeReport:
    """Everything the analysis produced, with per-number provenance."""

    ring: str
    group: str
    components: list
    size: int
    size_method: str  # formula | both-agree
    min_weight: int | None = None
    weight_method: str = "undefined"  # formula | enumeration | bounds-only | undefined
    lower_bound: int | None = None
    upper_bound: int | None = None
    lower_bound_attained: bool | None = None
    witness: AlgebraElem | None = None
    min_component_weight: int | None = None
    sum_matches_component_min: bool | None = None

    def to_json_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.witness is not None:
            out["witness"] = self.witness.json_terms()
        return out


def _weigh(alg: GroupAlgebra, comp: CodeComponent, got):
    """Weight of one live component's code <s^k e>, cross-checked.

    Returns (exact, lower, best): the exact minimum weight or None, the
    lower bound (None where the closed form applies), and the lightest
    probe as (weight, word).  got is the member's walked or residue code
    minimum (weight, word) (see analyze_code), or None if none was taken;
    it must equal the closed form or lie between the lower bound and the
    lightest probe.
    """
    best = min_weight_upper_bound(alg, comp)
    if best is None:  # s^k e != 0 for k < t whenever e != 0
        raise InvariantError("a live component has a zero generator")
    formula = comp.member.exact
    if formula is not None:
        if best[0] != formula:
            raise InvariantError("no probe attains the formula")
        if got is not None and got[0] != formula:
            raise InvariantError("enumeration disagrees with formula")
        return formula, None, best
    lower = comp.member.lower
    if got is None:
        return (lower if best[0] == lower else None), lower, best
    if got[0] < lower:
        raise InvariantError("enumerated weight beats the lower bound")
    if got[0] > best[0]:
        raise InvariantError("enumerated weight exceeds a probe's weight")
    return got[0], lower, best


def analyze_code(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Size and minimum weight with enumeration cross-checks where affordable.

    Certifies the components once, first, and walks the whole sum over R
    when it fits the budget.  A live member's own weight is its residue
    code's (residue_weight), but a lone member's in budget, the walk's;
    over budget only under the gate of the R-walk it replaced, as a wider
    one would change the reports.  Every code is weighed as a direct sum;
    a single component is a sum of one, whose weight facts are the code's.
    Each member's probes and exact weight weigh nonzero words of the sum,
    so an in-budget sum walked heavier than any of them raises
    InvariantError.
    Member facts, walks and their weighed minima among them, are formed
    once per process on the members' records (see the module docstring);
    the certificate, a sum's weighing and the probes' products are formed
    on every call.
    """
    check_components(alg, components)
    ring, size = alg.ring, code_size(alg, components)
    rep = CodeReport(ring.designator(), alg.group.designator(),
                     [c.label_dict() for c in components], size, "formula")
    live = [c for c in components if c.k < ring.t]
    if size <= budget:
        words = enumerate_codewords(alg, components, budget)  # checks each summand's size
        rep.size_method = "both-agree"
        got = words.minimum
        own = [got] if len(components) == 1 else [residue_weight(alg, c) for c in live]
    else:
        own = [residue_weight(alg, c) if c.member.exact is None and c.member.size <= budget
               else None for c in live]
        got = None
    parts = [_weigh(alg, c, g) for c, g in zip(live, own)]
    if not parts:
        return rep

    lightest = min((best for _, _, best in parts), key=lambda b: b[0])
    rep.weight_method = "bounds-only" if got is None else "enumeration"
    rep.witness = (lightest if got is None else got)[1]
    if len(components) == 1:
        rep.min_weight, rep.lower_bound = parts[0][:2]
        if rep.lower_bound is None:  # closed form
            rep.weight_method, rep.witness = "formula", lightest[1]
        else:
            rep.upper_bound = lightest[0]
            if rep.min_weight is not None:
                rep.lower_bound_attained = rep.min_weight == rep.lower_bound
    else:
        if got is None:
            rep.upper_bound = lightest[0]
        else:
            # each member's probes and exact weight weigh nonzero words of the sum
            member = min(w for exact, _, best in parts for w in (exact, best[0]) if w is not None)
            if got[0] > member:
                raise InvariantError(f"the sum's walked weight {got[0]} exceeds a member word's {member}")
            rep.min_weight = got[0]
        exact = [part[0] for part in parts]
        if None not in exact:
            rep.min_component_weight = min(exact)
            if got is not None:
                rep.sum_matches_component_min = got[0] == rep.min_component_weight
    return rep
