"""Cyclic codes <s^k e> in RG and their sizes and minimum weights.

A code here is a finite R-submodule of RG generated by elements
s^{k_i} e_i for primitive idempotents e_i and powers of the uniformizer.
Word counts follow the closed form |<s^k e>| = 2^((t-k) d) with d the
F2-dimension of the component of e; minimum weights have closed forms
for components whose block has at most one nonzero index, and
lower/upper bounds otherwise, all through one per-component path
(_weigh).  Each closed form is a function of the block's l nonzero
indices and D = prod_i p_i^j_i (_block_order).  Each component forms
its generator s^k e once (CodeComponent.generator).  analyze_code
checks a code's premise once (check_components) and alone decides the
walks.  The premise is a fact about the family: primitive_family
certifies each family once, so a code is valid exactly when each
component is the member its label names (idempotents.family_member) and
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

Two member facts are formed once per process, as every code is a direct
sum of members: the walk of <s^k e> with its weighed minimum
(_member_walk), and the residue code's weight, which does not depend on
k (residue_weight).  Each is keyed by the algebra, the label, k (for
the walk) and the member's payload bytes, so an entry is a pure function
of its key, sound after primitive_family.cache_clear() and whether or not
check_components ran; a fact's checks (the walk's sizes, the residue
dimension) run once, when it is formed.  check_components, each sum's
concatenation and weighing, and the probes run on every call.

Enumeration is the independent check.  Each member's module is found by
additive closure over its generator's translates, the cosets of each by
doubling over its powers (_walk), so its words are the subset sums of a
generator list: the powers s^j b of each fresh translate b in turn.  A
walk keeps its words only as an R-span in Howell form (_Span), which
decides membership exactly.  A direct sum's generator list is its
members' lists concatenated, as RG is the direct sum of its ideals RGe.
Every word is still formed and weighed, a block at a time (CodewordSet),
so the bytes held are a few blocks of _BLOCK_BYTES, whatever the word
count.  A word is t bit-planes (plane i packs bit i of every
coefficient; 42 bytes for z4 at n = 165), so adding a generator is plane
arithmetic (ChainRing.add_planes) and a weight is the popcount of the OR
of the planes.  Past an up-front budget gate and each walk's own size
checks, nothing in the enumeration consults the count or weight
formulas, so agreement between the two is evidence, not construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .arith import GroupSpec, InvariantError, euler_phi
from .chain_ring import F2, ChainRing
from .group_algebra import AlgebraElem, GroupAlgebra, grid_order
from .idempotents import family_member, primitive_family

DEFAULT_BUDGET = 1 << 20
_BLOCK_BYTES = 1 << 20  # words and weights per block (CodewordSet); planes per slice (_add_cosets)


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
    def generator(self) -> AlgebraElem:
        """s^k e, the generator of the code."""
        return self.element.scalar_mul(self.element.algebra.ring.s_pow_payload(self.k))

    def label_dict(self):
        return {"block": list(self.block), "split": self.split, "k": self.k}


def check_components(alg: GroupAlgebra, components):
    """The premise of the size and weight formulas: each component's element
    is the member of alg's primitive family that its label names, and no
    label repeats.

    Members of one certified family are idempotent and pairwise orthogonal,
    so a label lookup (idempotents.family_member) and an equality test
    decide it, with no product in RG once the family is built.  Equality
    compares the algebras too, so every component lies in alg.
    """
    labels = [(tuple(c.block), c.split) for c in components]
    for c, (block, split) in zip(components, labels):
        rec = family_member(alg.group, alg.ring, block, split)
        if rec is not None and rec.element == c.element:
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
    block's phi(D) dimensions shared by its 2^(l-1) members (one if l = 0)."""
    l, d = _block_order(spec, block)
    num, den = euler_phi(d), 1 << max(l - 1, 0)
    if num % den:
        raise InvariantError(f"block {tuple(block)}: dimension {num}/{den} is not an integer")
    return num // den


def code_size_formula(spec: GroupSpec, ring: ChainRing, block, k: int) -> int:
    """|<s^k e>| = 2^((t-k) d); size 1 (the zero code) at k = t."""
    if not 0 <= k <= ring.t:
        raise ValueError(f"need 0 <= k <= {ring.t}")
    return 1 << ((ring.t - k) * component_dimension(spec, block))


def code_size(alg: GroupAlgebra, components) -> int:
    out = 1
    for c in components:
        out *= code_size_formula(alg.group, alg.ring, c.block, c.k)
    return out


# -- enumeration ------------------------------------------------------


class CodewordSet:
    """A code as the subset sums of its generator list, zero word first.

    gens holds the generators g_0, g_1, ... as bit-planes, shape
    (m, t, ceil(n/8)) (ChainRing.to_planes), and row r of the code is the
    sum of g_i over the set bits i of r: 2^m words, in the order the walk
    finds them (_walk).  No row store is kept.  The rows are formed in
    blocks (_blocks) of 2^a rows, a (low_bits) the most generators, up to
    all, whose subset sums fit _BLOCK_BYTES with one intp weight each:
    block h is the low table of the subset sums of g_0, ..., g_(a-1) plus
    the sum of g_(a+i) over the set bits i of h.  rows decodes every word
    into a (words, n) payload array.  members: a direct sum's members' own
    sets, whose generator lists gens concatenates, the first member in the
    low bits.  A member's set is shared by every code that holds it
    (_member_walk): its minimum is weighed once, and a (low_bits) reads
    _BLOCK_BYTES when blocks are formed, not when the set was made.
    """

    def __init__(self, alg: GroupAlgebra, gens: np.ndarray, members=None):
        self.algebra = alg
        gens.setflags(write=False)
        self.gens = gens
        self.members = members

    def __len__(self):
        return 1 << len(self.gens)

    @property
    def low_bits(self) -> int:
        fit = _BLOCK_BYTES // (math.prod(self.gens.shape[1:]) + np.dtype(np.intp).itemsize)
        return min(len(self.gens), max(fit.bit_length() - 1, 0))

    def _low(self, bits: int) -> np.ndarray:
        """Rows [0, 2^bits) as planes: the subset sums of g_0, ..., g_(bits-1).

        Each generator g_j doubles the rows so far (rows [size, 2 size) are
        rows [0, size) plus g_j).  A sum's table is the outer sum of its
        members' tables over their share of the bits, as row i_1 + 2^b_1 i_2
        is word i_1 of the first plus word i_2 of the second.
        """
        out = _zero_words(self.algebra, 1 << bits)
        if self.members is None:
            cosets = [self.gens[j : j + 1] for j in range(bits)]
        else:
            cosets = []
            for part in self.members:
                b = min(bits, len(part.gens))
                bits -= b
                cosets.append(part._low(b)[1 : 1 << b])
        size = 1
        for reps in cosets:
            _add_cosets(self.algebra.ring, out[:size], reps, out[size : size * (1 + len(reps))])
            size *= 1 + len(reps)
        return out

    def _blocks(self):
        """Yields (start, rows [start, start + 2^a) as planes) in row order.
        Every block after the first is written over one buffer, so a block
        is read before the next is asked for."""
        low = self._low(self.low_bits)
        yield 0, low
        ring, a = self.algebra.ring, len(low).bit_length() - 1
        high = self.gens[a:]
        if not len(high):
            return
        block = np.empty_like(low)
        sums = _zero_words(self.algebra, len(high) + 1)  # sums[j]: g_(a+i) over the set bits i >= j of h
        for h in range(1, 1 << len(high)):
            c = (h & -h).bit_length() - 1  # from h - 1 to h, bit c is set and the bits below it clear
            ring.add_planes(sums[c + 1], high[c], out=sums[c])
            sums[:c] = sums[c]
            _add_cosets(ring, low, sums[:1], block)
            yield h << a, block

    @property
    def rows(self) -> np.ndarray:
        ring, n = self.algebra.ring, self.algebra.n
        out = np.empty((len(self), n), dtype=ring.dtype)
        for start, block in self._blocks():
            out[start : start + len(block)] = ring.from_planes(block, n)
        return out

    def min_nonzero(self):
        """(weight, word) of the first lightest nonzero word in row order;
        None for the zero code.  Each block is weighed as it is formed: a
        weight is the popcount of the OR of the word's planes, counted in
        8-byte lanes of a zero-padded buffer."""
        n, best, width = self.algebra.n, None, self.gens.shape[2]
        buf = np.zeros((1 << self.low_bits, -(-width // 8) * 8), dtype=np.uint8)
        support = buf[:, :width]
        for _, block in self._blocks():
            np.copyto(support, block[:, 0])
            for j in range(1, block.shape[1]):
                support |= block[:, j]
            lanes = np.bitwise_count(buf.view(np.uint64))
            w = lanes[:, 0].astype(np.intp)
            for j in range(1, lanes.shape[1]):
                w += lanes[:, j]
            w[w == 0] = n + 1  # the zero word; every word weighs at most n
            pos = int(np.argmin(w))
            if w[pos] <= n and (best is None or w[pos] < best[0]):
                best = int(w[pos]), block[pos].copy()
        if best is None:
            return None
        return best[0], AlgebraElem(self.algebra, self.algebra.ring.from_planes(best[1], n))

    @cached_property
    def minimum(self):
        """min_nonzero, weighed once per set."""
        return self.min_nonzero()


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

    A residue is canonical: it is the one element of x + span whose entry at
    each pivot has only its low v bits, since two such differ by a span
    element whose first nonzero entry would be a multiple of s^v below s^v.
    So a residue mod the span before add, reduced from the first pivot add
    wrote on (rows before it are unchanged), is the residue mod the new span.
    """

    def __init__(self, ring: ChainRing):
        self.ring = ring
        self.rows = {}  # pivot column -> (v, the row)

    def reduce(self, X, start=0):
        """Residues of X (..., n): each is its row of X minus a span element,
        and is 0 iff that row is in the span.  Pivots before start are
        skipped, which is exact for residues carried across add (see add)."""
        ring = self.ring
        for p in sorted(self.rows):
            if p >= start:
                v, row = self.rows[p]
                X = ring.sub_arr(X, ring.mul_arr((X[..., p] >> v)[..., None], row))
        return X

    def add(self, x):
        """Grow the span by R x, keeping the Howell property.  Returns the
        first pivot column written (len(x) if none): residues mod the old
        span, reduced from it on, are residues mod the new one."""
        ring, t = self.ring, self.ring.t
        todo, first = [x.copy()], len(x)  # a kept view would pin the caller's whole array
        while todo:
            x = todo.pop()
            while x.any():
                p = int(np.flatnonzero(x)[0])
                a = int(x[p])
                w = (a & -a).bit_length() - 1  # a = s^w times a unit
                v, row = self.rows.get(p, (t, None))
                if w >= v:
                    x = ring.sub_arr(x, ring.mul_arr(a >> v, row))
                    continue
                if a >> w != 1:  # make the pivot s^w
                    x = ring.mul_arr(ring.inv(a >> w), x)
                self.rows[p] = (w, x)
                first = min(first, p)
                if row is not None:  # s^v at p is now a multiple of s^w
                    todo.append(row)
                if (x & ((1 << w) - 1)).any():  # else s^(t-w) x = 0
                    todo.append(ring.mul_arr(ring.s_pow_payload(t - w), x))
                break
        return first


def _zero_words(alg: GroupAlgebra, count: int) -> np.ndarray:
    """count zero words as bit-planes, shape (count, t, ceil(n/8))."""
    return np.zeros((count, alg.ring.t, -(-alg.n // 8)), dtype=np.uint8)


def _add_cosets(ring: ChainRing, W: np.ndarray, R: np.ndarray, out: np.ndarray):
    """Writes the cosets W + r, r in R, as bit-planes: row i len(W) + j of
    out is W[j] + R[i].  add_planes's ripple carry holds up to four planes
    per word written, so a slice of about _BLOCK_BYTES of them spans
    representatives when W is small and rows of W when it is large."""
    cosets = out.reshape(len(R), *W.shape)
    step = max(1, _BLOCK_BYTES // (4 * W.shape[-1]))  # words per slice
    per, rows = max(1, step // len(W)), min(len(W), step)
    for i in range(0, len(R), per):
        for j in range(0, len(W), rows):
            w = slice(j, j + rows)
            ring.add_planes(W[None, w], R[i : i + per, None], out=cosets[i : i + per, w])


def _walk(alg: GroupAlgebra, comp: CodeComponent) -> np.ndarray:
    """One member's code <s^k e> by additive closure from W = {0}, as its
    generator list (CodewordSet): bit-planes of shape (m, t, ceil(n/8)).

    For each translate b of s^k e, in multi-index order of the group
    element (the order fixes the rows, and so the reported witness),
    {c : c b in W} is an ideal (s^m), m counting the powers s^j b outside
    W.  The cosets W + c b, c < 2^m, are new and disjoint, and doubling
    lists them: for j < m, rows [size, 2 size) are rows [0, size) plus
    s^j b, so b adds s^0 b, ..., s^(m-1) b to the generator list.  Coset c
    holds W + c b in both ring families, as for c < 2^j the payload c has
    no bit j and 2^j is s^j: (c + 2^j) b = c b + s^j b.  A translate with
    m = 0 stays in W (W only grows) and is dropped.  W is kept only as an
    R-span (_Span), whose residues are canonical: translates still waiting
    keep theirs across each add and are reduced again only from the first
    pivot it wrote.  So the walk holds no word: only its generator list,
    the span's one row per pivot and the t - k powers s^j s^k e (twice
    over).  It raises, naming the member, on outgrowing its size formula
    and on ending off it.
    """
    ring, n, t = alg.ring, alg.n, alg.ring.t
    want = code_size(alg, [comp])
    # a walk of 2^m words has m generators: outgrowing the formula raises before gens overflows
    gens, size, span = _zero_words(alg, max(want.bit_length() - 1, 0)), 1, _Span(ring)
    base = comp.generator
    if not base.is_zero():
        # row j holds s^j base (nonzero for j < t - k, as e has a unit
        # coefficient) twice over, so a^k s^j base is a slice of it
        table = ring.mul_arr((1 << np.arange(t - comp.k))[:, None], np.concatenate([base.coeffs] * 2))
        powers = np.lib.stride_tricks.sliding_window_view(table, n, axis=1)
        chunk = max(1, (1 << 16) // (len(powers) * n * table.itemsize))  # translates per lookup
        # head: a chunk's translates still waiting, res: their powers' residues
        order = grid_order(alg.group)
        for i in range(0, len(order), chunk):
            head, first = order[i : i + chunk], 0
            res = powers[:, n - head]
            while head.size:
                res = span.reduce(res, start=first)
                ms = res.any(axis=2).sum(axis=0)
                fresh = np.flatnonzero(ms)
                if not fresh.size:
                    break
                head, res, m = head[fresh], res[:, fresh], int(ms[fresh[0]])
                if size << m > want:
                    raise InvariantError(f"member {comp.label_dict()}: closure outgrows the size formula")
                first = span.add(res[0, 0])
                count = size.bit_length() - 1
                gens[count : count + m] = ring.to_planes(powers[:m, n - head[0]])
                head, res, size = head[1:], res[:, 1:], size << m
    if size != want:
        raise InvariantError(f"member {comp.label_dict()}: {size} words walked, not the size formula's")
    return gens


@lru_cache(maxsize=None)
def _member_walk(alg: GroupAlgebra, block: tuple, split, k: int, element: bytes) -> CodewordSet:
    """The set of <s^k e> (_walk) for the e of alg with these payload
    bytes, formed once per process.  Its words are a function of alg, e
    and k, and its size checks of the label, so with all of them in the
    key an entry is sound whatever else is cached or cleared.  A walk
    that raises leaves no entry."""
    elem = AlgebraElem(alg, np.frombuffer(element, dtype=alg.ring.dtype))
    return CodewordSet(alg, _walk(alg, CodeComponent(elem, block, split, k)))


def enumerate_codewords(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodewordSet:
    """The direct sum of the components' codes, from their walks' generator lists.

    Each member's walk (_member_walk) gives its generator list, and the
    sum's is theirs concatenated, the first member in the low bits: with
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
    walks = [_member_walk(alg, tuple(c.block), c.split, c.k, c.element.coeffs.tobytes())
             for c in components]
    if len(walks) == 1:
        return walks[0]
    return CodewordSet(alg, np.concatenate([_zero_words(alg, 0)] + [w.gens for w in walks]), walks)


def residue_weight(alg: GroupAlgebra, comp: CodeComponent):
    """(weight, word) first lightest in F2G e', e' = e mod s (bit 0 of each
    payload): for k < t the minimum weight of <s^k e>, as s^(t-1-k) <s^k e>
    = s^(t-1) RGe is F2G e' (Norton and Salagean 2000).  It does not depend
    on k, so it is weighed once per member and process (_residue_weight)."""
    return _residue_weight(alg, tuple(comp.block), comp.split, comp.element.coeffs.tobytes())


@lru_cache(maxsize=None)
def _residue_weight(alg: GroupAlgebra, block: tuple, split, element: bytes):
    """residue_weight of the member of alg with these payload bytes.  A roll
    by one multiplies by a, so the first shift a^d e' in the span of the
    earlier ones (an XOR basis keyed by leading bit) gives the dimension d,
    checked against the member's; CodewordSet over F2 weighs the 2^d subset
    sums.  Like _member_walk's, each entry is a function of its key."""
    x = (np.frombuffer(element, dtype=alg.ring.dtype) & 1).astype(F2.dtype)
    basis, shifts = {}, []
    while True:
        v = int.from_bytes(np.packbits(x).tobytes(), "big")
        while v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if not v:
            break
        basis[v.bit_length()] = v
        shifts.append(x)
        x = np.roll(x, 1)
    if len(shifts) != component_dimension(alg.group, block):
        member = {"block": list(block), "split": split}
        raise InvariantError(f"member {member}: residue code of dimension {len(shifts)}")
    return CodewordSet(GroupAlgebra(F2, alg.group), F2.to_planes(np.array(shifts))).min_nonzero()


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
    spec = alg.group
    out = []
    gen = comp.generator
    if not gen.is_zero():
        out.append(gen)

    nonzero = [i for i, j in enumerate(comp.block) if j > 0]
    if len(nonzero) == 1:
        (i1,) = nonzero
        j = comp.block[i1]
        p = spec.primes[i1]
        diff = alg.generator_power(i1, p**j) - alg.generator_power(i1, p ** (j - 1))
        probe = diff * gen
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
    spec = alg.group
    best = min_weight_upper_bound(alg, comp)
    if best is None:  # s^k e != 0 for k < t whenever e != 0
        raise InvariantError("a live component has a zero generator")
    formula = min_weight_formula(spec, comp.block)
    if formula is not None:
        if best[0] != formula:
            raise InvariantError("no probe attains the formula")
        if got is not None and got[0] != formula:
            raise InvariantError("enumeration disagrees with formula")
        return formula, None, best
    lower = min_weight_lower_bound(spec, comp.block, comp.split)
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
    Member walks, a lone member's walked minimum and residue weights are
    formed once per process (see the module docstring); the certificate,
    a sum's weighing and the probes are formed on every call.
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
        own = [residue_weight(alg, c) if min_weight_formula(alg.group, c.block) is None
               and code_size(alg, [c]) <= budget else None for c in live]
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
            rep.min_weight = got[0]
        exact = [part[0] for part in parts]
        if None not in exact:
            rep.min_component_weight = min(exact)
            if got is not None:
                rep.sum_matches_component_min = got[0] == rep.min_component_weight
    return rep
