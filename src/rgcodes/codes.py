"""Cyclic codes <s^k e> in RG and their sizes and minimum weights.

A code here is a finite R-submodule of RG generated by elements
s^{k_i} e_i for primitive idempotents e_i and powers of the uniformizer.
Word counts follow the closed form |<s^k e>| = 2^((t-k) d) with d the
F2-dimension of the component of e; minimum weights have closed forms
for components whose block has at most one nonzero index, and
lower/upper bounds otherwise, all through one per-component path
(_weigh).  Each component forms its generator s^k e once
(CodeComponent.generator).  analyze_code weighs every code as a direct
sum, one component being a sum of one: when the sum fits the budget it
is walked once, and each member's words are read off the sum's rows
(CodewordSet.summands).  A split component's only probe is its
generator: the products
s^k (1 - g_1)...(1 - g_l) hat(H) are nonzero in the components of all its
block's members, so are words of none (see weight_probes).

Enumeration is the independent check: the module is materialised by
additive closure, walking the generators g s^k e (all group translates,
all ring multiples) and growing the word set coset by coset.  One pass
suffices because the module is the sum of the cyclic submodules
generated by the walked elements.  Each word is stored as t bit-planes
(plane i packs bit i of every coefficient), so a row of z4 at n = 165 is
42 bytes, adding a coset representative is plane arithmetic
(ChainRing.add_planes) and a weight is the popcount of the OR of the
planes.  Membership is exact: the words so far are also kept as an
R-span in Howell form (_Span).  Nothing in the enumeration consults the
count or weight formulas beyond an up-front budget gate and the size of
its row array (a closure that outgrows it or falls short of it raises),
so agreement between the two is evidence, not construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .arith import GroupSpec, InvariantError
from .chain_ring import ChainRing
from .group_algebra import AlgebraElem, GroupAlgebra, _family_certificate, grid_order

DEFAULT_BUDGET = 1 << 20
_SLICE = 1 << 14  # words per slice when weighing or decoding a CodewordSet


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
    """Shared-algebra, idempotency and orthogonality checks
    (group_algebra._family_certificate)."""
    idempotent, orthogonal, _ = _family_certificate([c.element for c in components], alg)
    if not idempotent:
        raise ValueError("component element is not idempotent")
    if not orthogonal:
        raise ValueError("component idempotents are not orthogonal")


def component_dimension(spec: GroupSpec, block) -> int:
    """F2-dimension of one primitive component of the given block."""
    deltas = []
    for p, j in zip(spec.primes, block):
        if j > 0:
            deltas.append(p**j - p ** (j - 1))
    if not deltas:
        return 1
    num = math.prod(deltas)
    den = 1 << (len(deltas) - 1)
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
    """Materialised code: one row of bit-planes per word, zero word first.

    planes has shape (words, t, ceil(n/8)) (ChainRing.to_planes), so a word
    takes t * ceil(n/8) bytes with no padding; a word's weight is the
    popcount of the OR of its planes.  rows decodes every word
    into a (words, n) payload array.
    """

    def __init__(self, alg: GroupAlgebra, planes: np.ndarray):
        self.algebra = alg
        planes.setflags(write=False)
        self.planes = planes

    def __len__(self):
        return len(self.planes)

    @property
    def rows(self) -> np.ndarray:
        ring, n = self.algebra.ring, self.algebra.n
        out = np.empty((len(self), n), dtype=ring.dtype)
        for i in range(0, len(self), _SLICE):  # bounds the unpacked bits
            out[i : i + _SLICE] = ring.from_planes(self.planes[i : i + _SLICE], n)
        return out

    def weights(self) -> np.ndarray:
        # in slices, so the OR of the planes never spans the whole row store
        out = []
        for i in range(0, len(self), _SLICE):
            planes = self.planes[i : i + _SLICE]
            support = planes[:, 0]
            for j in range(1, planes.shape[1]):
                support = support | planes[:, j]
            out.append(np.add.reduce(np.bitwise_count(support), axis=1, dtype=np.intp))
        return np.concatenate(out)

    def min_nonzero(self):
        """(weight, word) over the nonzero words; None for the zero code."""
        w = self.weights()
        idxs = np.nonzero(w)[0]
        if idxs.size == 0:
            return None
        pos = idxs[np.argmin(w[idxs])]
        word = self.algebra.ring.from_planes(self.planes[pos], self.algebra.n)
        return int(w[pos]), AlgebraElem(self.algebra, word)

    def summands(self, sizes):
        """Each summand's own walk, as a view of the rows of a walked direct sum.

        With summand sizes s_1, s_2, ..., row i_1 + s_1 (i_2 + s_2 (...)) is
        the sum of word i_j of each summand's own walk: a batch adds a word
        of the current summand to the rows so far, and as the sum is direct,
        each lookup decides as it would in that summand's own walk.  So
        summand j's words are rows 0, P, 2P, ... with P = s_1 ... s_{j-1}.
        """
        out, stride = [], 1
        for size in sizes:
            out.append(CodewordSet(self.algebra, self.planes[::stride][:size]))
            stride *= size
        return out


class _Span:
    """The R-span of the vectors added so far, in Howell form.

    Each row is 0 before its pivot column p and s^v at p, one row per pivot
    column, and s^(t-v) times a row is in the span of the rows with later
    pivots (the Howell property).  So a span element that is 0 before
    column j is a combination of the rows with pivots j or later, and
    subtracting (x_p >> v) * row in pivot order (s^v divides x_p iff its
    low v bits are 0; see chain_ring) leaves a zero residue exactly for the
    span's elements.
    """

    def __init__(self, ring: ChainRing):
        self.ring = ring
        self.rows = {}  # pivot column -> (v, row)

    def reduce(self, X):
        """Residues of X (..., n): each is its row of X minus a span element,
        and is 0 iff that row is in the span."""
        ring = self.ring
        for p in sorted(self.rows):
            v, row = self.rows[p]
            X = ring.sub_arr(X, ring.mul_arr(X[..., p, None] >> v, row))
        return X

    def add(self, x):
        """Grow the span by R x, keeping the Howell property."""
        ring, t = self.ring, self.ring.t
        todo = [x]
        while todo:
            x = todo.pop()
            while x.any():
                p = int(np.flatnonzero(x)[0])
                a = int(x[p])
                w = (a & -a).bit_length() - 1  # a = s^w times a unit
                v, row = self.rows.get(p, (t, None))
                if w >= v:
                    x = ring.sub_arr(x, ring.scalar_mul_arr(a >> v, row))
                    continue
                if a >> w != 1:  # make the pivot s^w
                    x = ring.scalar_mul_arr(ring.inv(a >> w), x)
                self.rows[p] = (w, x)
                if row is not None:  # s^v at p is now a multiple of s^w
                    todo.append(row)
                if (x & ((1 << w) - 1)).any():  # else s^(t-w) x = 0
                    todo.append(ring.scalar_mul_arr(ring.s_pow_payload(t - w), x))
                break


def enumerate_codewords(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodewordSet:
    """Additive closure of all translates and multiples of the generators.

    Grows a set W, starting from {0}: for each generator b (a group
    translate of some s^k e_i), the distinct cosets W + c*b over the ring
    multiples c*b not already covered are appended wholesale.  Each new
    batch of cosets is disjoint from W and from each other, so no
    deduplication is needed beyond the membership test, and a single pass
    over the generators reaches the full sum of cyclic submodules.

    Rows go, in that order, into one array of the predicted size; W is also
    kept as an R-span (_Span), which answers membership exactly.  The walk
    always visits every generator: a closure that outgrows the array or
    falls short of it raises.
    """
    check_components(alg, components)
    predicted = code_size(alg, components)
    if predicted > budget:
        raise BudgetExceeded(predicted, budget)

    ring, n, t = alg.ring, alg.n, alg.ring.t
    planes = np.zeros((predicted, t, -(-n // 8)), dtype=np.uint8)  # row 0: the zero word
    size, span = 1, _Span(ring)
    for comp in components:
        base = comp.generator
        if base.is_zero():
            continue
        # the distinct nonzero multiples c * base in payload order of c: c * s^k e
        # depends only on c mod s^(t-k), as e has a unit coefficient
        mults = ring.mul_arr(np.arange(1, 1 << (t - comp.k))[:, None], base.coeffs)
        # every multiple's translate by a^k is a slice of this doubled copy
        doubled = np.concatenate([mults, mults], axis=1)
        # the powers s^j base (j < t - k) are the multiples c = 2^j
        powers = np.lib.stride_tricks.sliding_window_view(
            doubled[(1 << np.arange(t - comp.k)) - 1], n, axis=1)
        chunk = max(1, (1 << 16) // (len(powers) * mults[0].nbytes))  # translates per lookup

        # translates b = a^k base in multi-index order of the group element:
        # the order fixes the row order, and so the reported witness.
        # {c : c b in W} is an ideal (s^m), so the cosets W + c b are those of
        # c < 2^m, and m counts the powers of b outside W.  A translate with
        # m = 0 stays in W (W only grows) and is dropped
        todo = grid_order(alg.group)
        while todo.size:
            head = todo[:chunk]
            res = span.reduce(powers[:, n - head])
            ms = res.any(axis=2).sum(axis=0)
            fresh = np.flatnonzero(ms)
            todo = np.concatenate([head[fresh[1:]], todo[chunk:]])
            if not fresh.size:
                continue
            k, m = int(head[fresh[0]]), int(ms[fresh[0]])
            total = size << m
            if total > budget:
                raise BudgetExceeded(total, budget)
            if total > predicted:
                raise InvariantError("closure outgrows the size formula")
            span.add(res[0, fresh[0]].copy())
            reps = ring.to_planes(doubled[: (1 << m) - 1, n - k : 2 * n - k])
            for i, rep in enumerate(reps, 1):
                ring.add_planes(planes[:size], rep, out=planes[i * size : (i + 1) * size])
            size = total

    if size != predicted:
        raise InvariantError("closure disagrees with the size formula")
    return CodewordSet(alg, planes)


# -- closed forms and bounds ------------------------------------------


def min_weight_formula(spec: GroupSpec, block):
    """Exact minimum weight for blocks with at most one nonzero index.

    All-zero block: |G|.  Single nonzero index i1 at level j: twice the
    product of the other factor orders times p_i1^(n_i1 - j).  Returns
    None for blocks that split (no closed form).
    """
    nonzero = [i for i, j in enumerate(block) if j > 0]
    if not nonzero:
        return spec.n
    if len(nonzero) > 1:
        return None
    (i1,) = nonzero
    out = 2
    for i, (p, n) in enumerate(zip(spec.primes, spec.exponents)):
        out *= p ** (n - block[i1]) if i == i1 else p**n
    return out


def min_weight_lower_bound(spec: GroupSpec, block, split):
    """Lower bound for a split component (>= 2 nonzero block indices).

    Scaled from the subgroup prod <a_i^{p_i^{j_i}}> over the split
    indices: factor 4 for two indices, 2^(l-1) for l >= 3.
    """
    if split is None:
        raise ValueError("component is not a split of a multi-index block")
    nonzero = [i for i, j in enumerate(block) if j > 0]
    l = len(nonzero)
    if l < 2:
        raise ValueError("component is not a split of a multi-index block")
    base = 1
    for i, (p, n) in enumerate(zip(spec.primes, spec.exponents)):
        base *= p ** (n - block[i]) if i in nonzero else p**n
    factor = 4 if l == 2 else 1 << (l - 1)
    return factor * base


def weight_probes(alg: GroupAlgebra, comp: CodeComponent):
    """Verified codewords whose weights bound the minimum from above.

    The generator s^k e, and for a single nonzero index i1 at level j also
    (a_i1^(p^j) - a_i1^(p^(j-1))) s^k e if it is a codeword.  A split block
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
        if not probe.is_zero() and probe * comp.element == probe:  # a word of <s^k e>
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


def _weigh(alg: GroupAlgebra, comp: CodeComponent, budget: int, got=None):
    """Weight of one live component's code <s^k e>, cross-checked.

    Returns (exact, lower, best, got): the exact minimum weight or None, the
    lower bound (None where the closed form applies), the lightest probe as
    (weight, word), and the enumerated (weight, word) or None.  An
    enumeration the caller already holds comes in as got; otherwise a code
    without a closed form is enumerated here if it fits the budget.
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
        return formula, None, best, got
    lower = min_weight_lower_bound(spec, comp.block, comp.split)
    if got is None and code_size_formula(spec, alg.ring, comp.block, comp.k) <= budget:
        got = enumerate_codewords(alg, [comp], budget).min_nonzero()
    if got is None:
        return (lower if best[0] == lower else None), lower, best, None
    if got[0] < lower:
        raise InvariantError("enumerated weight beats the lower bound")
    if got[0] > best[0]:
        raise InvariantError("enumerated weight exceeds a probe's weight")
    return got[0], lower, best, got


def analyze_code(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Size and minimum weight with enumeration cross-checks where affordable.

    Every code is weighed as a direct sum; a single component is a sum of
    one, and its component's weight facts are the code's.
    """
    ring, size = alg.ring, code_size(alg, components)
    rep = CodeReport(ring.designator(), alg.group.designator(),
                     [c.label_dict() for c in components], size, "formula")
    own = [None] * len(components)  # each component's enumerated (weight, word)
    got = None  # the sum's
    if size > budget:
        check_components(alg, components)  # enumeration checks them itself
    else:
        words = enumerate_codewords(alg, components, budget)
        if len(words) != size:
            raise InvariantError("enumeration disagrees with the size formula")
        rep.size_method = "both-agree"
        own = [w.min_nonzero() for w in words.summands([code_size(alg, [c]) for c in components])]
        got = own[0] if len(own) == 1 else words.min_nonzero()
    parts = [_weigh(alg, c, budget, g) for c, g in zip(components, own) if c.k < ring.t]
    if not parts:
        return rep
    if got is None and rep.size_method == "both-agree":
        raise InvariantError("a live code enumerated no nonzero word")

    lightest = min((best for _, _, best, _ in parts), key=lambda b: b[0])
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
