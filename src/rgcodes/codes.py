"""Cyclic codes <s^k e> in RG and their sizes and minimum weights.

A code here is a finite R-submodule of RG generated by elements
s^{k_i} e_i for primitive idempotents e_i and powers of the uniformizer.
Word counts follow the closed form |<s^k e>| = 2^((t-k) d) with d the
F2-dimension of the component of e; minimum weights have closed forms
for components whose block has at most one nonzero index, and
lower/upper bounds otherwise.

Enumeration is the independent check: the module is materialised by
additive closure, walking the generators g s^k e (all group translates,
all ring multiples) and growing the word set coset by coset.  One pass
suffices because the module is the sum of the cyclic submodules
generated by the walked elements.  Nothing in the enumeration consults
the count or weight formulas beyond an up-front budget gate, so
agreement between the two is evidence, not construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import GroupSpec, InvariantError
from .chain_ring import ChainRing
from .group_algebra import AlgebraElem, GroupAlgebra

DEFAULT_BUDGET = 1 << 20


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

    def label_dict(self):
        return {"block": list(self.block), "split": self.split, "k": self.k}


def check_components(alg: GroupAlgebra, components):
    """Shared-algebra, idempotency and pairwise-orthogonality checks."""
    for c in components:
        if c.element.algebra != alg:
            raise ValueError("component from a different algebra")
        if not c.element.is_idempotent():
            raise ValueError("component element is not idempotent")
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            if not (components[i].element * components[j].element).is_zero():
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
    """Materialised code: one payload row per word, zero word first."""

    def __init__(self, alg: GroupAlgebra, rows: np.ndarray):
        self.algebra = alg
        rows.setflags(write=False)
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def weights(self) -> np.ndarray:
        return np.count_nonzero(self.rows, axis=1)

    def min_nonzero(self):
        """(weight, word) over the nonzero words; None for the zero code."""
        w = self.weights()
        idxs = np.nonzero(w)[0]
        if idxs.size == 0:
            return None
        pos = idxs[np.argmin(w[idxs])]
        return int(w[pos]), AlgebraElem(self.algebra, self.rows[pos].copy())

    def elements(self):
        for row in self.rows:
            yield AlgebraElem(self.algebra, row.copy())


def enumerate_codewords(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodewordSet:
    """Additive closure of all translates and multiples of the generators.

    Grows a set W, starting from {0}: for each generator b (a group
    translate of some s^k e_i), the distinct cosets W + c*b over the ring
    multiples c*b not already covered are appended wholesale.  Each new
    batch of cosets is disjoint from W and from each other, so no
    deduplication is needed beyond the membership test, and a single pass
    over the generators reaches the full sum of cyclic submodules.
    """
    check_components(alg, components)
    predicted = code_size(alg, components)
    if predicted > budget:
        raise BudgetExceeded(predicted, budget)

    ring = alg.ring
    n = alg.n
    shape = alg.shape
    axes = tuple(range(alg.group.r))

    rows = np.zeros((1, n), dtype=ring.dtype)
    seen = {rows[0].tobytes()}

    for comp in components:
        base = comp.element.scalar_mul(ring.elem(ring.s_pow_payload(comp.k)))
        if base.is_zero():
            continue
        # distinct nonzero multiples c * base, in payload order of c
        mults = []
        mult_seen = set()
        for c in range(1, ring.size):
            row = ring.scalar_mul_arr(c, base.coeffs).astype(ring.dtype)
            key = row.tobytes()
            if row.any() and key not in mult_seen:
                mult_seen.add(key)
                mults.append(row)

        base_grid = [m.reshape(shape) for m in mults]
        for g in np.ndindex(shape):
            shifted = [np.roll(m, g, axis=axes).reshape(n) for m in base_grid]
            if shifted[0].tobytes() in seen:
                continue  # W is a module, so every multiple is in W too
            # coset representatives among the multiples, distinct modulo W
            reps = []
            for row in shifted:
                if row.tobytes() in seen:
                    continue
                if any(
                    ring.sub_arr(row, rep).astype(ring.dtype).tobytes() in seen
                    for rep in reps
                ):
                    continue
                reps.append(row)
            if not reps:
                continue
            total = len(rows) * (1 + len(reps))
            if total > budget:
                raise BudgetExceeded(total, budget)
            batches = [ring.add_arr(rows, rep).astype(ring.dtype) for rep in reps]
            rows = np.concatenate([rows] + batches)
            for batch in batches:
                for row in batch:
                    seen.add(row.tobytes())

    if len(rows) != predicted:
        raise InvariantError("closure disagrees with the size formula")
    return CodewordSet(alg, rows)


def min_weight_exact(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET):
    """Enumerated minimum nonzero weight and a witness; None for the zero code."""
    return enumerate_codewords(alg, components, budget).min_nonzero()


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


def _membership_probe(comp: CodeComponent, probe: AlgebraElem):
    """Accept the probe iff it is a nonzero word of <s^k e>."""
    if probe.is_zero():
        return None
    if probe * comp.element != probe:
        return None
    return probe


def weight_probes(alg: GroupAlgebra, comp: CodeComponent):
    """Verified codewords whose weights bound the minimum from above."""
    ring = alg.ring
    spec = alg.group
    s_k = ring.elem(ring.s_pow_payload(comp.k))
    out = []

    gen = comp.element.scalar_mul(s_k)
    if not gen.is_zero():
        out.append(gen)

    nonzero = [i for i, j in enumerate(comp.block) if j > 0]
    if len(nonzero) == 1:
        (i1,) = nonzero
        j = comp.block[i1]
        p = spec.primes[i1]
        diff = alg.generator_power(i1, p**j) - alg.generator_power(i1, p ** (j - 1))
        probe = _membership_probe(comp, (diff * gen))
        if probe is not None:
            out.append(probe)

    if len(nonzero) >= 2:
        # s^k (1 - g_1)...(1 - g_l) hat(H), H = prod of the level-j subgroups
        # at the split indices and the full factors elsewhere, with each g_i
        # one level below the subgroup (nonzero in the quotient)
        levels = tuple(comp.block[i] if i in nonzero else 0 for i in range(spec.r))
        hat_h = alg.hat(levels)
        choice_sets = []
        for i in nonzero:
            p, nn, j = spec.primes[i], spec.exponents[i], comp.block[i]
            q = p**nn
            exps = [c * p ** (j - 1) % q for c in range(p ** (nn - j + 1)) if c % p]
            choice_sets.append((i, exps))

        def walk(idx, acc):
            if idx == len(choice_sets):
                probe = _membership_probe(comp, acc.scalar_mul(s_k))
                if probe is not None:
                    out.append(probe)
                return
            i, exps = choice_sets[idx]
            for e in exps:
                walk(idx + 1, acc * (alg.one() - alg.generator_power(i, e)))

        walk(0, hat_h)

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
    min_weight: int | None
    weight_method: str  # formula | enumeration | bounds-only | undefined
    lower_bound: int | None
    upper_bound: int | None
    lower_bound_attained: bool | None
    witness: AlgebraElem | None
    min_component_weight: int | None
    sum_matches_component_min: bool | None

    def to_json_dict(self):
        witness = None
        if self.witness is not None:
            ring = self.witness.algebra.ring
            witness = [
                [list(multi), ring.str_payload(payload)]
                for multi, payload in self.witness.pairs()
            ]
        return {
            "ring": self.ring,
            "group": self.group,
            "components": self.components,
            "size": self.size,
            "size_method": self.size_method,
            "min_weight": self.min_weight,
            "weight_method": self.weight_method,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "lower_bound_attained": self.lower_bound_attained,
            "witness": witness,
            "min_component_weight": self.min_component_weight,
            "sum_matches_component_min": self.sum_matches_component_min,
        }


def _component_exact_weight(alg: GroupAlgebra, comp: CodeComponent, budget: int):
    """Exact minimum weight of the single-component code, or None if out of reach."""
    if comp.k >= alg.ring.t:
        return None
    w = min_weight_formula(alg.group, comp.block)
    if w is not None:
        return w
    if code_size_formula(alg.group, alg.ring, comp.block, comp.k) <= budget:
        got = min_weight_exact(alg, [comp], budget)
        return None if got is None else got[0]
    lower = min_weight_lower_bound(alg.group, comp.block, comp.split)
    upper = min_weight_upper_bound(alg, comp)
    if upper is not None and upper[0] == lower:
        return lower
    return None


def analyze_code(alg: GroupAlgebra, components, budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Size and minimum weight with enumeration cross-checks where affordable."""
    check_components(alg, components)
    ring, spec = alg.ring, alg.group
    size = code_size(alg, components)

    words = None
    size_method = "formula"
    if size <= budget:
        words = enumerate_codewords(alg, components, budget)
        if len(words) != size:
            raise InvariantError("enumeration disagrees with the size formula")
        size_method = "both-agree"

    live = [c for c in components if c.k < ring.t]
    min_weight = None
    weight_method = "undefined"
    lower = upper = None
    attained = None
    witness = None
    min_comp = None
    sum_matches = None

    if live and len(components) == 1:
        comp = components[0]
        formula = min_weight_formula(spec, comp.block)
        if formula is not None:
            min_weight, weight_method = formula, "formula"
            probe = min_weight_upper_bound(alg, comp)
            if probe is None or probe[0] != formula:
                raise InvariantError("no probe attains the formula")
            witness = probe[1]
            if words is not None:
                got = words.min_nonzero()
                if got is None or got[0] != formula:
                    raise InvariantError("enumeration disagrees with formula")
        else:
            lower = min_weight_lower_bound(spec, comp.block, comp.split)
            best = min_weight_upper_bound(alg, comp)
            if best is not None:
                upper, witness = best
            if words is not None:
                got = words.min_nonzero()
                if got is None:
                    raise InvariantError("a live code enumerated no nonzero word")
                min_weight, witness = got
                weight_method = "enumeration"
                if min_weight < lower:
                    raise InvariantError("enumerated weight beats the lower bound")
                if upper is not None and min_weight > upper:
                    raise InvariantError("enumerated weight exceeds a probe's weight")
            elif upper == lower:
                min_weight, weight_method = lower, "bounds-only"
            else:
                weight_method = "bounds-only"
            if min_weight is not None:
                attained = min_weight == lower
    elif live:
        if words is not None:
            got = words.min_nonzero()
            if got is None:
                raise InvariantError("a live code enumerated no nonzero word")
            min_weight, witness = got
            weight_method = "enumeration"
        else:
            uppers = [min_weight_upper_bound(alg, c) for c in live]
            uppers = [u for u in uppers if u is not None]
            if uppers:
                upper, witness = min(uppers, key=lambda x: x[0])
            weight_method = "bounds-only"
        exact = [_component_exact_weight(alg, c, budget) for c in live]
        if all(w is not None for w in exact):
            min_comp = min(exact)
            if min_weight is not None:
                sum_matches = min_weight == min_comp

    return CodeReport(
        ring=ring.designator(),
        group=spec.designator(),
        components=[c.label_dict() for c in components],
        size=size,
        size_method=size_method,
        min_weight=min_weight,
        weight_method=weight_method,
        lower_bound=lower,
        upper_bound=upper,
        lower_bound_attained=attained,
        witness=witness,
        min_component_weight=min_comp,
        sum_matches_component_min=sum_matches,
    )
