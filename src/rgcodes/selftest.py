"""Acceptance suite: nine end-to-end checks with per-check time limits.

Each criterion is a plain function returning (ok, detail); the
``_criterion`` decorator gives it a name and a time limit and appends it
to ``CRITERIA``, in run order, so calling it returns a CriterionResult.
``run_all`` runs ``CRITERIA`` and prints one pass/fail line per
criterion, and the pytest acceptance module runs one case per entry, so
``rgcodes selftest`` and the test suite agree by construction.  Every
enumeration runs at the word budget codes.DEFAULT_BUDGET.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import wraps
from itertools import product

from .arith import GroupSpec, block_labels, euler_phi, factorize, mult_ord
from .chain_ring import F2, parse_ring
from .codes import CodeComponent, analyze_code, enumerate_codewords, residue_weight
from .f2_oracle import primitive_idempotents_f2
from .group_algebra import GroupAlgebra
from .idempotents import (family_member, lift_idempotent, primitive_family, split_block,
                          verify_family)

SPEC_LIST = [
    GroupSpec((3,), (1,)),
    GroupSpec((5,), (1,)),
    GroupSpec((11,), (1,)),
    GroupSpec((3,), (2,)),
    GroupSpec((3, 5), (1, 1)),
    GroupSpec((3, 11), (1, 1)),
    GroupSpec((5, 11), (1, 1)),
    GroupSpec((3, 5), (2, 1)),
    GroupSpec((3, 5, 11), (1, 1, 1)),
]

LIFT_SPECS = [
    GroupSpec((3,), (1,)),
    GroupSpec((3, 5), (1, 1)),
    GroupSpec((3, 5), (2, 1)),
    GroupSpec((3, 5, 11), (1, 1, 1)),
]

LIFT_RINGS = ["z4", "z8", "f2u2", "f2u3"]

C15 = GroupSpec((3, 5), (1, 1))


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    limit: float | None = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        timing = f"[{self.seconds:.1f}s" + ("]" if self.limit is None else f" < {_seconds(self.limit)}]")
        return f"{status} {self.name}: {self.detail} {timing}"


def _seconds(limit) -> str:
    """A limit to the millisecond, with no trailing zeros: 60s, 0.25s, 0s."""
    return f"{limit:.3f}".rstrip("0").rstrip(".") + "s"


def _timed(name, limit, fn):
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a criterion must never take down the suite
        ok, detail = False, f"exception: {exc!r}"
    seconds = time.perf_counter() - t0
    if ok and limit is not None and seconds >= limit:
        ok, detail = False, detail + f" (over the {_seconds(limit)} limit)"
    return CriterionResult(name, ok, detail, seconds, limit)


# the acceptance criteria, in run order
CRITERIA = []


def _criterion(name, limit=None):
    """Register a criterion under name: called, it runs timed (_timed)."""

    def register(fn):
        @wraps(fn)
        def criterion():
            return _timed(name, limit, fn)

        criterion.name = name
        CRITERIA.append(criterion)
        return criterion

    return register


@_criterion("component-counts", 5.0)
def criterion_component_counts():
    """Oracle family size equals the closed-form count; families complete.
    The oracle raises on a count that differs from the formula, and
    verify_family on a false flag of the certificate, naming the algebra."""
    counts = []
    for spec in SPEC_LIST:
        prims = primitive_idempotents_f2(spec)
        verify_family(prims, GroupAlgebra(F2, spec))
        counts.append(f"{spec}:{len(prims)}")
    return True, "counts " + " ".join(counts)


@_criterion("idempotent-lifting", 30.0)
def criterion_lifting():
    """f^(2^(t-1)) is idempotent, reduces back to f; lifted family complete.
    lift_idempotent raises on a lift that is not an idempotent reducing to
    f, and verify_family on a lifted family that fails its certificate."""
    cases = 0
    for spec in LIFT_SPECS:
        prims = primitive_idempotents_f2(spec)
        for rname in LIFT_RINGS:
            ring = parse_ring(rname)
            lifted = [lift_idempotent(f, ring) for f in prims]
            verify_family(lifted, GroupAlgebra(ring, spec))
            cases += len(lifted)
    return True, f"{cases} lifts over {len(LIFT_RINGS)} rings verified"


@_criterion("formula-vs-oracle", 10.0)
def criterion_formula_vs_oracle():
    """Every split_block member is a member of the lifted oracle family."""
    ring = parse_ring("z4")
    verified = 0
    for spec in [C15, GroupSpec((3, 5, 11), (1, 1, 1))]:
        alg = GroupAlgebra(ring, spec)
        # the oracle lifted directly, not primitive_family, which is
        # itself built from the closed forms under test
        family = [lift_idempotent(f, ring) for f in primitive_idempotents_f2(spec)]
        for block in block_labels(spec):
            for e in split_block(alg, block):
                if not any(e == f for f in family):
                    return False, f"{spec} block {block}: closed form not in the family"
                verified += 1
    return True, f"{verified} closed forms matched"


@_criterion("word-counts", 60.0)
def criterion_word_counts():
    """Enumerated cardinality equals 2^((t-k) d) at n = 15 over z4.
    The walk raises on a size that differs from the formula."""
    ring = parse_ring("z4")
    alg = GroupAlgebra(ring, C15)
    sizes = []
    for rec in primitive_family(C15, ring):
        for k in (0, 1):
            comp = CodeComponent(rec.element, rec.block, rec.split, k)
            sizes.append(len(enumerate_codewords(alg, [comp])))
    return True, f"10 codes enumerated, sizes {sorted(set(sizes))}"


@_criterion("min-weights")
def criterion_min_weights():
    """Walked weights 15/10/6 at n = 15 over z8 (t = 3), k = 0 and 1, each its
    residue code's (codes.residue_weight): the walk at k = t - 1 = 2."""
    ring = parse_ring("z8")
    alg = GroupAlgebra(ring, C15)
    want = {(0, 0): 15, (1, 0): 10, (0, 1): 6}
    for block, expected in want.items():
        rec = family_member(C15, ring, block, None)
        comps = [CodeComponent(rec.element, rec.block, rec.split, k) for k in (0, 1)]
        residue = residue_weight(alg, comps[0])
        if residue is None or residue[0] != expected:
            return False, f"block {block}: residue weight {residue} != {expected}"
        for comp in comps:
            got = enumerate_codewords(alg, [comp]).min_nonzero()
            if got is None or got[0] != expected:
                return False, f"block {block} k={comp.k}: weight {got} != {expected}"
    return True, "weights 15/10/6 for k in {0,1} over z8, as their residue codes' at k = 2"


@_criterion("bound-sandwich")
def criterion_bound_sandwich():
    """Split code at n = 15: lower bound 4 <= enumerated weight <= probe bound.
    analyze_code raises on a walked weight outside the bounds (_weigh)."""
    ring = parse_ring("z4")
    rec = family_member(C15, ring, (1, 1), "(1)")
    comp = CodeComponent(rec.element, rec.block, rec.split, 0)
    rep = analyze_code(GroupAlgebra(ring, C15), [comp])
    if rep.lower_bound != 4:
        return False, f"lower bound {rep.lower_bound} != 4"
    if rep.weight_method != "enumeration":
        return False, "exact weight missing"
    if rep.lower_bound_attained is None:
        return False, "attainment flag missing"
    return True, (
        f"4 <= {rep.min_weight} <= {rep.upper_bound}, "
        f"lower bound attained: {rep.lower_bound_attained}"
    )


@_criterion("order-identity")
def criterion_order_identity():
    """ord_m(2) = phi(m)/2^(r-1) for the six supported moduli."""
    want = {15: 4, 33: 10, 55: 20, 165: 20, 45: 12, 99: 30}
    for m, expected in want.items():
        r = len(factorize(m))
        identity = euler_phi(m) >> (r - 1)
        got = mult_ord(2, m)
        if got != identity or got != expected:
            return False, f"m={m}: ord {got}, phi/2^(r-1) {identity}, expected {expected}"
    return True, "ord_m(2) matches phi(m)/2^(r-1) for m in {15,33,55,165,45,99}"


@_criterion("example-table", 300.0)
def criterion_example_table():
    """The table command reproduces the frozen counts and fills the blank cells."""
    from .cli import main as cli_main

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "1"])
    if rc != 0:
        return False, f"table command exited {rc}"
    rows = json.loads(buf.getvalue())["rows"]
    want_words = [2, 4, 16, 1024]
    want_weights = [165, 110, 66, 30]
    for row, words, weight in zip(rows[:4], want_words, want_weights):
        if row["words"] != words or row["weight"] != weight:
            return False, f"row {row['code']}: {row['words']}/{row['weight']}"
        if row["paper_blank"]:
            return False, "populated row flagged blank"
    for row in rows[4:]:
        if not row["paper_blank"]:
            return False, "blank row not flagged"
        filled = row["weight"] is not None or (
            row["lower_bound"] is not None and row["upper_bound"] is not None
        )
        if not filled:
            return False, f"row {row['code']}: weight cell not filled"
    blanks = [(r["weight"], r["weight_method"]) for r in rows[4:]]
    return True, f"4 rows reproduced; blank cells filled {blanks}"


@_criterion("property-suite")
def criterion_properties():
    """Hats idempotent, ring axioms (randomized), Frobenius fixing, determinism."""
    # hat idempotency for every subgroup of a few valid specs
    hat_checks = 0
    for spec in [GroupSpec((3,), (1,)), GroupSpec((3,), (2,)),
                 C15, GroupSpec((3, 5), (2, 1)),
                 GroupSpec((3, 5, 11), (1, 1, 1))]:
        for rname in ("z4", "f2u2"):
            alg = GroupAlgebra(parse_ring(rname), spec)
            for levels in product(*(range(n + 1) for n in spec.exponents)):
                h = alg.hat(levels)
                if not h.is_idempotent():
                    return False, f"hat {levels} not idempotent over {rname}[{spec}]"
                hat_checks += 1

    # randomized ring axioms: associativity, commutativity, distributivity,
    # and the identity, over a few (ring, group) contexts
    rng = random.Random(20260823)
    contexts = [
        (parse_ring("z4"), C15),
        (parse_ring("z8"), GroupSpec((3,), (2,))),
        (parse_ring("f2u2"), C15),
        (parse_ring("f2u3"), GroupSpec((5,), (1,))),
    ]
    cases = 0
    for ring, spec in contexts:
        alg = GroupAlgebra(ring, spec)
        one = alg.one()

        def rand_elem():
            return alg.element([rng.randrange(ring.size) for _ in range(alg.n)])

        for _ in range(90):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            if (x * y) * z != x * (y * z):
                return False, f"associativity fails over {ring.designator()}"
            if x * y != y * x:
                return False, f"commutativity fails over {ring.designator()}"
            if x * (y + z) != x * y + x * z:
                return False, f"distributivity fails over {ring.designator()}"
            if x * one != x:
                return False, f"identity fails over {ring.designator()}"
            cases += 4

    # Frobenius: doubling the exponents fixes every F2 idempotent
    frob = 0
    for spec in SPEC_LIST:
        for e in primitive_idempotents_f2(spec):
            if e.scale_exponents(2) != e:
                return False, f"{spec}: idempotent moved by exponent doubling"
            frob += 1

    # byte determinism of the serialized family across two builds: the
    # caches are cleared first, so each run builds the family afresh
    from .cli import main as cli_main

    outs = []
    for _ in range(2):
        primitive_family.cache_clear()
        primitive_idempotents_f2.cache_clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["idempotents", "--ring", "z4", "--group", "3^1,5^1"])
        if rc != 0:
            return False, "idempotents command failed"
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        return False, "JSON output not byte-identical across runs"

    return True, (
        f"{hat_checks} hats, {cases} axiom cases, {frob} Frobenius checks, "
        "deterministic JSON"
    )


def run_all():
    results = [criterion() for criterion in CRITERIA]
    for res in results:
        print(res.line())
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return results
