import gc
import importlib.util
import math
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcodes import codes
from rgcodes.arith import GroupSpec, InvariantError, block_labels, euler_phi, is_odd_prime, validate_group
from rgcodes.chain_ring import parse_ring
from rgcodes.codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeComponent,
    analyze_code,
    check_components,
    code_size,
    code_size_formula,
    component_dimension,
    enumerate_codewords,
    min_weight_formula,
    min_weight_lower_bound,
    min_weight_upper_bound,
    weight_probes,
)
from rgcodes.group_algebra import AlgebraElem, GroupAlgebra, grid_order
from rgcodes.idempotents import family_member, primitive_family

C15 = GroupSpec((3, 5), (1, 1))
Z4 = parse_ring("z4")


def _component(spec, ring, block, split, k):
    rec = next(
        r for r in primitive_family(spec, ring)
        if r.block == block and r.split == split
    )
    return CodeComponent(rec.element, rec.block, rec.split, k)


def test_component_dimension():
    assert component_dimension(C15, (0, 0)) == 1
    assert component_dimension(C15, (1, 0)) == 2
    assert component_dimension(C15, (0, 1)) == 4
    assert component_dimension(C15, (1, 1)) == 4  # (2*4)/2 per split member
    spec45 = GroupSpec((3, 5), (2, 1))
    assert component_dimension(spec45, (2, 0)) == 6
    assert component_dimension(spec45, (2, 1)) == 12


def _valid_groups(limit):
    """Every group of order at most limit that passes validate_group, its
    primes ascending."""
    primes = [p for p in range(3, limit + 1, 2) if is_odd_prime(p)]

    def grow(start, order, factors):
        if factors:
            spec = GroupSpec(*zip(*factors))
            if validate_group(spec).ok:
                yield spec
        for i in range(start, len(primes)):
            q, e = primes[i], 1
            while order * q <= limit:
                yield from grow(i + 1, order * q, factors + [(primes[i], e)])
                q, e = q * primes[i], e + 1

    return list(grow(0, 1, []))


def test_component_dimension_is_phi_over_members():
    """component_dimension, formed from the block's own primes, is its old
    definition euler_phi(D) // 2^max(l - 1, 0) for every block of every
    valid group with n <= 5000."""
    groups = _valid_groups(5000)
    assert len(groups) == 590
    for spec in groups:
        for block in block_labels(spec):
            powers = [p**j for p, j in zip(spec.primes, block) if j > 0]
            want = euler_phi(math.prod(powers)) // (1 << max(len(powers) - 1, 0))
            assert component_dimension(spec, block) == want, (spec, block)


@pytest.mark.parametrize("ring_name", ["z2", "z4", "z8", "z256", "z65536", "f2u2", "f2u3", "f2u16"])
def test_generator_is_the_scalar_product(ring_name):
    """The generator, each payload shifted up by k, is its old definition,
    e times the ring scalar s^k, for every member and every 0 <= k <= t.
    At k = t = 8 and 16 the shift is the payload dtype's width, where <<
    gives 0, and s^t e is the zero element."""
    ring = parse_ring(ring_name)
    for rec in primitive_family(C15, ring):
        for k in range(ring.t + 1):
            gen = CodeComponent(rec.element, rec.block, rec.split, k).generator
            assert gen == rec.element.scalar_mul(ring.s_pow_payload(k)), (rec.block, rec.split, k)
        assert gen.is_zero()


def test_code_size_formula():
    # sizes 2^{(t-k) d} over z4 (t = 2)
    assert code_size_formula(C15, Z4, (0, 0), 0) == 4
    assert code_size_formula(C15, Z4, (0, 0), 1) == 2
    assert code_size_formula(C15, Z4, (1, 0), 0) == 16
    assert code_size_formula(C15, Z4, (0, 1), 0) == 256
    assert code_size_formula(C15, Z4, (1, 1), 0) == 256
    assert code_size_formula(C15, Z4, (1, 1), 2) == 1  # k = t: zero code


def test_enumeration_matches_formula():
    alg = GroupAlgebra(Z4, C15)
    for block, split in [((0, 0), None), ((1, 0), None), ((0, 1), None),
                         ((1, 1), "(1)"), ((1, 1), "(2)")]:
        for k in (0, 1):
            comp = _component(C15, Z4, block, split, k)
            words = enumerate_codewords(alg, [comp])
            assert len(words) == code_size_formula(C15, Z4, block, k)


def test_min_weights_formula_blocks():
    alg = GroupAlgebra(Z4, C15)
    want = {(0, 0): 15, (1, 0): 10, (0, 1): 6}
    for block, expected in want.items():
        assert min_weight_formula(C15, block) == expected
        for k in (0, 1):
            comp = _component(C15, Z4, block, None, k)
            got = enumerate_codewords(alg, [comp]).min_nonzero()
            assert got[0] == expected
    assert min_weight_formula(C15, (1, 1)) is None


def test_split_code_frozen_values():
    """Two-index split code at n = 15: |C| = 256, exact weight 8 in [4, 10]."""
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (1, 1), "(1)", 0)
    rep = analyze_code(alg, [comp])
    assert rep.size == 256 and rep.size_method == "both-agree"
    assert rep.min_weight == 8 and rep.weight_method == "enumeration"
    assert rep.lower_bound == 4 and rep.upper_bound == 10
    assert rep.lower_bound_attained is False
    assert rep.witness is not None and rep.witness.weight() == 8
    assert rep.witness * comp.element == rep.witness  # witness is a codeword


def test_split_code_k1():
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (1, 1), "(1)", 1)
    rep = analyze_code(alg, [comp])
    assert rep.size == 16
    assert rep.min_weight == 8
    assert rep.upper_bound == 8  # the weight-8 probe survives at k = 1
    assert rep.lower_bound_attained is False


def test_lower_bound_rules():
    assert min_weight_lower_bound(C15, (1, 1), "(1)") == 4
    spec165 = GroupSpec((3, 5, 11), (1, 1, 1))
    assert min_weight_lower_bound(spec165, (1, 1, 1), "(1)") == 4
    assert min_weight_lower_bound(spec165, (1, 1, 0), "(2)") == 4 * 11
    with pytest.raises(ValueError):
        min_weight_lower_bound(C15, (1, 0), None)


def _per_factor_closed_forms(spec, block):
    """(formula, lower bound, dimension) as products over the factors, one
    factor at a time; None where the closed form does not apply."""
    nonzero = [i for i, j in enumerate(block) if j > 0]
    l = len(nonzero)
    base = 1  # the order of the block's subgroup prod_i <a_i^(p_i^j_i)>
    for i, (p, n) in enumerate(zip(spec.primes, spec.exponents)):
        base *= p ** (n - block[i]) if i in nonzero else p**n
    formula = spec.n if l == 0 else 2 * base if l == 1 else None
    lower = (4 if l == 2 else 1 << (l - 1)) * base if l >= 2 else None
    deltas = [p**j - p ** (j - 1) for p, j in zip(spec.primes, block) if j > 0]
    dimension = math.prod(deltas) // (1 << (l - 1)) if deltas else 1
    return formula, lower, dimension


@pytest.mark.parametrize("spec", [GroupSpec((3, 5, 11), (3, 2, 1)),
                                  GroupSpec((3, 5, 11, 19, 59), (1, 1, 1, 1, 1))], ids=str)
def test_closed_forms_match_per_factor_products(spec):
    """Every block up to l = 5 nonzero indices and level j = 3."""
    for block in block_labels(spec):
        formula, lower, dimension = _per_factor_closed_forms(spec, block)
        assert min_weight_formula(spec, block) == formula, block
        assert component_dimension(spec, block) == dimension, block
        if lower is None:
            with pytest.raises(ValueError):
                min_weight_lower_bound(spec, block, "(1)")
        else:
            assert min_weight_lower_bound(spec, block, "(1)") == lower, block


def test_weight_probes_are_codewords():
    alg = GroupAlgebra(Z4, C15)
    for block, split in [((1, 0), None), ((0, 1), None), ((1, 1), "(1)")]:
        for k in (0, 1):
            comp = _component(C15, Z4, block, split, k)
            probes = weight_probes(alg, comp)
            assert probes  # at least the generator itself
            for probe in probes:
                assert not probe.is_zero()
                assert probe * comp.element == probe


def test_upper_bound_dominates_exact():
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (1, 1), "(1)", 0)
    bound, witness = min_weight_upper_bound(alg, comp)
    assert bound == 10
    assert witness.weight() == 10
    assert enumerate_codewords(alg, [comp]).min_nonzero()[0] <= bound


def walk_leaves(alg, comp):
    """Every candidate probe s^k (1 - g_1)...(1 - g_l) hat(H) of a split component.

    H is the product of the level-j subgroups at the split indices and the
    full factors elsewhere; each g_i = a_i^(c p_i^(j_i - 1)) with p_i not
    dividing c lies one level below its subgroup.  Leaves in walk order.
    """
    spec, ring = alg.group, alg.ring
    nonzero = [i for i, j in enumerate(comp.block) if j > 0]
    leaves = [alg.hat(tuple(j if i in nonzero else 0 for i, j in enumerate(comp.block)))]
    for i in nonzero:
        p, nn, j = spec.primes[i], spec.exponents[i], comp.block[i]
        exps = [c * p ** (j - 1) % p**nn for c in range(p ** (nn - j + 1)) if c % p]
        leaves = [acc * (alg.one() - alg.generator_power(i, e)) for acc in leaves for e in exps]
    return [leaf.scalar_mul(ring.s_pow_payload(comp.k)) for leaf in leaves]


@pytest.mark.parametrize("spec", [C15, GroupSpec((3, 5), (2, 1)), GroupSpec((3, 5, 11), (1, 1, 1))],
                         ids=str)
def test_split_walk_yields_no_codeword(spec):
    """A split block's only probe is its generator: every walked leaf is off the code."""
    for ring in map(parse_ring, ("z2", "z4", "f2u2", "f2u3")):
        alg = GroupAlgebra(ring, spec)
        for rec in primitive_family(spec, ring):
            if rec.split is None:
                continue
            for k in range(ring.t):
                comp = CodeComponent(rec.element, rec.block, rec.split, k)
                for leaf in walk_leaves(alg, comp):
                    assert not leaf.is_zero() and leaf * comp.element != leaf
                gen = comp.element.scalar_mul(ring.s_pow_payload(k))
                assert comp.generator == gen
                assert min_weight_upper_bound(alg, comp)[0] == gen.weight()


def test_weight_probes_once_per_live_component(monkeypatch):
    """An over-budget direct sum with a split member weighs each member once."""
    calls = []
    probes = codes.weight_probes
    monkeypatch.setattr(codes, "weight_probes",
                        lambda alg, comp: calls.append(comp.block) or probes(alg, comp))
    alg = GroupAlgebra(Z4, C15)
    comps = [_component(C15, Z4, (1, 1), "(1)", 0), _component(C15, Z4, (0, 1), None, 0)]
    rep = analyze_code(alg, comps, budget=100)
    assert calls == [(1, 1), (0, 1)]
    assert rep.size == 65536 and rep.weight_method == "bounds-only"
    assert rep.upper_bound == 6 and rep.witness.weight() == 6
    assert rep.min_weight is None and rep.min_component_weight is None


@pytest.mark.parametrize("k", [12, 15])
def test_multiples_over_z65536(k):
    """The c * s^k e for c < 2^(t-k) are all the distinct multiples, in reference order."""
    ring = parse_ring("z65536")
    alg = GroupAlgebra(ring, C15)
    comp = _component(C15, ring, (0, 0), None, k)
    assert np.array_equal(enumerate_codewords(alg, [comp]).rows, reference_rows(alg, [comp]))


def test_in_budget_sum_walked_once(monkeypatch):
    """A direct sum that fits the budget is enumerated once; its split member
    is weighed from its binary residue code, not enumerated again."""
    calls = []
    walk = codes.enumerate_codewords

    def counted(alg, comps, budget):
        calls.append(len(comps))
        return walk(alg, comps, budget)

    monkeypatch.setattr(codes, "enumerate_codewords", counted)
    alg = GroupAlgebra(Z4, C15)
    comps = [_component(C15, Z4, (1, 1), "(1)", 1), _component(C15, Z4, (1, 0), None, 0)]
    rep = analyze_code(alg, comps)
    assert calls == [2]
    assert rep.size == 256 and rep.weight_method == "enumeration"
    assert rep.min_weight == 6 and rep.min_component_weight == 8


def test_direct_sum():
    alg = GroupAlgebra(Z4, C15)
    c1 = _component(C15, Z4, (0, 1), None, 0)
    c2 = _component(C15, Z4, (1, 0), None, 1)
    assert code_size(alg, [c1, c2]) == 256 * 4
    rep = analyze_code(alg, [c1, c2])
    assert rep.size == 1024
    assert rep.min_weight == 6
    assert rep.min_component_weight == 6
    assert rep.sum_matches_component_min is True
    # the witness is the first minimum-weight word enumerated, so it pins the
    # order in which translates are visited: multi-index order of the group
    rep = analyze_code(alg, [c1, _component(C15, Z4, (1, 0), None, 0)])
    assert rep.witness.pairs() == [
        ((0, 0), 1), ((0, 1), 3), ((1, 0), 1), ((1, 1), 3), ((2, 0), 1), ((2, 1), 3)]


def test_compensating_size_formulas_fail(monkeypatch):
    """Each summand's walked size is checked, not only their product: a formula
    that doubles one member's size and halves another's names a member."""
    alg = GroupAlgebra(Z4, C15)
    comps = [_component(C15, Z4, (0, 1), None, 0), _component(C15, Z4, (1, 0), None, 0)]
    formula = codes.code_size_formula
    scale = {(0, 1): 2, (1, 0): 0.5}
    monkeypatch.setattr(codes, "code_size_formula", lambda spec, ring, block, k:
                        int(formula(spec, ring, block, k) * scale.get(tuple(block), 1)))
    assert code_size(alg, comps) == 256 * 16  # the product is unchanged
    for order in (comps, comps[::-1]):
        with pytest.raises(InvariantError, match=r"member \{'block': \[(0, 1|1, 0)\]"):
            analyze_code(alg, order)


def test_halved_member_formula_names_member(monkeypatch):
    """A member whose size formula is halved outgrows it in its own walk, and
    the error names that member at its own k, also inside a direct sum; at
    k = 1 the walk is in (R/s)G, whose own k is 0.  A doubled formula is
    missed at the walk's end, and named alike."""
    alg = GroupAlgebra(Z4, C15)
    formula = codes.code_size_formula
    for k in (0, 1):
        for scale, match in [(0.5, "closure outgrows"), (2, r"\d+ words walked")]:
            codes._member.cache_clear()  # and fresh components: each holds its record
            comps = [_component(C15, Z4, (0, 1), None, k), _component(C15, Z4, (1, 0), None, k)]
            monkeypatch.setattr(codes, "code_size_formula", lambda spec, ring, block, j: int(
                formula(spec, ring, block, j) * (scale if tuple(block) == (1, 0) else 1)))
            for order in (comps, comps[::-1], comps[1:]):
                with pytest.raises(InvariantError, match=r"member \{'block': \[1, 0\], 'split': None, "
                                                         rf"'k': {k}\}}: {match}"):
                    enumerate_codewords(alg, order)


def test_sum_heavier_than_a_member_word_raises(monkeypatch):
    """Every member probe and every member's exact weight weighs a nonzero
    word of the direct sum, so a sum whose walked weight is above any of them
    raises InvariantError (exit 4 from the CLI), where it used to read only
    as sum_matches_component_min false.  The members' residue codes are
    weighed before the patch, which reaches the sum's own weighing alone."""
    alg = GroupAlgebra(Z4, C15)
    comps = [_component(C15, Z4, (0, 1), None, 0), _component(C15, Z4, (1, 0), None, 1)]
    assert analyze_code(alg, comps).min_weight == 6  # the members weigh 6 and 10
    weigh = codes.CodewordSet.min_nonzero
    for weight in (7, C15.n):
        monkeypatch.setattr(codes.CodewordSet, "min_nonzero", lambda self: (weight, weigh(self)[1]))
        with pytest.raises(InvariantError, match=rf"the sum's walked weight {weight} exceeds a member word's 6"):
            analyze_code(alg, comps)


def test_one_certificate_per_analysis():
    """check_components forms no product on any call, in or over budget: family
    members pass by their labels, and a component that is an idempotent but no
    member (the sum of two members under one member's label) is refused."""
    with _products_in_check() as products:
        alg = GroupAlgebra(Z4, C15)
        split, other = _component(C15, Z4, (1, 1), "(1)", 1), _component(C15, Z4, (0, 1), None, 0)
        rep = analyze_code(alg, [split, other], budget=100)  # 16 * 256 words; the split fits
        assert rep.size_method == "formula" and rep.min_component_weight == 6
        for comps in ([split], [split, other]):  # in budget: the whole sum is walked
            assert analyze_code(alg, comps).size_method == "both-agree"
        twin = _component(C15, Z4, (1, 1), "(2)", 1)
        pair = CodeComponent(split.element + twin.element, (1, 1), "(1)", 2)  # k = t: the zero code
        with pytest.raises(ValueError, match="not a member of the primitive family"):
            analyze_code(alg, [pair])
    assert products == [0]


@contextmanager
def _products_in_check():
    """Yields [n]: n counts the AlgebraElem products formed inside
    codes.check_components while the context is open."""
    products, inside = [0], []
    check, mul = codes.check_components, AlgebraElem.__mul__

    def counted_check(alg, comps):
        inside.append(True)
        try:
            return check(alg, comps)
        finally:
            inside.pop()

    def counted_mul(a, b):
        products[0] += bool(inside)
        return mul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "check_components", counted_check)
        mp.setattr(AlgebraElem, "__mul__", counted_mul)
        yield products


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_registered_members_need_no_product(data):
    """1-3 distinct members of a family pass the lookup with no product, and
    the same elements are idempotent and pairwise orthogonal; a member under
    another member's label raises naming both labels, also with no product."""
    spec = data.draw(st.sampled_from([C15, GroupSpec((3, 5), (2, 1))]))
    ring = parse_ring(data.draw(st.sampled_from(["z2", "z4", "z8", "f2u2", "f2u3"])))
    fam, alg = primitive_family(spec, ring), GroupAlgebra(ring, spec)
    members = data.draw(st.lists(st.integers(0, len(fam) - 1), min_size=1, max_size=3, unique=True))
    comps = [CodeComponent(fam[i].element, fam[i].block, fam[i].split, 0) for i in members]
    i = members[0]
    j = data.draw(st.integers(0, len(fam) - 1).filter(lambda j: j != i))
    wrong = CodeComponent(fam[i].element, fam[j].block, fam[j].split, 0)
    with _products_in_check() as products:
        codes.check_components(alg, comps)
        with pytest.raises(ValueError) as exc:
            codes.check_components(alg, [wrong])
    assert products == [0]
    assert str(exc.value) == (f"component labelled block {fam[j].block} split {fam[j].split} is "
                              f"the family member of block {fam[i].block} split {fam[i].split}")
    elems = [c.element for c in comps]
    assert all(e.is_idempotent() for e in elems)
    assert all((a * b).is_zero() for i, a in enumerate(elems) for b in elems[:i])


def _forged(case):
    """(algebra, components) of one mutation of the split members of block
    (1,1) over z4 at 3^1,5^1."""
    alg = GroupAlgebra(Z4, C15)
    one, two = _component(C15, Z4, (1, 1), "(1)", 0), _component(C15, Z4, (1, 1), "(2)", 0)
    if case == "repeated member":
        return alg, [one, two, one]
    if case == "one coefficient changed":
        coeffs = one.element.coeffs.copy()
        coeffs[0] = (coeffs[0] + 1) % 4
        return alg, [CodeComponent(alg.element(coeffs), one.block, one.split, 0)]
    if case == "non-idempotent under a registered label":
        return alg, [CodeComponent(alg.generator_power(0), one.block, one.split, 0)]
    if case == "registered element under another split":
        return alg, [CodeComponent(one.element, two.block, two.split, 0)]
    if case == "registered element under another block":
        return alg, [two, CodeComponent(one.element, (1, 0), None, 0)]
    if case == "same bytes in another algebra":
        f2u2 = parse_ring("f2u2")
        other = GroupAlgebra(f2u2, C15)
        forged = other.element(one.element.coeffs)
        assert family_member(C15, Z4, one.block, one.split).element == one.element
        assert family_member(C15, f2u2, one.block, one.split).element != forged
        return other, [CodeComponent(forged, one.block, one.split, 0)]
    raise AssertionError(case)


@pytest.mark.parametrize("case,match", [
    ("repeated member", "label repeats"),
    ("one coefficient changed", "not a member"),
    ("non-idempotent under a registered label", "not a member"),
    ("registered element under another split", "is the family member"),
    ("registered element under another block", "is the family member"),
    ("same bytes in another algebra", "not a member"),
])
def test_forged_components_raise(case, match):
    alg, comps = _forged(case)
    with _products_in_check() as products, pytest.raises(ValueError, match=match):
        codes.check_components(alg, comps)
    assert products == [0]


def test_member_sum_under_member_label_raises():
    """The sum of members (1,1)(1) and (1,1)(2) is an idempotent of 65,536 words;
    labelled (1,1)(1) it is refused in and over budget, before the label's size
    formula (256 words) can be reported."""
    alg = GroupAlgebra(Z4, C15)
    one, two = _component(C15, Z4, (1, 1), "(1)", 0), _component(C15, Z4, (1, 1), "(2)", 0)
    forged = CodeComponent(one.element + two.element, one.block, one.split, 0)
    for budget in (100, DEFAULT_BUDGET):
        with pytest.raises(ValueError, match=r"block \(1, 1\) split \(1\) is not a member"):
            analyze_code(alg, [forged], budget)


def test_wrong_label_names_both():
    """A registered element under another label is caught by the lookup, in or
    over budget, before any size formula reads the label."""
    alg, comps = _forged("registered element under another split")
    for budget in (0, DEFAULT_BUDGET):
        with pytest.raises(ValueError, match=r"labelled block \(1, 1\) split \(2\) is the "
                                             r"family member of block \(1, 1\) split \(1\)"):
            analyze_code(alg, comps, budget)


def test_lookup_sound_after_cache_clear():
    """Rebuilding a family registers the same facts: members from before and
    after cache_clear pass with no product, and a wrong label still raises."""
    before = primitive_family(C15, Z4)
    primitive_family.cache_clear()
    after = primitive_family(C15, Z4)
    assert after is not before
    assert [r.element for r in after] == [r.element for r in before]
    alg = GroupAlgebra(Z4, C15)
    with _products_in_check() as products:
        codes.check_components(alg, [CodeComponent(r.element, r.block, r.split, 0)
                                     for r in (before[0], after[1], before[3])])
    assert products == [0]
    with pytest.raises(ValueError, match="family member"):
        check_components(alg, [CodeComponent(after[0].element, before[1].block, None, 0)])


@pytest.mark.parametrize("spec,ring_name", [
    (C15, "z4"), (GroupSpec((3, 5), (2, 1)), "f2u3"), (GroupSpec((3, 5, 11), (1, 1, 1)), "z2"),
], ids=str)
def test_family_member_is_the_labelled_record(spec, ring_name):
    """family_member, one lookup in the family's label index, returns what its
    old definition, a scan of the family, returns: the record itself for
    every label, as a tuple or a list, and None for a label of no member."""
    ring = parse_ring(ring_name)
    family = primitive_family(spec, ring)

    def scan(block, split):
        return next((r for r in family if r.block == tuple(block) and r.split == split), None)

    for rec in family:
        assert family_member(spec, ring, rec.block, rec.split) is rec
        assert family_member(spec, ring, list(rec.block), rec.split) is rec
    splits = {r.split for r in family} | {"(0)", "(9)", "1"}
    outside = [(1,) * (spec.r + 1), (spec.exponents[0] + 1,) + (0,) * (spec.r - 1)]
    for block in [*block_labels(spec), *outside]:
        for split in splits:
            assert family_member(spec, ring, block, split) is scan(block, split), (block, split)
    split_block = next(r.block for r in family if r.split is not None)
    unknown = [((0,) * spec.r, "(1)"), (split_block, None), (split_block, "(9)")]
    unknown += [(block, None) for block in outside]
    for block, split in unknown:
        assert family_member(spec, ring, block, split) is None


def test_equal_copy_of_member_is_certified():
    """check_components passes a member's own element by identity, and an
    equal copy, another object, by equality; neither forms a product."""
    alg = GroupAlgebra(Z4, C15)
    with _products_in_check() as products:
        for rec in primitive_family(C15, Z4):
            copy = alg.element(rec.element.coeffs.copy())
            assert copy is not rec.element and copy == rec.element
            codes.check_components(alg, [CodeComponent(copy, rec.block, rec.split, 0)])
    assert products == [0]


def test_budget_gate():
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (0, 1), None, 0)  # 256 words
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_codewords(alg, [comp], budget=100)
    assert exc.value.predicted == 256
    assert exc.value.budget == 100
    # analyze_code degrades to formula size + bounds instead of raising
    rep = analyze_code(alg, [comp], budget=100)
    assert rep.size == 256 and rep.size_method == "formula"
    assert rep.min_weight == 6 and rep.weight_method == "formula"


def test_zero_code_at_k_equals_t():
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (1, 0), None, 2)
    rep = analyze_code(alg, [comp])
    assert rep.size == 1
    assert rep.min_weight is None
    assert rep.weight_method == "undefined"
    words = enumerate_codewords(alg, [comp])
    assert len(words) == 1 and words.min_nonzero() is None


def test_empty_sum_is_the_zero_code():
    """No components: one word, the zero word; analyze_code reports size 1,
    walked in budget and by formula at budget 0, with no weight."""
    alg = GroupAlgebra(Z4, C15)
    words = enumerate_codewords(alg, [])
    assert len(words) == 1 and not planes(words).any()
    assert words.min_nonzero() is None
    for budget, method in [(DEFAULT_BUDGET, "both-agree"), (0, "formula")]:
        rep = analyze_code(alg, [], budget)
        assert (rep.size, rep.size_method, rep.weight_method) == (1, method, "undefined")
        assert rep.min_weight is None and rep.witness is None


def test_member_walk_holds_no_reference_cycle():
    """One member's record and walk are freed as their last references, the
    component's and the member cache's, go, with the cyclic collector off;
    also a record at k = t - 1, which is its own residue record."""
    gc.disable()
    try:
        for k in (0, 1):
            comp = _component(C15, Z4, (0, 1), None, k)
            words = enumerate_codewords(GroupAlgebra(Z4, C15), [comp])
            assert comp.member.residue.walk.minimum is not None
            refs = [weakref.ref(words), weakref.ref(comp.member)]
            del words, comp
            assert all(ref() is not None for ref in refs)  # shared with every code that holds it
            codes._member.cache_clear()
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_zero_generator_raises():
    """A zero element is no family member, so analyze_code refuses it; past
    that check, weighing it must not pass, and nor must walking it: its
    walked size is 1, not the formula's."""
    alg = GroupAlgebra(Z4, C15)
    for block, split in [((1, 1), "(1)"), ((1, 0), None)]:
        zero = CodeComponent(alg.zero(), block, split, 0)
        with pytest.raises(ValueError, match="not a member"):
            analyze_code(alg, [zero], budget=1)
        with pytest.raises(InvariantError, match="zero generator"):
            codes._weigh(alg, zero, None)
        with pytest.raises(InvariantError, match=r"member .*'block': \[1, \d\]"):
            enumerate_codewords(alg, [zero])


def test_check_components_rejects_non_adjacent_overlap():
    """Members 1 and 3 overlap, every other pair is orthogonal: the overlap is
    no family member (verify_family's flag for it is tested in test_idempotents)."""
    alg = GroupAlgebra(Z4, C15)
    a, b, c = (_component(C15, Z4, block, None, 0) for block in [(0, 0), (1, 0), (0, 1)])
    overlap = CodeComponent(a.element + c.element, (0, 1), None, 0)
    check_components(alg, [a, b, c])
    with pytest.raises(ValueError, match="not a member"):
        check_components(alg, [a, b, overlap])


def test_component_validation():
    alg = GroupAlgebra(Z4, C15)
    c1 = _component(C15, Z4, (1, 0), None, 0)
    with pytest.raises(ValueError):
        CodeComponent(c1.element, (1, 0), None, 3)  # k > t
    with pytest.raises(ValueError):
        check_components(alg, [c1, c1])  # not orthogonal to itself
    not_idem = CodeComponent(alg.generator_power(0), (1, 0), None, 0)
    with pytest.raises(ValueError):
        check_components(alg, [not_idem])


def test_report_json_shape():
    alg = GroupAlgebra(Z4, C15)
    rep = analyze_code(alg, [_component(C15, Z4, (0, 0), None, 0)])
    d = rep.to_json_dict()
    for key in ("ring", "group", "components", "size", "size_method",
                "min_weight", "weight_method", "lower_bound", "upper_bound",
                "lower_bound_attained", "witness", "min_component_weight",
                "sum_matches_component_min"):
        assert key in d
    assert d["ring"] == "z4" and d["group"] == "3^1,5^1"
    assert d["size"] == 4 and d["min_weight"] == 15


# -- enumeration against the set-based reference -----------------------


def reference_rows(alg, components):
    """The closure walk of enumerate_codewords over a set of row bytes.

    Same generators, translates and row order; membership is a Python set of
    each row's bytes and every batch is concatenated onto the rows.
    """
    ring = alg.ring
    rows = np.zeros((1, alg.n), dtype=ring.dtype)
    seen = {rows[0].tobytes()}
    for comp in components:
        base = comp.element.scalar_mul(ring.s_pow_payload(comp.k))
        if base.is_zero():
            continue
        mults, mult_seen = [], set()
        for c in range(1, ring.size):
            row = ring.mul_arr(c, base.coeffs).astype(ring.dtype)
            if row.any() and row.tobytes() not in mult_seen:
                mult_seen.add(row.tobytes())
                mults.append(row)
        for k in grid_order(alg.group):
            shifted = [np.roll(m, k) for m in mults]
            if shifted[0].tobytes() in seen:
                continue
            reps = []
            for row in shifted:
                if row.tobytes() in seen:
                    continue
                if any(ring.sub_arr(row, rep).astype(ring.dtype).tobytes() in seen
                       for rep in reps):
                    continue
                reps.append(row)
            batches = [ring.add_arr(rows, rep).astype(ring.dtype) for rep in reps]
            rows = np.concatenate([rows] + batches)
            for batch in batches:
                seen.update(row.tobytes() for row in batch)
    return rows


REFERENCE_LIMIT_BITS = 12  # codes of at most 4096 words


@st.composite
def small_codes(draw, rings=("z2", "z4", "z8", "f2u2", "f2u3", "z512", "f2u9")):
    """1-3 distinct family members with k chosen so that |C| <= 2^12; at
    n = 75 a word spans two 64-bit lanes."""
    spec = draw(st.sampled_from([C15, GroupSpec((3, 5), (2, 1)), GroupSpec((3, 5), (1, 2))]))
    # z512 and f2u9 store payloads as uint16 and words as nine bit-planes
    ring = parse_ring(draw(st.sampled_from(rings)))
    fam = primitive_family(spec, ring)
    members = draw(st.lists(st.integers(0, len(fam) - 1), min_size=1, max_size=3, unique=True))
    ks = [draw(st.integers(0, ring.t)) for _ in members]
    dims = [component_dimension(spec, fam[i].block) for i in members]
    while sum((ring.t - k) * d for k, d in zip(ks, dims)) > REFERENCE_LIMIT_BITS:
        j = max(range(len(ks)), key=lambda j: (ring.t - ks[j]) * dims[j])
        ks[j] += 1
    comps = [CodeComponent(fam[i].element, fam[i].block, fam[i].split, k)
             for i, k in zip(members, ks)]
    return GroupAlgebra(ring, spec), comps


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_enumeration_matches_reference(case):
    alg, comps = case
    assert np.array_equal(enumerate_codewords(alg, comps).rows, reference_rows(alg, comps))


@settings(max_examples=40, deadline=None)
@given(small_codes())
def test_summands_are_own_walks(case):
    """The rows of an enumerated sum are the ring sums of the words of its
    members' own walks, the first member in the low bits."""
    alg, comps = case
    ring, n = alg.ring, alg.n
    words = enumerate_codewords(alg, comps)
    walks = summands(alg, comps)
    assert [len(walk) for walk in walks] == [code_size(alg, [c]) for c in comps]
    sums = walks[0].rows
    for walk in walks[1:]:  # row i_1 + s_1 i_2 is word i_1 plus word i_2
        sums = ring.add_arr(walk.rows[:, None, :], sums[None, :, :]).reshape(-1, n)
    assert np.array_equal(sums, words.rows)


def planes(words):
    """Every word of a CodewordSet as bit-planes of its quotient, shape
    (t - k, words, ceil(n/64))."""
    out = codes._zero_words(words.quotient, len(words))
    for start, block in words._blocks():
        out[:, start : start + block.shape[1]] = block
    return out


def summands(alg, comps):
    """Each component's own set: the walk that a sum of them shares."""
    return [enumerate_codewords(alg, [c]) for c in comps]


def first_lightest(rows):
    """(weight, row) of the first nonzero row of least Hamming weight; None if none."""
    w = np.count_nonzero(rows, axis=1)
    live = np.flatnonzero(w)
    if not live.size:
        return None
    i = live[np.argmin(w[live])]
    return int(w[i]), rows[i]


def assert_same_minimum(got, want):
    """got, a (weight, word) of min_nonzero or None, is want of first_lightest."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0] and np.array_equal(got[1].coeffs, want[1])


@settings(max_examples=40, deadline=None)
@given(small_codes())
def test_weights_count_nonzero_coefficients(case):
    """The popcount of the OR of a word's bit-planes is its Hamming weight:
    min_nonzero gives the first lightest nonzero row, over the whole set and
    over each member's walk."""
    alg, comps = case
    words = enumerate_codewords(alg, comps)
    for part in [words, *summands(alg, comps)]:
        assert_same_minimum(part.min_nonzero(), first_lightest(part.rows))


@settings(max_examples=60, deadline=None)
@given(small_codes(rings=("z2", "z4", "z8", "f2u3", "f2u9")), st.integers(1, 256))
def test_streamed_minimum_matches_reference(case, block_bytes):
    """With blocks of a few bytes a code spans many blocks, formed one at a
    time; its length, its rows and its first lightest nonzero word (weight
    and witness) are the reference walk's, for the sum and each member."""
    alg, comps = case
    ref = reference_rows(alg, comps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_BLOCK_BYTES", block_bytes)
        words = enumerate_codewords(alg, comps)
        assert len(words) == len(ref)
        assert np.array_equal(words.rows, ref)
        assert_same_minimum(words.min_nonzero(), first_lightest(ref))
        for comp, part in zip(comps, summands(alg, comps)):
            assert_same_minimum(part.min_nonzero(), first_lightest(reference_rows(alg, [comp])))


LIFTED_CASES = [(spec, ring) for spec in (C15, GroupSpec((3, 5), (2, 1)))
                for ring in ("z4", "z8", "f2u2", "f2u3")] + [(C15, "z65536")]  # t >= 2


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LIFTED_CASES), st.data())
def test_residue_weight_is_the_walked_weight(case, data):
    """For every member and every k < t - 1, the minimum weight of <s^k e>
    is that of its residue code <s^(t-1) e> = F2G e', e' = e mod s
    (residue_weight): the first lightest word of the reference walk of
    <s^(t-1) e>, a word of alg that s^(t-1) divides and e fixes.  k is drawn
    from those whose code has at most 2^16 words, so a member of dimension
    above 8 is not drawn."""
    spec, ring = case[0], parse_ring(case[1])
    alg = GroupAlgebra(ring, spec)
    rec = data.draw(st.sampled_from([r for r in primitive_family(spec, ring)
                                     if component_dimension(spec, r.block) <= 8]))
    d = component_dimension(spec, rec.block)
    k = data.draw(st.integers(max(0, ring.t - 16 // d), ring.t - 2))
    comp = CodeComponent(rec.element, rec.block, rec.split, k)
    weight, word = codes.residue_weight(alg, comp)
    assert weight == enumerate_codewords(alg, [comp]).min_nonzero()[0]
    residue = CodeComponent(rec.element, rec.block, rec.split, ring.t - 1)
    assert_same_minimum((weight, word), first_lightest(reference_rows(alg, [residue])))
    assert word.algebra == alg and not (word.coeffs & ((1 << (ring.t - 1)) - 1)).any()
    assert word * rec.element == word and word.weight() == weight


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LIFTED_CASES), st.data())
def test_quotient_walk_is_the_ring_walk(case, data):
    """<s^k e> is walked in (R/s^(t-k))G as the walk over R would walk it:
    for every member and every k < t whose code has at most 2^16 words, its
    t - k generator planes, raised by k, are _walk's over R, and its first
    lightest word, weight and witness, is that of the set walked over R."""
    spec, ring = case[0], parse_ring(case[1])
    alg = GroupAlgebra(ring, spec)
    rec = data.draw(st.sampled_from(primitive_family(spec, ring)))
    d = component_dimension(spec, rec.block)
    k = data.draw(st.integers(max(0, ring.t - 16 // d), ring.t - 1))
    comp = CodeComponent(rec.element, rec.block, rec.split, k)
    full = codes._walk(alg, comp.generator, code_size(alg, [comp]), comp.label_dict())
    words = enumerate_codewords(alg, [comp])
    assert words.k == k and words.gens.shape == (ring.t - k, *full.shape[1:])
    raised = np.zeros_like(full)
    raised[k:] = words.gens
    assert np.array_equal(raised, full)
    got, want = words.min_nonzero(), codes.CodewordSet(alg, full).min_nonzero()
    assert got[0] == want[0] and got[1] == want[1] and got[1].algebra == alg


@st.composite
def mixed_k_sums(draw):
    """Two family members at distinct k < t, with at most 2^12 words
    together, and a third at k = t (the zero code), in a drawn order."""
    spec = draw(st.sampled_from([C15, GroupSpec((3, 5), (2, 1))]))
    ring = parse_ring(draw(st.sampled_from(["z4", "z8", "f2u2", "f2u3"])))
    fam = primitive_family(spec, ring)
    dims = [component_dimension(spec, r.block) for r in fam]
    pairs = [(i, j, ki, kj) for i in range(len(fam)) for j in range(len(fam)) if i != j
             for ki in range(ring.t) for kj in range(ki + 1, ring.t)
             if (ring.t - ki) * dims[i] + (ring.t - kj) * dims[j] <= REFERENCE_LIMIT_BITS]
    i, j, ki, kj = draw(st.sampled_from(pairs))
    zero = draw(st.sampled_from([m for m in range(len(fam)) if m not in (i, j)]))
    comps = [CodeComponent(fam[m].element, fam[m].block, fam[m].split, k)
             for m, k in [(i, ki), (j, kj), (zero, ring.t)]]
    return GroupAlgebra(ring, spec), draw(st.permutations(comps))


@settings(max_examples=60, deadline=None)
@given(mixed_k_sums())
def test_mixed_k_sum_is_the_reference_walk(case):
    """A direct sum of members at distinct k < t and the zero code at k = t
    is walked in the quotient of its least live k, each member's planes
    raised to it: its rows and its first lightest word are the reference
    walk's."""
    alg, comps = case
    words, ref = enumerate_codewords(alg, comps), reference_rows(alg, comps)
    assert words.k == min(c.k for c in comps)
    assert np.array_equal(words.rows, ref)
    assert_same_minimum(words.min_nonzero(), first_lightest(ref))


def test_residue_weights_at_165():
    """The split members of the four split blocks at n = 165 over z4 weigh
    48, 48, 60 and 88 from their residue codes, as table --k 1 reports for
    (1,1,1) and (1,1,0)."""
    spec = GroupSpec((3, 5, 11), (1, 1, 1))
    alg = GroupAlgebra(Z4, spec)
    want = {(1, 1, 1): 48, (0, 1, 1): 48, (1, 0, 1): 60, (1, 1, 0): 88}
    for block, weight in want.items():
        comp = _component(spec, Z4, block, "(1)", 1)
        assert codes.residue_weight(alg, comp)[0] == weight, block


@pytest.mark.parametrize("delta", [-1, 1])
def test_residue_dimension_off_formula_names_member(monkeypatch, delta):
    """A residue code whose dimension is not the component's fails its walk
    at k = t - 1 (here 1) by its size checks, which name the member at that
    k: 16 words outgrow 2^3 and fall short of 2^5."""
    dimension = codes.component_dimension
    monkeypatch.setattr(codes, "component_dimension",
                        lambda spec, block: dimension(spec, block) + delta)
    comp = _component(C15, Z4, (1, 1), "(1)", 0)
    match = "closure outgrows the size formula" if delta < 0 else "16 words walked"
    with pytest.raises(InvariantError, match=r"member \{'block': \[1, 1\], 'split': '\(1\)', "
                                             rf"'k': 1\}}: {match}"):
        codes.residue_weight(GroupAlgebra(Z4, C15), comp)


# -- the span behind the walk's membership test ------------------------


def span_closure(ring, rows):
    """Every R-combination of the rows, as a set of row bytes."""
    words = np.zeros((1, rows.shape[1]), dtype=ring.dtype)
    for row in rows:
        mults = ring.mul_arr(np.arange(ring.size)[:, None], row)
        words = np.unique(ring.add_arr(words[:, None], mults[None]).reshape(-1, len(row)), axis=0)
    return {w.tobytes() for w in words}, words


def _valuation(ring, row):
    nonzero = [int(x) for x in row if x]
    return min(((x & -x).bit_length() - 1 for x in nonzero), default=ring.t)


@st.composite
def small_spans(draw):
    """1-3 rows of length n <= 4, scaled by s until their span has at most
    2^12 words (|R x| <= 2^(t - v) for v the least valuation in x), and
    some query vectors."""
    ring = parse_ring(draw(st.sampled_from(["z2", "z4", "z8", "z512", "f2u2", "f2u3", "f2u9"])))
    n = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(0, ring.mask), min_size=n, max_size=n)
    rows = np.array(draw(st.lists(vectors, min_size=1, max_size=3)), dtype=ring.dtype)
    s = ring.s_pow_payload(1)
    while sum(ring.t - _valuation(ring, row) for row in rows) > REFERENCE_LIMIT_BITS:
        j = min(range(len(rows)), key=lambda j: _valuation(ring, rows[j]))
        rows[j] = ring.mul_arr(s, rows[j])
    queries = np.array(draw(st.lists(vectors, min_size=1, max_size=8)), dtype=ring.dtype)
    return ring, rows, queries


@settings(max_examples=150, deadline=None)
@given(small_spans())
def test_span_matches_closure(case):
    """A residue of reduce is zero exactly for the span's elements, and
    every residue differs from its query by a span element.  Each row is
    kept once: 0 before its pivot p and s^v at p, the 2^(t - v) multiples
    of the rows multiplying to the span's word count."""
    ring, rows, queries = case
    span = codes._Span(ring)
    for row in rows:  # as in the walk: add the residue of a new vector
        span.add(span.reduce(row))
    members, words = span_closure(ring, rows)
    for p, (v, row) in span.rows.items():
        assert row.shape == rows[0].shape and not row[:p].any() and row[p] == 1 << v
    assert math.prod(1 << (ring.t - v) for v, _ in span.rows.values()) == len(members)
    X = np.concatenate([words, queries])
    res = span.reduce(X)
    for x, r in zip(X, res):
        assert (not r.any()) == (x.tobytes() in members)
        assert ring.sub_arr(x, r).tobytes() in members


def _walk_peak(alg, x, want):
    """(generator list, tracemalloc peak) of the walk of x."""
    tracemalloc.start()
    try:
        gens = codes._walk(alg, x, want, {})
        return gens, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ring_name", ["z65536", "f2u16"])
def test_walk_transient_bytes_are_bounded(ring_name):
    """The walk holds its generator list, at most n span rows of n payloads,
    the 2 t n payloads of its power table and one chunk of waiting
    translates' residues (t n payloads each, at most 64 KB), and no word:
    the 2^16 words of a t = 16 ring at n = 15 (2 MB as planes) peak less
    than five times those holdings above the same member's 2-word walk at
    k = t - 1, in (R/s)G as _Member.walk walks it, which measures numpy's
    and Python's fixed overhead."""
    ring = parse_ring(ring_name)
    alg, n, item = GroupAlgebra(ring, C15), C15.n, np.dtype(ring.dtype).itemsize
    member = family_member(C15, ring, (0, 0), None).element
    residue = codes._quotient(alg, ring.t - 1)
    _, fixed = _walk_peak(residue, AlgebraElem(residue, member.coeffs & residue.ring.mask),
                          code_size_formula(C15, ring, (0, 0), ring.t - 1))
    gens, peak = _walk_peak(alg, member, code_size_formula(C15, ring, (0, 0), 0))
    chunk = min(n, max(1, (1 << 16) // (ring.t * n * item)))  # translates per lookup (_walk)
    holdings = gens.nbytes + n * n * item + 2 * ring.t * n * item + chunk * ring.t * n * item
    assert gens.shape[1] == 16
    assert peak - fixed < 5 * holdings


@pytest.mark.parametrize("block_bytes", [1 << 16, 1 << 20])
@pytest.mark.parametrize("ring_name", ["z65536", "f2u16"])
def test_weighing_holds_one_block(monkeypatch, ring_name, block_bytes):
    """A walk and its weighing peak below twice the block bound, whatever
    the word count: the 2^16 words of a t = 16 ring at n = 15 take 2 MB of
    planes, and are weighed a block at a time, none of them stored."""
    monkeypatch.setattr(codes, "_BLOCK_BYTES", block_bytes)
    ring = parse_ring(ring_name)
    comp = _component(C15, ring, (0, 0), None, 0)
    comp.generator  # formed once, outside the walk
    tracemalloc.start()
    try:
        words = enumerate_codewords(GroupAlgebra(ring, C15), [comp])
        weight = words.min_nonzero()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 1 << 16 and weight == min_weight_formula(C15, (0, 0))
    assert peak < 2 * block_bytes


def test_row_width():
    """A block of words of <s^k e> is stored plane first: the t - k
    bit-planes of its quotient (R/s^(t-k))G, each a contiguous run of
    ceil(n/64) 64-bit lanes per word, whose bits past n are 0; one plane at
    k = t - 1.  At n = 75 a word spans two lanes, and each weight counts
    both."""
    spec75, spec165 = GroupSpec((3, 5), (1, 2)), GroupSpec((3, 5, 11), (1, 1, 1))
    for spec, ring_name, k in [(C15, "z512", 8), (C15, "f2u3", 2), (spec75, "z4", 1), (spec165, "z4", 1)]:
        ring = parse_ring(ring_name)
        comp = _component(spec, ring, (0,) * len(spec.primes), None, k)
        words = enumerate_codewords(GroupAlgebra(ring, spec), [comp])
        lanes = -(-spec.n // 64)
        assert planes(words).shape == (ring.t - k, len(words), lanes)
        assert words.gens.shape == (ring.t - k, len(words).bit_length() - 1, lanes)
        assert ring.t - k == 1 and words.gens.dtype == np.uint64
        assert words.gens.flags.c_contiguous  # not a view into wider rows
        assert not (planes(words)[..., -1] >> np.uint64(spec.n % 64 or 64)).any()
    assert planes(words)[:, 0].nbytes == 24  # z4 at n = 165 and k = 1, against 165 as payload bytes
    alg = GroupAlgebra(Z4, spec75)
    comps = [_component(spec75, Z4, (0, 1), None, 0), _component(spec75, Z4, (1, 1), "(1)", 1)]
    for part in [enumerate_codewords(alg, comps), *summands(alg, comps)]:
        assert_same_minimum(part.min_nonzero(), first_lightest(part.rows))


@pytest.mark.parametrize("factor", [0.25, 0.5, 2])
def test_wrong_size_formula_fails(monkeypatch, factor):
    """The walk never stops at the predicted size: a wrong formula raises.
    The walk passes 4, 16 and 64 words, so a quarter of the formula is a
    size it reaches exactly, and a half one it steps over."""
    alg = GroupAlgebra(Z4, C15)
    comp = _component(C15, Z4, (0, 1), None, 0)  # 256 words
    formula = codes.code_size_formula
    monkeypatch.setattr(codes, "code_size_formula", lambda spec, ring, block, k:
                        int(formula(spec, ring, block, k) * factor))
    with pytest.raises(InvariantError):
        enumerate_codewords(alg, [comp])
    # a budget between the wrong and the true size: a formula below it
    # passes the up-front gate and still fails as a wrong formula, one
    # above it is refused by the gate
    budget = 200 if factor < 1 else 256
    with pytest.raises(InvariantError if factor < 1 else BudgetExceeded):
        enumerate_codewords(alg, [comp], budget=budget)


@pytest.mark.parametrize("block, split, got, match", [
    ((0, 1), None, (7, None), "enumeration disagrees with formula"),  # the formula gives 6
    ((1, 1), "(1)", (3, None), "beats the lower bound"),  # the lower bound is 4
    ((1, 1), "(1)", (99, None), "exceeds a probe's weight"),  # the lightest probe weighs 10
])
def test_weigh_rejects_walked_weight(block, split, got, match):
    """_weigh raises on a walked weight off the closed form or outside the bounds."""
    comp = _component(C15, Z4, block, split, 0)
    with pytest.raises(InvariantError, match=match):
        codes._weigh(GroupAlgebra(Z4, C15), comp, got)


# -- member facts, formed once per process -----------------------------


def _clear_member_caches():
    codes._member.cache_clear()


def test_member_facts_formed_once(monkeypatch):
    """A code analysed twice, then codes sharing its members at other k:
    each (member, k) has one record and is walked once, a residue code
    being the walk of the member's record at k = t - 1 (here 1), whether a
    code or a residue weight formed it first, and every report equals the
    one a cold analysis makes."""
    walked = []  # each walk's label, at the k of its record's key
    walk = codes._walk
    monkeypatch.setattr(codes, "_walk", lambda alg, x, want, label: walked.append(
        (tuple(label["block"]), label["split"], label["k"])) or walk(alg, x, want, label))
    alg = GroupAlgebra(Z4, C15)
    split, other, third = (_component(C15, Z4, (1, 1), "(1)", 1), _component(C15, Z4, (1, 0), None, 0),
                           _component(C15, Z4, (0, 1), None, 1))
    split0, other1, third0 = (CodeComponent(c.element, c.block, c.split, 1 - c.k)
                              for c in (split, other, third))
    codes_in_turn = [[split, other], [split, other], [split0, third], [third0, other1]]
    warm = [analyze_code(alg, comps).to_json_dict() for comps in codes_in_turn]
    assert walked == [
        ((1, 1), "(1)", 1), ((1, 0), None, 0),  # the first sum; split's residue is its walk
        ((1, 0), None, 1),  # other's residue, read by the fourth sum as its walk
        ((1, 1), "(1)", 0), ((0, 1), None, 1),  # the third sum; third's residue is its walk
        ((0, 1), None, 0),  # the fourth sum
    ]
    info = codes._member.cache_info()
    # a component finds its record once, a record its residue record once:
    # the third and fourth codes find the residues (1,1)(1) and (0,1) at k = 1
    # formed, and the fourth its (1,0) at k = 1, the first code's residue
    assert (info.misses, info.hits) == (6, 3)
    assert warm[0] == warm[1]
    cold = []
    for comps in codes_in_turn:
        _clear_member_caches()
        cold.append(analyze_code(alg, comps).to_json_dict())
    assert cold == warm


RECORD_RINGS = ("z2", "z4", "z8", "z65536", "f2u2", "f2u3", "f2u16")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([C15, GroupSpec((3, 5), (2, 1))]), st.sampled_from(RECORD_RINGS))
def test_member_record_is_its_definitions(spec, ring_name):
    """Every member's record at every 0 <= k <= t holds its facts'
    definitions: e times the ring scalar s^k, the size formula, the closed
    form or, for a split member, the lower bound, and for a block whose one
    nonzero index i is at level j the step a_i^(p^j) - a_i^(p^(j-1))."""
    ring = parse_ring(ring_name)
    alg = GroupAlgebra(ring, spec)
    for rec in primitive_family(spec, ring):
        nonzero = [i for i, j in enumerate(rec.block) if j > 0]
        step = None
        if len(nonzero) == 1:
            (i,) = nonzero
            p, j = spec.primes[i], rec.block[i]
            step = alg.generator_power(i, p**j) - alg.generator_power(i, p ** (j - 1))
        for k in range(ring.t + 1):
            member = CodeComponent(rec.element, rec.block, rec.split, k).member
            label = (rec.block, rec.split, k)
            assert member.generator == rec.element.scalar_mul(ring.s_pow_payload(k)), label
            assert member.size == code_size_formula(spec, ring, rec.block, k), label
            assert member.exact == min_weight_formula(spec, rec.block), label
            if rec.split is not None:
                assert member.lower == min_weight_lower_bound(spec, rec.block, rec.split), label
            assert (member.step is None) if step is None else (member.step == step), label


def test_warm_analysis_forms_one_product():
    """A warm analysis of a single-index live member forms one RG product,
    in and over budget: its second probe, step * s^k e, whose step is on the
    member's record and whose product is formed on every call."""
    alg, rec = GroupAlgebra(Z4, C15), family_member(C15, Z4, (0, 1), None)
    products, mul = [], AlgebraElem.__mul__
    for budget in (DEFAULT_BUDGET, 100):  # 256 words
        analyze_code(alg, [CodeComponent(rec.element, rec.block, rec.split, 0)], budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AlgebraElem, "__mul__", lambda a, b: products.append(budget) or mul(a, b))
            rep = analyze_code(alg, [CodeComponent(rec.element, rec.block, rec.split, 0)], budget)
        assert rep.min_weight == 6 and rep.upper_bound is None
    assert products == [DEFAULT_BUDGET, 100]


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
SWEEP_REFERENCE = WORKLOADS.load_reference()["sweep"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["z2", "z4", "f2u3"]), st.data())
def test_warm_reports_are_cold_reports(ring_name, data):
    """A sweep code at n = 15 is reported alike with the member caches
    cleared and warmed by the same members at other k, and both reports
    have the digest frozen in bench/reference.json."""
    group, ring = "3^1,5^1", parse_ring(ring_name)
    families = {(group, ring_name): (GroupAlgebra(ring, C15), primitive_family(C15, ring))}
    count = len(families[(group, ring_name)][1])
    members = sorted(data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3, unique=True)))
    ks = st.integers(0, ring.t - 1)
    code = (group, ring_name, tuple((i, data.draw(ks)) for i in members))
    warmer = (group, ring_name, tuple((i, data.draw(ks)) for i in members))
    _clear_member_caches()
    cold = WORKLOADS.analyze(families, code)
    _clear_member_caches()
    WORKLOADS.analyze(families, warmer)
    warm = WORKLOADS.analyze(families, code)
    assert cold.to_json_dict() == warm.to_json_dict()
    assert WORKLOADS.report_digest(warm) == SWEEP_REFERENCE[WORKLOADS.code_key(code)]


def test_cold_records_report_as_warm_ones():
    """200 sweep-pool codes, drawn by a seed of their own, are reported alike
    with the record cache cleared before each analysis and with every
    record warm, and with the digests frozen in bench/reference.json."""
    families = WORKLOADS.build_families()
    drawn = WORKLOADS.draw_codes(3301, families)[:200]
    cold = []
    for code in drawn:
        _clear_member_caches()
        cold.append(WORKLOADS.analyze(families, code))
    for code in drawn:
        WORKLOADS.analyze(families, code)
    warm = [WORKLOADS.analyze(families, code) for code in drawn]
    assert [r.to_json_dict() for r in cold] == [r.to_json_dict() for r in warm]
    for code, rep in zip(drawn, warm):
        assert WORKLOADS.report_digest(rep) == SWEEP_REFERENCE[WORKLOADS.code_key(code)]


@pytest.mark.parametrize("case,match", [
    ("one coefficient changed", "not a member"),
    ("non-idempotent under a registered label", "not a member"),
    ("registered element under another split", "is the family member"),
])
def test_warm_label_is_still_certified(case, match):
    """With the records and walks of the split members of block (1,1) at
    k = 0 and their residue walks at k = 1 already formed, a component
    forged under one of their labels is still refused by check_components,
    and forms no record."""
    alg = GroupAlgebra(Z4, C15)
    one, two = _component(C15, Z4, (1, 1), "(1)", 0), _component(C15, Z4, (1, 1), "(2)", 0)
    for comps in ([one], [two], [one, two]):
        analyze_code(alg, comps)
    records = codes._member.cache_info()
    assert records.currsize == 4
    forged_alg, forged = _forged(case)
    with pytest.raises(ValueError, match=match) as exc:
        analyze_code(forged_alg, forged)
    assert exc.traceback[-1].name == "check_components"
    assert codes._member.cache_info() == records
