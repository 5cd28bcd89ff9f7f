import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcodes import cli, idempotents
from rgcodes.arith import GroupSpec, InvariantError, block_labels
from rgcodes.chain_ring import F2, parse_ring
from rgcodes.f2_oracle import primitive_idempotents_f2
from rgcodes.group_algebra import AlgebraElem, GroupAlgebra
from rgcodes.idempotents import (
    IdempotentRecord,
    block_idempotent,
    lift_idempotent,
    primitive_family,
    split_block_2,
    split_block_3,
    u_element,
    u_product_pair,
    verify_family,
)

C3 = GroupSpec((3,), (1,))
C15 = GroupSpec((3, 5), (1, 1))
C45 = GroupSpec((3, 5), (2, 1))
C165 = GroupSpec((3, 5, 11), (1, 1, 1))
C3135 = GroupSpec((3, 5, 11, 19), (1, 1, 1, 1))
Z4 = parse_ring("z4")


def lifted_oracle(spec, ring):
    """The F2 oracle's primitives lifted to R, independent of the closed forms."""
    return [lift_idempotent(f, ring) for f in primitive_idempotents_f2(spec)]


def test_c3_family_over_z4():
    alg = GroupAlgebra(Z4, C3)
    fam = primitive_family(C3, Z4)
    elems = [r.element for r in fam]
    assert elems[0] == alg.element([3, 3, 3])
    assert elems[1] == alg.element([2, 1, 1])
    assert [r.block for r in fam] == [(0,), (1,)]
    assert all(r.split is None for r in fam)


def test_u_element_supports():
    """u(C_p) has the quadratic-residue support, plus 1 when p = 3 mod 4."""
    for p, want in [(3, {0, 1}), (5, {1, 4}), (11, {0, 1, 3, 4, 5, 9})]:
        alg = GroupAlgebra(F2, GroupSpec((p,), (1,)))
        u = u_element(alg, 0, 1)
        assert {m[0] for m, _ in u.pairs()} == want


def test_block_idempotents_partition_unity():
    for ring in (Z4, parse_ring("f2u2")):
        alg = GroupAlgebra(ring, C15)
        blocks = [(0, 0), (1, 0), (0, 1), (1, 1)]
        es = [block_idempotent(alg, b) for b in blocks]
        total = alg.zero()
        for e in es:
            assert e.is_idempotent()
            total = total + e
        assert total == alg.one()


def block_idempotent_by_products(alg, block):
    """Reference: the product over the factors of hat differences, r - 1 products."""
    out = alg.one()
    for i, j in enumerate(block):
        out = out * (alg.factor_hat(i, 0) if j == 0
                     else alg.factor_hat(i, j) - alg.factor_hat(i, j - 1))
    return out


# valid groups with r <= 4 factors and exponents <= 3
HAT_GROUPS = (C3, C15, C45, GroupSpec((3, 5), (3, 1)), C165,
              GroupSpec((3, 5, 11), (2, 1, 1)), C3135)
HAT_RINGS = ("z2", "z4", "z65536", "f2u3", "f2u16")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_block_idempotent_is_product_of_hat_differences(data):
    """The signed sum of 2^l hats equals the product of factor-hat differences."""
    group = data.draw(st.sampled_from(HAT_GROUPS), label="group")
    alg = GroupAlgebra(parse_ring(data.draw(st.sampled_from(HAT_RINGS), label="ring")), group)
    block = data.draw(st.sampled_from(block_labels(group)), label="block")
    assert block_idempotent(alg, block) == block_idempotent_by_products(alg, block)


def test_block_idempotent_forms_no_product(monkeypatch):
    """block_idempotent adds and subtracts hats; it never multiplies in RG."""
    calls = []
    mul = AlgebraElem.__mul__
    monkeypatch.setattr(AlgebraElem, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for group in (GroupSpec((3, 5, 11), (2, 1, 1)), C3135):
        alg = GroupAlgebra(Z4, group)
        for block in block_labels(group):
            block_idempotent(alg, block)
    assert not calls


def refuse_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("an RG product was formed")

    monkeypatch.setattr(AlgebraElem, "__mul__", refuse)


def test_lift_idempotent_forms_no_product(monkeypatch):
    """The check on f is one gather, and the t - 1 squarings and the check on
    the lift run on coset values: no RG product, whatever t is."""
    prims = primitive_idempotents_f2(C165)
    refuse_products(monkeypatch)
    for ring_name in ("z2", "z4", "z8", "z65536", "f2u1", "f2u3", "f2u16"):
        ring = parse_ring(ring_name)
        for f in prims:
            assert lift_idempotent(f, ring).reduce_f2() == f


def test_family_products_have_a_sparse_operand(monkeypatch):
    """At n = 3135 the family's only RG products form x = u_{i_1} u_i from
    the u-elements: each has an operand of at most max q_i terms.  Lifting,
    the split and the certificate run on coset values."""
    terms = []
    mul = AlgebraElem.__mul__

    def record(x, y):
        terms.append(min(x.weight(), y.weight()))
        return mul(x, y)

    primitive_family.cache_clear()
    monkeypatch.setattr(AlgebraElem, "__mul__", record)
    assert len(primitive_family(C3135, Z4)) == 41
    assert terms and max(terms) <= max(C3135.factor_orders)


def test_split_block_2_members():
    alg = GroupAlgebra(Z4, C15)
    assert split_block_2 is split_block_3 is idempotents.split_block  # names bench/tracer.py wraps
    e1, e2 = split_block_2(alg, (1, 1))
    assert e1.is_idempotent() and e2.is_idempotent()
    assert (e1 * e2).is_zero()
    assert e1 + e2 == block_idempotent(alg, (1, 1))
    fam = lifted_oracle(C15, Z4)
    assert any(e1 == f for f in fam) and any(e2 == f for f in fam)


def test_u_product_pair_is_first_split_member():
    alg = GroupAlgebra(Z4, C15)
    assert u_product_pair(alg, (1, 1)) == split_block_2(alg, (1, 1))[0]


def test_split_block_3_members():
    alg = GroupAlgebra(Z4, C165)
    members = split_block_3(alg, (1, 1, 1))
    assert len(members) == 4
    total = alg.zero()
    for e in members:
        assert e.is_idempotent()
        total = total + e
    assert total == block_idempotent(alg, (1, 1, 1))
    for i in range(4):
        for j in range(i + 1, 4):
            assert (members[i] * members[j]).is_zero()


def test_three_factor_bare_pair_decomposes():
    """(u1u2u3 + u1^2u2^2u3^2)^{2^{t-1}} is idempotent but not primitive:
    it is the sum of exactly three members of the full-block family."""
    alg = GroupAlgebra(Z4, C165)
    bare = u_product_pair(alg, (1, 1, 1))
    assert bare.is_idempotent()
    fam = lifted_oracle(C165, Z4)
    assert not any(bare == f for f in fam)
    parts = [f for f in fam if f * bare == f]  # components under bare
    assert len(parts) == 3
    total = alg.zero()
    for f in parts:
        total = total + f
    assert total == bare


def test_lift_idempotent_roundtrip():
    prims = primitive_idempotents_f2(C15)
    for ring_name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(ring_name)
        for f in prims:
            e = lift_idempotent(f, ring)
            assert e.is_idempotent()
            assert e.reduce_f2() == f


def test_primitive_family_verifies():
    for ring_name in ("z2", "z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(ring_name)
        fam = primitive_family(C15, ring)
        verify_family([r.element for r in fam], GroupAlgebra(ring, C15))  # raises on a false flag


def test_verify_family_flags_non_adjacent_overlap():
    """Members 1 and 3 overlap, every other pair is orthogonal: the running
    sum catches what a check of adjacent pairs alone would miss.  The error
    names every false flag in order: e_0 + e_2 is idempotent, but the three
    do not sum to one and are not the five members of the family."""
    alg = GroupAlgebra(Z4, C15)
    e = [r.element for r in primitive_family(C15, Z4)]
    with pytest.raises(InvariantError) as exc:
        verify_family([e[0], e[1], e[0] + e[2]], alg)
    assert str(exc.value) == ("GroupAlgebra(z4, 3^1,5^1): the family fails its certificate: "
                              "orthogonal, sum_to_one, count_matches_formula")


def test_family_sizes():
    assert len(primitive_family(C3, Z4)) == 2
    assert len(primitive_family(C15, Z4)) == 5
    assert len(primitive_family(GroupSpec((3, 5), (2, 1)), Z4)) == 8
    assert len(primitive_family(C165, Z4)) == 14


def test_family_block_structure_at_165():
    fam = primitive_family(C165, Z4)
    by_block = {}
    for r in fam:
        by_block.setdefault(r.block, []).append(r)
    # 2^(l-1) members per block, l = number of nonzero block indices
    for block, recs in by_block.items():
        l = sum(1 for j in block if j)
        assert len(recs) == 1 << max(l - 1, 0)
    # every member carries a closed-form construction at r = 3
    assert all(r.method == "paper-formula" for r in fam)
    full = by_block[(1, 1, 1)]
    assert [r.split for r in full] == ["(1)", "(2)", "(3)", "(4)"]


def test_records_sorted_by_block_then_split():
    fam = primitive_family(C15, Z4)
    assert [(r.block, r.split) for r in fam] == [
        ((0, 0), None), ((0, 1), None), ((1, 0), None),
        ((1, 1), "(1)"), ((1, 1), "(2)")]


def test_record_json_shape(capsys):
    """A record of the idempotents command's JSON."""
    assert cli.main(["idempotents", "--ring", "z4", "--group", "3^1"]) == 0
    d = json.loads(capsys.readouterr().out)["records"][1]
    assert set(d) == {"block", "split", "method", "element"}
    assert d["block"] == [1]
    assert d["element"][0] == [[0], "2"]


def test_record_is_frozen():
    rec = primitive_family(C3, Z4)[0]
    with pytest.raises(Exception):
        rec.block = (9,)


def block_home(f):
    """The block of a primitive idempotent f of F2 G, by no dense product.
    f * hat(H) is f or 0, and it is f iff a generator of H fixes f, so f
    lies under hat(<a_i^(p_i^j)>) - hat(<a_i^(p_i^(j-1))>) for the least
    level j whose generator fixes f (j = 0 if a_i itself does)."""
    alg, spec = f.algebra, f.algebra.group
    return tuple(next(j for j in range(e + 1) if f * alg.generator_power(i, p**j) == f)
                 for i, (p, e) in enumerate(zip(spec.primes, spec.exponents)))


def test_block_home_is_the_block_product():
    """block_home(f) is the one block b with f * blk_b == f, on every oracle
    primitive of 3^2,5^1 and 3^1,5^1,11^1."""
    for group in (C45, C165):
        f2alg = GroupAlgebra(F2, group)
        blocks = {b: block_idempotent(f2alg, b) for b in block_labels(group)}
        for f in primitive_idempotents_f2(group):
            assert [b for b, blk in blocks.items() if f * blk == f] == [block_home(f)]


@pytest.mark.parametrize("group,rings", [
    (C15, ("z2", "z4", "z8", "f2u2", "f2u3", "z65536", "f2u16")),
    (C45, ("z2", "z4", "z8", "f2u2", "f2u3")),
    (C165, ("z4", "f2u3")),
    (C3135, ("z4",)),
], ids=["3^1,5^1", "3^2,5^1", "3^1,5^1,11^1", "3^1,5^1,11^1,19^1"])
def test_family_matches_lifted_oracle(group, rings):
    """Reference construction: lift every oracle primitive and home it in
    its block by the subgroups that fix its residue (block_home)."""
    blocks = block_labels(group)
    for ring_name in rings:
        ring = parse_ring(ring_name)
        fam = primitive_family(group, ring)
        want = lifted_oracle(group, ring)
        assert len(fam) == len(want)
        assert all(any(r.element == e for e in want) for r in fam)
        for r in fam:
            assert block_home(r.element.reduce_f2()) == r.block
        # every block, l >= 4 included, is tagged (1)..(2^(l-1)) from the closed form
        assert all(r.method == "paper-formula" for r in fam)
        for block in blocks:
            l = sum(1 for j in block if j)
            tags = [r.split for r in fam if r.block == block]
            assert tags == ([None] if l <= 1 else [f"({i})" for i in range(1, (1 << (l - 1)) + 1)])


def test_mislabelled_members_raise(monkeypatch):
    """Swap the second members of the blocks (1,1) and (2,1) of 3^2,5^1:
    every member is still a lifted oracle primitive, but the labels lie."""
    real = idempotents.split_block

    def swapped(alg, block):
        block = tuple(block)
        if block not in ((1, 1), (2, 1)):
            return real(alg, block)
        (a1, a2), (b1, b2) = real(alg, (1, 1)), real(alg, (2, 1))
        return {(1, 1): [a1, b2], (2, 1): [b1, a2]}[block]

    monkeypatch.setattr(idempotents, "split_block", swapped)
    primitive_family.cache_clear()
    with pytest.raises(InvariantError, match="do not sum to the block idempotent"):
        primitive_family(C45, Z4)


def test_mislabelled_members_raise_under_optimize():
    """The same check in a python -O interpreter, where asserts are stripped."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_mislabelled_members_raise"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_lift_rejects_non_idempotent():
    """The F2 monomial a_1 is no idempotent, so it has no lift."""
    with pytest.raises(ValueError, match="not idempotent"):
        lift_idempotent(GroupAlgebra(F2, C3).generator_power(0, 1), Z4)


def test_lift_checks_its_residue(monkeypatch):
    """A lift that does not reduce to f raises, even when it is idempotent:
    a coset product that gives zero leaves the lift 0, and 0 * 0 = 0."""
    f = primitive_idempotents_f2(C3)[1]
    monkeypatch.setattr(idempotents, "coset_product", lambda ring, tensor, x, y: np.zeros_like(x))
    with pytest.raises(InvariantError, match="reducing to f"):
        lift_idempotent(f, Z4)


def test_family_uses_each_oracle_primitive(monkeypatch):
    """An oracle primitive that no member reduces to (here the F2 identity) raises."""
    real = idempotents.primitive_idempotents_f2
    monkeypatch.setattr(idempotents, "primitive_idempotents_f2",
                        lambda spec: real(spec) + (GroupAlgebra(F2, spec).one(),))
    primitive_family.cache_clear()
    with pytest.raises(InvariantError, match="does not use each oracle primitive once"):
        primitive_family(C15, Z4)
