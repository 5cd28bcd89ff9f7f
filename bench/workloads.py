"""Inputs of the rgcodes benchmark workloads and their frozen references.

``family`` and ``table`` run CLI commands; their inputs are fixed and the
seed only orders them.  ``sweep`` analyses 400 small codes drawn by the
seed from a fixed pool: every code of 1-3 distinct members of one family
over n in {15, 45} and the rings z2, z4, z8, f2u2, f2u3, with a k < t
per member.  The pool has 5,855 codes, and bench/reference.json holds a
digest of the analysis of each, frozen by bench/freeze.py, so any seed
can be checked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

CLI_COMMANDS = {
    "family": (
        ("idempotents", "--ring", "z4", "--group", "3^2,5^1,11^1"),
        ("idempotents", "--ring", "f2u3", "--group", "3^1,5^1,11^1"),
    ),
    "table": (
        ("table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "0"),
        ("table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "1"),
    ),
}

SWEEP_GROUPS = ("3^1,5^1", "3^2,5^1")
SWEEP_RINGS = ("z2", "z4", "z8", "f2u2", "f2u3")
SWEEP_CODES = 400
SWEEP_BUDGET = 4096
DEFAULT_SEED = 2509


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def command_key(argv) -> str:
    return " ".join(argv)


def build_families() -> dict:
    """(group, ring) -> (GroupAlgebra, family records) for the sweep pool."""
    from rgcodes import GroupAlgebra, parse_group, parse_ring
    from rgcodes.idempotents import primitive_family

    out = {}
    for group in SWEEP_GROUPS:
        for ring_name in SWEEP_RINGS:
            spec, ring = parse_group(group), parse_ring(ring_name)
            out[(group, ring_name)] = (GroupAlgebra(ring, spec), primitive_family(spec, ring))
    return out


def pool(families):
    """Every sweep code: (group, ring, ((member, k), ...)), members ascending."""
    for (group, ring_name), (alg, records) in families.items():
        for size in (1, 2, 3):
            for members in itertools.combinations(range(len(records)), size):
                for ks in itertools.product(range(alg.ring.t), repeat=size):
                    yield group, ring_name, tuple(zip(members, ks))


def draw_codes(seed: int, families) -> list:
    """SWEEP_CODES codes, the same number from each family and member count.

    Stratifying keeps the mix, and so the time of a pass, close between
    seeds; the seed picks the members, their k and the order.
    """
    rng = random.Random(seed)
    per_family = SWEEP_CODES // len(families)
    codes = []
    for (group, ring_name), (alg, records) in families.items():
        for j in range(per_family):
            members = sorted(rng.sample(range(len(records)), 1 + j % 3))
            codes.append((group, ring_name,
                          tuple((i, rng.randrange(alg.ring.t)) for i in members)))
    rng.shuffle(codes)
    return codes


def code_key(code) -> str:
    group, ring_name, members = code
    return f"{group}|{ring_name}|" + ",".join(f"{i}:{k}" for i, k in members)


def analyze(families, code):
    from rgcodes.codes import CodeComponent, analyze_code

    group, ring_name, members = code
    alg, records = families[(group, ring_name)]
    comps = [
        CodeComponent(records[i].element, records[i].block, records[i].split, k)
        for i, k in members
    ]
    return analyze_code(alg, comps, SWEEP_BUDGET)


def report_digest(report) -> str:
    return digest(json.dumps(report.to_json_dict()).encode())


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
