"""Command-line front end.

Commands: validate, idempotents, code, table, selftest.  Output is JSON
by default (deterministic: fixed key order, no timestamps), with csv and
text renderings for quick reading.  The JSON is the text of
json.dumps(payload, indent=2), written by _json, which formats each
algebra element's terms straight from its coefficient array.  Integer
options take ASCII digits only.  An --out file is created or
truncated before the work, as a shell redirect would be, so a path that
cannot be written fails at once.  Exit codes: 0 success, 1 usage,
parse or output-file error, 2 a group outside the hypotheses (validate's
report, or arith.InvalidGroup), 3 out of memory in an allocation the
budget admitted, 4 a mathematical invariant failed (a bug, not a bad
input); selftest exits 1 when a criterion fails.  A code over the budget
is not an error: its size comes from the formula, and it is not walked
whole.  Every code report, the table's closed-form rows included, comes
from analyze_code, and a csv row is one of a command's records.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from json.encoder import encode_basestring_ascii

from .arith import InvalidGroup, InvariantError, parse_group, require_valid, validate_group
from .chain_ring import FAMILY_INT, parse_ring
from .codes import DEFAULT_BUDGET, CodeComponent, analyze_code
from .group_algebra import AlgebraElem, GroupAlgebra
from .idempotents import FAMILY_CHECKS, family_member, primitive_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are 1 here
        raise UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer option in at most 18 ASCII digits (int() reads
    the digits of every script)."""
    if re.fullmatch(r"[0-9]{1,18}", text) is None:
        raise argparse.ArgumentTypeError(f"want at most 18 ASCII digits 0-9, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="rgcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True, budget=False):
        if ring:
            p.add_argument("--ring", required=True, help="ring designator: z4, z8, f2u2, ...")
        p.add_argument("--group", required=True, help='group designator: "3^1,5^1,11^1"')
        if budget:
            p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                           help="maximum number of words to enumerate")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate", help="check the group-order hypotheses")
    common(p, ring=False)

    p = sub.add_parser("idempotents", help="emit the full primitive idempotent family")
    common(p)

    p = sub.add_parser("code", help="analyze one cyclic code <s^k e>")
    common(p, budget=True)
    p.add_argument("--block", required=True, help='block label, e.g. "1,0"')
    p.add_argument("--split", help="split tag for a block with l >= 2 nonzero indices: 1..2^(l-1)")
    p.add_argument("--k", type=_count, required=True, help="power of the uniformizer")

    p = sub.add_parser("table", help="emit the worked example table for n = 165 over z4")
    common(p, budget=True)
    p.add_argument("--k", type=_count, required=True, help="power of the uniformizer (0 or 1)")

    sub.add_parser("selftest", help="run the acceptance suite")

    return parser


def _cell(value):
    """A csv cell: a list, such as a block vector, joined with commas."""
    return ",".join(map(str, value)) if isinstance(value, list) else value


def _json(obj, pad="\n") -> str:
    """The text of json.dumps(obj, indent=2), nested at pad (a newline and the
    indent of obj's closing bracket).  An AlgebraElem writes its json_terms()."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is True or obj is False or obj is None:  # before int: bool is an int
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, AlgebraElem):
        return obj.json_text(pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, list):
        return "[" + ",".join(inner + _json(v, inner) for v in obj) + pad + "]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload: dict, header, records, lines):
    """Write payload as JSON, records as csv rows of the header's keys, or lines."""
    out = args.out or sys.stdout
    if args.format == "json":
        out.write(_json(payload) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows([_cell(r[h]) for h in header] for r in records)
    else:
        out.write("\n".join(lines) + "\n")


def cmd_validate(args) -> int:
    spec = parse_group(args.group)
    report = validate_group(spec)
    payload = {
        "group": spec.designator(),
        "valid": report.ok,
        "conditions": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in report.checks
        ],
    }
    lines = [f"group {spec}: {'valid' if report.ok else 'INVALID'}"] + [
        f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}"
        for name, ok, detail in report.checks
    ]
    _emit(args, payload, ["name", "ok", "detail"], payload["conditions"], lines)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_idempotents(args) -> int:
    ring = parse_ring(args.ring)
    spec = parse_group(args.group)
    records = primitive_family(spec, ring)  # raises InvalidGroup for a bad group
    checks = dict.fromkeys(FAMILY_CHECKS, True)  # primitive_family raises on a false flag
    payload = {
        "ring": ring.designator(),
        "group": spec.designator(),
        "count": len(records),
        "records": [
            {"block": list(r.block), "split": r.split, "method": r.method, "element": r.element}
            for r in records
        ],
        "checks": checks,
    }
    rows = [{**d, "weight": r.element.weight()} for d, r in zip(payload["records"], records)]
    lines = [f"{len(records)} primitive idempotents of {ring.designator()}[{spec}]"] + [
        f"  block ({','.join(map(str, r.block))}) split {r.split or '-'} "
        f"method {r.method} weight {r.element.weight()}"
        for r in records
    ] + [f"checks: {checks}"]
    _emit(args, payload, ["block", "split", "method", "weight"], rows, lines)
    return EXIT_OK


def _split_tag(raw):
    if raw is None:
        return None
    m = re.fullmatch(r"([1-9][0-9]*)|\(([1-9][0-9]*)\)", raw.strip())
    if m is None:
        raise UsageError(f"unknown split tag {raw!r}")
    return f"({m.group(1) or m.group(2)})"


def cmd_code(args) -> int:
    ring = parse_ring(args.ring)
    spec = parse_group(args.group)
    require_valid(spec)
    try:
        block = tuple(_count(x) for x in args.block.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad block label {args.block!r}") from None
    split = _split_tag(args.split)
    if args.k > ring.t:
        raise UsageError(f"need 0 <= k <= {ring.t}")
    rec = family_member(spec, ring, block, split)
    if rec is None:
        raise UsageError(
            f"no family member with block {block} split {split};"
            " multi-index blocks need --split"
        )
    comp = CodeComponent(rec.element, rec.block, rec.split, args.k)
    alg = GroupAlgebra(ring, spec)
    report = analyze_code(alg, [comp], args.budget)
    payload = report.to_json_dict()
    lines = [f"{key}: {payload[key]}" for key in payload if key != "witness"]
    _emit(args, payload,
          ["ring", "group", "block", "split", "k", "size", "size_method",
           "min_weight", "lower_bound", "upper_bound", "weight_method"],
          [{**payload, **payload["components"][0]}], lines)
    return EXIT_OK


# The paper's worked example: (block, split, generator label) at j_i = 1.
# cmd_table admits only z4 and the primes (3, 5, 11), so these are its rows.
TABLE_ROWS = (
    ((0, 0, 0), None, "h(a1)h(a2)h(a3)"),
    ((1, 0, 0), None, "(h(a1^3)-h(a1))h(a2)h(a3)"),
    ((0, 1, 0), None, "(h(a2^5)-h(a2))h(a1)h(a3)"),
    ((0, 0, 1), None, "(h(a3^11)-h(a3))h(a1)h(a2)"),
    ((1, 1, 0), "(1)", "e(1)[u1u2+u1^2u2^2]h(a3)"),
    ((1, 1, 1), "(1)", "e(1)[u1u2u3+u1^2u2^2u3^2]"),
)


def cmd_table(args) -> int:
    ring = parse_ring(args.ring)
    spec = parse_group(args.group)
    if ring.family != FAMILY_INT or ring.t != 2:
        raise UsageError("the table is defined over the ring z4")
    if spec.primes != (3, 5, 11):
        raise UsageError("the table needs a group 3^n1,5^n2,11^n3")
    require_valid(spec)
    if args.k >= ring.t:
        raise UsageError("need 0 <= k < 2")
    k = args.k
    alg = GroupAlgebra(ring, spec)
    rows = []
    for block, split, label in TABLE_ROWS:
        comp = CodeComponent(family_member(spec, ring, block, split).element, block, split, k)
        # budget 0: a closed-form row is not enumerated ((0,0,1) has 2^20 words at k = 0)
        rep = analyze_code(alg, [comp], args.budget if split else 0)
        rows.append({
            "code": f"<s^{k} {label}>",
            "block": list(block),
            "split": split,
            "k": k,
            "words": rep.size,
            "paper_blank": split is not None,
            "weight": rep.min_weight,
            "weight_method": rep.weight_method,
            "lower_bound": rep.lower_bound,
            "upper_bound": rep.upper_bound,
            "generator_weight": comp.generator.weight(),
        })

    payload = {
        "ring": ring.designator(),
        "group": spec.designator(),
        "k": k,
        "j": [1, 1, 1],
        "rows": rows,
    }
    width = max(len(r["code"]) for r in rows)
    lines = [f"ring {payload['ring']}, group {payload['group']}, k={k}"] + [
        f"  {r['code']:<{width}}  words {r['words']:>8}  weight "
        + (str(r["weight"]) if r["weight"] is not None
           else f"in [{r['lower_bound']}, {r['upper_bound']}]")
        + ("  (blank in source table)" if r["paper_blank"] else "")
        for r in rows
    ]
    _emit(args, payload,
          ["code", "block", "split", "k", "words", "weight", "weight_method",
           "lower_bound", "upper_bound", "generator_weight", "paper_blank"],
          rows, lines)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    return EXIT_OK if all(r.ok for r in results) else EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    digits = sys.get_int_max_str_digits()
    try:
        args = parser.parse_args(argv)
        handler = {
            "validate": cmd_validate,
            "idempotents": cmd_idempotents,
            "code": cmd_code,
            "table": cmd_table,
            "selftest": cmd_selftest,
        }[args.command]
        # every input is read by now, under the limit; a word count such as
        # 2^14496 (z65536, n = 907) prints with more digits than it allows
        sys.set_int_max_str_digits(0)
        if getattr(args, "out", None):  # the path becomes the open file
            with open(args.out, "w") as args.out:
                return handler(args)
        return handler(args)
    except InvalidGroup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (UsageError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an allocation the budget admitted
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
