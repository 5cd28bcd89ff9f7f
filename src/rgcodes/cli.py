"""Command-line front end.

Commands: validate, idempotents, code, table, selftest.  Output is JSON
by default (deterministic: fixed key order, no timestamps), with csv and
text renderings for quick reading.  An --out file is created or
truncated before the work, as a shell redirect would be, so a path that
cannot be written fails at once.  Exit codes: 0 success, 1 usage,
parse or output-file error, 2 validation failure, 3 enumeration budget
exceeded, 4 a mathematical invariant failed (a bug, not a bad input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .arith import InvariantError, parse_group, validate_group
from .chain_ring import FAMILY_INT, parse_ring
from .codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeComponent,
    analyze_code,
    code_size_formula,
    min_weight_formula,
)
from .group_algebra import GroupAlgebra
from .idempotents import primitive_family, verify_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are 1 here
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rgcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True, budget=False):
        if ring:
            p.add_argument("--ring", required=True, help="ring designator: z4, z8, f2u2, ...")
        p.add_argument("--group", required=True, help='group designator: "3^1,5^1,11^1"')
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="maximum number of words to enumerate")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate", help="check the group-order hypotheses")
    p.add_argument("--ring", help="optional ring designator, parsed for errors")
    common(p, ring=False)

    p = sub.add_parser("idempotents", help="emit the full primitive idempotent family")
    common(p)

    p = sub.add_parser("code", help="analyze one cyclic code <s^k e>")
    common(p, budget=True)
    p.add_argument("--block", required=True, help='block label, e.g. "1,0"')
    p.add_argument("--split", help="split tag for a block with l >= 2 nonzero indices: 1..2^(l-1)")
    p.add_argument("--k", type=int, required=True, help="power of the uniformizer")

    p = sub.add_parser("table", help="emit the worked example table for n = 165 over z4")
    common(p, budget=True)
    p.add_argument("--k", type=int, required=True, help="power of the uniformizer (0 or 1)")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return parser


def _write(text: str, out):
    (out or sys.stdout).write(text)


def _emit(payload: dict, fmt: str, out, csv_rows=None, text_lines=None):
    if fmt == "json":
        _write(json.dumps(payload, indent=2) + "\n", out)
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv output is not available for this command")
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        _write(buf.getvalue(), out)
    else:
        _write("\n".join(text_lines or [json.dumps(payload)]) + "\n", out)


def cmd_validate(args) -> int:
    if getattr(args, "ring", None):
        parse_ring(args.ring)
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
    rows = [[c["name"], c["ok"], c["detail"]] for c in payload["conditions"]]
    lines = [f"group {spec}: {'valid' if report.ok else 'INVALID'}"] + [
        f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}"
        for name, ok, detail in report.checks
    ]
    _emit(payload, args.format, args.out, (["name", "ok", "detail"], rows), lines)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_idempotents(args) -> int:
    ring = parse_ring(args.ring)
    spec = parse_group(args.group)
    _require_valid_or_exit(spec)
    records = primitive_family(spec, ring)
    alg = GroupAlgebra(ring, spec)
    checks = verify_family([r.element for r in records], alg)
    payload = {
        "ring": ring.designator(),
        "group": spec.designator(),
        "count": len(records),
        "records": [r.to_json_dict() for r in records],
        "checks": checks,
    }
    rows = [
        [",".join(map(str, r.block)), r.split or "", r.method, r.element.weight()]
        for r in records
    ]
    lines = [f"{len(records)} primitive idempotents of {ring.designator()}[{spec}]"] + [
        f"  block ({','.join(map(str, r.block))}) split {r.split or '-'} "
        f"method {r.method} weight {r.element.weight()}"
        for r in records
    ] + [f"checks: {checks}"]
    _emit(payload, args.format, args.out,
          (["block", "split", "method", "weight"], rows), lines)
    return EXIT_OK


def _require_valid_or_exit(spec):
    report = validate_group(spec)
    if not report.ok:
        raise ValidationError(f"group {spec} is invalid: " + "; ".join(report.failures))


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
    _require_valid_or_exit(spec)
    try:
        block = tuple(int(x) for x in args.block.split(","))
    except ValueError:
        raise UsageError(f"bad block label {args.block!r}") from None
    split = _split_tag(args.split)
    if not 0 <= args.k <= ring.t:
        raise UsageError(f"need 0 <= k <= {ring.t}")
    records = primitive_family(spec, ring)
    matches = [r for r in records if r.block == block and r.split == split]
    if len(matches) != 1:
        raise UsageError(
            f"no family member with block {block} split {split};"
            " multi-index blocks need --split"
        )
    rec = matches[0]
    comp = CodeComponent(rec.element, rec.block, rec.split, args.k)
    alg = GroupAlgebra(ring, spec)
    report = analyze_code(alg, [comp], args.budget)
    payload = report.to_json_dict()
    rows = [[
        payload["ring"], payload["group"], ",".join(map(str, rec.block)),
        rec.split or "", args.k, payload["size"], payload["size_method"],
        payload["min_weight"], payload["lower_bound"], payload["upper_bound"],
        payload["weight_method"],
    ]]
    lines = [f"{key}: {payload[key]}" for key in payload if key != "witness"]
    _emit(payload, args.format, args.out,
          (["ring", "group", "block", "split", "k", "size", "size_method",
            "min_weight", "lower_bound", "upper_bound", "weight_method"], rows),
          lines)
    return EXIT_OK


def _hat_label(i, power):
    return f"h(a{i + 1}^{power})" if power > 1 else f"h(a{i + 1})"


def cmd_table(args) -> int:
    ring = parse_ring(args.ring)
    spec = parse_group(args.group)
    if ring.family != FAMILY_INT or ring.t != 2:
        raise UsageError("the table is defined over the ring z4")
    if spec.primes != (3, 5, 11):
        raise UsageError("the table needs a group 3^n1,5^n2,11^n3")
    _require_valid_or_exit(spec)
    if not 0 <= args.k < ring.t:
        raise UsageError("need 0 <= k < 2")
    k = args.k
    # rows instantiate the table layout at j_i = 1
    js = (1, 1, 1)
    alg = GroupAlgebra(ring, spec)
    records = primitive_family(spec, ring)
    by_label = {(r.block, r.split): r for r in records}

    def label_for(block, split):
        hats = []
        for i, j in enumerate(block):
            if j == 0:
                hats.append(_hat_label(i, 1))
        if split is None:
            deltas = [
                f"({_hat_label(i, spec.primes[i] ** j)}-{_hat_label(i, spec.primes[i] ** (j - 1))})"
                for i, j in enumerate(block) if j > 0
            ]
            body = "".join(deltas + hats)
        else:
            us = "".join(f"u{i + 1}" for i, j in enumerate(block) if j > 0)
            sq = "".join(f"u{i + 1}^2" for i, j in enumerate(block) if j > 0)
            body = f"e{split}[{us}+{sq}]" + "".join(hats)
        return f"<s^{k} {body}>"

    row_specs = [
        ((0, 0, 0), None),
        ((js[0], 0, 0), None),
        ((0, js[1], 0), None),
        ((0, 0, js[2]), None),
        ((js[0], js[1], 0), "(1)"),
        ((js[0], js[1], js[2]), "(1)"),
    ]
    rows = []
    for block, split in row_specs:
        rec = by_label[(block, split)]
        words = code_size_formula(spec, ring, block, k)
        comp = CodeComponent(rec.element, block, split, k)
        entry = {
            "code": label_for(block, split),
            "block": list(block),
            "split": split,
            "k": k,
            "words": words,
            "paper_blank": split is not None,
        }
        if split is None:
            entry["weight"] = min_weight_formula(spec, block)
            entry["weight_method"] = "formula"
            entry["lower_bound"] = None
            entry["upper_bound"] = None
        else:
            rep = analyze_code(alg, [comp], args.budget)
            if rep.size != words:
                raise InvariantError(f"row {block}: code size {rep.size} != formula {words}")
            entry["weight"] = rep.min_weight
            entry["weight_method"] = rep.weight_method
            entry["lower_bound"] = rep.lower_bound
            entry["upper_bound"] = rep.upper_bound
        entry["generator_weight"] = comp.generator.weight()
        rows.append(entry)

    payload = {
        "ring": ring.designator(),
        "group": spec.designator(),
        "k": k,
        "j": list(js),
        "rows": rows,
    }
    csv_rows = [
        [r["code"], ",".join(map(str, r["block"])), r["split"] or "", r["k"],
         r["words"], r["weight"], r["weight_method"], r["lower_bound"],
         r["upper_bound"], r["generator_weight"], r["paper_blank"]]
        for r in rows
    ]
    width = max(len(r["code"]) for r in rows)
    lines = [f"ring {payload['ring']}, group {payload['group']}, k={k}"] + [
        f"  {r['code']:<{width}}  words {r['words']:>8}  weight "
        + (str(r["weight"]) if r["weight"] is not None
           else f"in [{r['lower_bound']}, {r['upper_bound']}]")
        + ("  (blank in source table)" if r["paper_blank"] else "")
        for r in rows
    ]
    _emit(payload, args.format, args.out,
          (["code", "block", "split", "k", "words", "weight", "weight_method",
            "lower_bound", "upper_bound", "generator_weight", "paper_blank"],
           csv_rows), lines)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(budget=args.budget)
    return EXIT_OK if all(r.ok for r in results) else EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", 0) < 0:  # 0 is legal: enumerate nothing
            raise UsageError(f"--budget must be >= 0, got {args.budget}")
        handler = {
            "validate": cmd_validate,
            "idempotents": cmd_idempotents,
            "code": cmd_code,
            "table": cmd_table,
            "selftest": cmd_selftest,
        }[args.command]
        if getattr(args, "out", None):  # the path becomes the open file
            with open(args.out, "w") as args.out:
                return handler(args)
        return handler(args)
    except (UsageError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
