import importlib.util
import json
from pathlib import Path

import pytest

from rgcodes import cli, idempotents
from rgcodes.codes import BudgetExceeded

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_validate_ok(capsys):
    rc, out = run(capsys, "validate", "--group", "3^1,5^1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert all(c["ok"] for c in payload["conditions"])


def test_validate_invalid_group_exit_2(capsys):
    rc, out = run(capsys, "validate", "--group", "7^1")
    assert rc == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    failed = [c["name"] for c in payload["conditions"] if not c["ok"]]
    assert "two-primitive-mod-7" in failed


def test_parse_error_exit_1(capsys):
    rc, _ = run(capsys, "validate", "--group", "4^1")
    assert rc == 1
    rc, _ = run(capsys, "validate", "--group", "5^1,3^1")  # wrong order
    assert rc == 1


def test_no_command_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1


def test_idempotents_json(capsys):
    rc, out = run(capsys, "idempotents", "--ring", "z4", "--group", "3^1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["checks"] == {
        "idempotent": True, "orthogonal": True,
        "sum_to_one": True, "count_matches_formula": True}
    first = payload["records"][0]
    assert first["block"] == [0] and first["method"] == "paper-formula"
    assert first["element"] == [[[0], "3"], [[1], "3"], [[2], "3"]]


def test_idempotents_invalid_group_exit_2(capsys):
    rc, _ = run(capsys, "idempotents", "--ring", "z4", "--group", "7^1")
    assert rc == 2


def test_idempotents_deterministic(capsys):
    _, out1 = run(capsys, "idempotents", "--ring", "f2u2", "--group", "3^1,5^1")
    _, out2 = run(capsys, "idempotents", "--ring", "f2u2", "--group", "3^1,5^1")
    assert out1 == out2


def test_code_split_report(capsys):
    rc, out = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                  "--block", "1,1", "--split", "1", "--k", "0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 256
    assert payload["min_weight"] == 8
    assert payload["lower_bound"] == 4
    assert payload["upper_bound"] == 10
    assert payload["lower_bound_attained"] is False
    assert payload["weight_method"] == "enumeration"


def test_code_formula_block(capsys):
    rc, out = run(capsys, "code", "--ring", "z8", "--group", "3^1,5^1",
                  "--block", "0,1", "--k", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 2 ** (2 * 4)  # 2^{(3-1)*4}
    assert payload["min_weight"] == 6


def test_code_unknown_member_exit_1(capsys):
    rc, _ = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                "--block", "1,1", "--k", "0")  # needs --split
    assert rc == 1
    rc, _ = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                "--block", "9,9", "--k", "0")
    assert rc == 1


def test_code_bad_arguments_exit_before_family(capsys, monkeypatch):
    """A bad --k or --block is a usage error before the family is built."""
    def boom(*a, **kw):
        raise AssertionError("primitive_family ran before the arguments were checked")

    monkeypatch.setattr(cli, "primitive_family", boom)
    for block, k in (("1,0", "9"), ("1,0", "-1"), ("1,x", "0")):
        rc, _ = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                    "--block", block, "--k", k)
        assert rc == 1, (block, k)


def test_code_budget_exit_3(capsys, monkeypatch):
    def boom(*a, **kw):
        raise BudgetExceeded(1 << 40, 1 << 20)

    monkeypatch.setattr(cli, "analyze_code", boom)
    rc, _ = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                "--block", "0,0", "--k", "0")
    assert rc == 3


def test_budget_must_be_nonnegative(capsys):
    code = ("code", "--ring", "z4", "--group", "3^1,5^1", "--block", "1,1",
            "--split", "1", "--k", "0")
    rc, _ = run(capsys, *code, "--budget", "-1")
    assert rc == 1
    rc, _ = run(capsys, "table", "--ring", "z4", "--group", "3^1,5^1,11^1",
                "--k", "0", "--budget", "-1")
    assert rc == 1
    assert cli.main(["selftest", "--budget", "-1"]) == 1
    # 0 is legal: nothing is enumerated, the size comes from the formula
    rc, out = run(capsys, *code, "--budget", "0")
    assert rc == 0
    assert json.loads(out)["size_method"] == "formula"


def test_table_frozen_rows(capsys):
    rc, out = run(capsys, "table", "--ring", "z4",
                  "--group", "3^1,5^1,11^1", "--k", "1")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r["words"] for r in rows] == [2, 4, 16, 1024, 16, 1048576]
    assert [r["weight"] for r in rows] == [165, 110, 66, 30, 88, 48]
    assert [r["paper_blank"] for r in rows] == [False] * 4 + [True] * 2
    assert rows[0]["generator_weight"] == 165
    # the four closed-form rows carry formula provenance, the blanks do not
    assert [r["weight_method"] for r in rows[:4]] == ["formula"] * 4
    assert all(r["weight_method"] == "enumeration" for r in rows[4:])


def test_table_rejects_other_contexts(capsys):
    rc, _ = run(capsys, "table", "--ring", "z8",
                "--group", "3^1,5^1,11^1", "--k", "0")
    assert rc == 1
    rc, _ = run(capsys, "table", "--ring", "z4", "--group", "3^1,5^1", "--k", "0")
    assert rc == 1
    rc, _ = run(capsys, "table", "--ring", "z4",
                "--group", "3^1,5^1,11^1", "--k", "2")
    assert rc == 1
    rc, _ = run(capsys, "table", "--ring", "z4",
                "--group", "3^1,5^1,11^1", "--k", "-1")
    assert rc == 1


def test_csv_and_text_formats(capsys):
    rc, out = run(capsys, "validate", "--group", "3^1", "--format", "csv")
    assert rc == 0
    header = out.splitlines()[0]
    assert header == "name,ok,detail"
    rc, out = run(capsys, "validate", "--group", "3^1", "--format", "text")
    assert rc == 0
    assert "valid" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out = run(capsys, "validate", "--group", "3^1", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["valid"] is True


def test_out_file_unwritable_exit_1(tmp_path, capsys, monkeypatch):
    """An unwritable --out fails before any work, as a shell redirect would."""
    def boom(*args):
        raise AssertionError("primitive_family called before --out was opened")

    monkeypatch.setattr(cli, "primitive_family", boom)
    target = tmp_path / "missing" / "x.json"
    for argv in (["validate", "--group", "3^1"],
                 ["idempotents", "--ring", "z4", "--group", "3^1,5^1"],
                 ["table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "1"]):
        rc = cli.main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "x.json" in captured.err
    assert not target.exists()


def test_invariant_failure_exit_4(capsys, monkeypatch):
    """A closed form that repeats a member fails the oracle check: exit 4."""
    real = idempotents._split_from
    monkeypatch.setattr(idempotents, "_split_from",
                        lambda alg, block, whole: real(alg, block, whole)[:1] * 2)
    idempotents.primitive_family.cache_clear()
    rc = cli.main(["idempotents", "--ring", "z4", "--group", "3^1,5^1"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "not an unused primitive's lift" in captured.err


def test_code_split_reaches_every_member(capsys):
    """A block with l = 4 nonzero indices has members (1)..(8), each selectable."""
    code = ("code", "--ring", "z4", "--group", "3^1,5^1,11^1,19^1", "--block", "1,1,1,1")
    rc, out = run(capsys, *code, "--split", "8", "--k", "2")
    assert rc == 0
    assert json.loads(out)["size"] == 1  # s^t e = 0 over z4
    for bad in ("complement", "0"):
        rc, _ = run(capsys, *code, "--split", bad, "--k", "2")
        assert rc == 1


def test_frozen_cli_digests(capsys):
    """The family and table commands reproduce the benchmark's frozen stdout."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    frozen = json.loads(workloads.REFERENCE.read_text())["cli"]
    argvs = [*workloads.CLI_COMMANDS["family"], *workloads.CLI_COMMANDS["table"]]
    for argv in argvs:
        rc, out = run(capsys, *argv)
        assert rc == 0
        assert workloads.digest(out.encode()) == frozen[workloads.command_key(argv)], argv
