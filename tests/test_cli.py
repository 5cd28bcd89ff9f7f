import csv
import decimal
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcodes import arith, cli, codes, f2_oracle, idempotents, selftest
from rgcodes.arith import parse_group
from rgcodes.chain_ring import parse_ring
from rgcodes.group_algebra import GroupAlgebra

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def test_validate_needs_phi_gcd_two(capsys):
    """gcd(phi(25), phi(11)) = 10: 275 has 16 cyclotomic cosets, the count formula
    gives 8, so the group is refused before the oracle can disagree with it."""
    rc, out = run(capsys, "validate", "--group", "5^2,11^1")
    assert rc == 2
    failed = [c for c in json.loads(out)["conditions"] if not c["ok"]]
    assert failed == [{"name": "gcd-condition-5-11", "ok": False,
                       "detail": "gcd(phi(5^2), 11-1) = 10"}]
    rc, out = run(capsys, "idempotents", "--ring", "z4", "--group", "5^2,11^1")
    assert rc == 2 and out == ""


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


@pytest.mark.parametrize("label,named", [
    (("--block", "1,1"), "block (1, 1) split None"),
    (("--block", "1,0", "--split", "1"), "block (1, 0) split (1)"),
    (("--block", "2,0"), "block (2, 0) split None"),
    (("--block", "1,0,0"), "block (1, 0, 0) split None"),
])
def test_code_label_not_in_family_exit_1(capsys, label, named):
    rc = cli.main(["code", "--ring", "z4", "--group", "3^1,5^1", "--k", "0", *label])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"no family member with {named}" in captured.err


def test_code_bad_arguments_exit_before_family(capsys, monkeypatch):
    """A bad --k or --block is a usage error before the family is built."""
    def boom(*a, **kw):
        raise AssertionError("primitive_family ran before the arguments were checked")

    monkeypatch.setattr(idempotents, "primitive_family", boom)  # family_member's lookup
    for block, k in (("1,0", "9"), ("1,0", "-1"), ("1,x", "0")):
        rc, _ = run(capsys, "code", "--ring", "z4", "--group", "3^1,5^1",
                    "--block", block, "--k", k)
        assert rc == 1, (block, k)


@pytest.mark.parametrize("option,value", [
    ("--block", "1,\u0660"), ("--k", "\u0661"), ("--budget", "\u0661\u0660\u0660"),
])
def test_integer_options_ascii_only(capsys, option, value):
    """int() reads Arabic-Indic digits; the integer options refuse them."""
    argv = {"--block": "1,0", "--k": "0", "--budget": "100", option: value}
    rc = cli.main(["code", "--ring", "z4", "--group", "3^1,5^1",
                   *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert repr(value) in captured.err


def test_word_count_past_int_digit_limit(capsys):
    """2^14496 words (4,364 digits) print in every format; the limit comes back."""
    limit = sys.get_int_max_str_digits()
    argv = ("code", "--ring", "z65536", "--group", "907^1", "--block", "1", "--k", "0")
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out, parse_int=decimal.Decimal)["size"] == 2**14496
    rc, out = run(capsys, *argv, "--format", "csv")
    assert rc == 0
    header, row = csv.reader(out.splitlines())
    assert decimal.Decimal(row[header.index("size")]) == 2**14496
    rc, out = run(capsys, *argv, "--format", "text")
    assert rc == 0
    assert decimal.Decimal(dict(l.split(": ", 1) for l in out.splitlines())["size"]) == 2**14496
    assert sys.get_int_max_str_digits() == limit


def test_out_of_memory_exit_3(capsys, monkeypatch):
    """An allocation the word budget admitted but memory cannot hold exits 3."""
    def boom(*a, **kw):
        raise MemoryError("Unable to allocate 42.0 TiB")

    monkeypatch.setattr(cli, "analyze_code", boom)
    rc = cli.main(["code", "--ring", "z4", "--group", "3^1,5^1",
                   "--block", "0,0", "--k", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 42.0 TiB\n"


@pytest.mark.parametrize("group", [
    "2305843009213693951^1", "3^99999999999", "3^9999999",
    # past int()'s 4300-digit limit for a string
    pytest.param("3" * 5000 + "^1", id="5000-digit-base"),
    pytest.param("3^" + "1" * 5000, id="5000-digit-exponent"),
])
def test_group_order_bounded_before_work(group):
    """An order past MAX_ORDER is refused before trial division or p^e."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rgcodes.cli", "validate", "--group", group],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert "group order exceeds the limit" in proc.stderr


def test_one_group_check_per_command(capsys, monkeypatch):
    """idempotents validates its group once, in the oracle; code validates it
    once more up front, so that a bad group exits 2 before usage errors."""
    calls = []
    real = arith.validate_group
    monkeypatch.setattr(arith, "validate_group", lambda spec: calls.append(spec) or real(spec))
    for argv, want in (
        (["idempotents", "--ring", "z4", "--group", "3^1"], 1),
        (["code", "--ring", "z4", "--group", "3^1", "--block", "0", "--k", "0"], 2),
    ):
        idempotents.primitive_family.cache_clear()
        f2_oracle.primitive_idempotents_f2.cache_clear()
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == want, argv


def test_budget_must_be_nonnegative(capsys):
    code = ("code", "--ring", "z4", "--group", "3^1,5^1", "--block", "1,1",
            "--split", "1", "--k", "0")
    rc, _ = run(capsys, *code, "--budget", "-1")
    assert rc == 1
    rc, _ = run(capsys, "table", "--ring", "z4", "--group", "3^1,5^1,11^1",
                "--k", "0", "--budget", "-1")
    assert rc == 1
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


def test_idempotents_certifies_once(capsys, monkeypatch):
    """idempotents prints the certificate primitive_family made: one
    verify_family call on a cold family, none on a cached one."""
    calls = []
    real = idempotents.verify_family
    monkeypatch.setattr(idempotents, "verify_family",
                        lambda elems, alg: calls.append(len(elems)) or real(elems, alg))
    idempotents.primitive_family.cache_clear()
    argv = ("idempotents", "--ring", "z4", "--group", "3^1,5^1")
    for want in ([5], [5]):
        rc, out = run(capsys, *argv)
        assert rc == 0 and calls == want
        assert json.loads(out)["checks"] == {"idempotent": True, "orthogonal": True,
                                             "sum_to_one": True, "count_matches_formula": True}


def test_false_certificate_flag_exit_4(capsys, monkeypatch):
    """A family that fails a flag of its certificate is never printed: exit 4
    with the flag named (it used to print false and exit 0)."""
    real = idempotents.verify_family
    monkeypatch.setattr(idempotents, "verify_family",
                        lambda elems, alg: {**real(elems, alg), "orthogonal": False})
    idempotents.primitive_family.cache_clear()
    rc = cli.main(["idempotents", "--ring", "z8", "--group", "3^1,5^1"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert "the family fails its certificate: orthogonal" in captured.err


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


# workloads.digest of stdout in csv and text, per command
RENDERING_DIGESTS = {
    ("table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "0"):
        ("59d982315414ef1c", "59996e17d205f7f8"),
    ("code", "--ring", "z4", "--group", "3^1,5^1", "--block", "1,1", "--split", "1", "--k", "0"):
        ("9c6956dc98107559", "ca8b4370f93b8676"),
    ("idempotents", "--ring", "z4", "--group", "3^1,5^1"):
        ("510a4f5016de118c", "f9b840f68053d473"),
    ("validate", "--group", "3^1,5^1,11^1"):
        ("359d0b50c5b5f4aa", "812e70a6d2979cfb"),
    ("code", "--ring", "z4", "--group", "3^1,5^1,11^1", "--block", "1,1,1", "--split", "1", "--k", "0"):
        ("dc20466d2f9bbdf7", "5fa27c38243dc486"),
}


def test_csv_and_text_digests(capsys):
    """The csv and text renderings of every command but selftest are pinned."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for argv, digests in RENDERING_DIGESTS.items():
        for fmt, want in zip(("csv", "text"), digests):
            rc, out = run(capsys, *argv, "--format", fmt)
            assert rc == 0
            assert workloads.digest(out.encode()) == want, (argv, fmt)


def test_table_paper_rows_are_checked(capsys, monkeypatch):
    """The closed-form rows of the table pass the probe check: a wrong formula exits 4."""
    real = codes.min_weight_formula

    def off_by_one(spec, block):
        w = real(spec, block)
        return None if w is None else w + 1

    monkeypatch.setattr(codes, "min_weight_formula", off_by_one)
    monkeypatch.setattr(cli, "min_weight_formula", off_by_one, raising=False)
    rc = cli.main(["table", "--ring", "z4", "--group", "3^1,5^1,11^1", "--k", "0"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "no probe attains the formula" in captured.err


def test_invalid_group_exit_2_before_usage_errors(capsys):
    """require_valid's InvalidGroup exits 2, ahead of the bad block label."""
    rc = cli.main(["code", "--ring", "z4", "--group", "7^1", "--block", "x", "--k", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: group 7^1 fails: two-primitive-mod-7")


json_strings = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_json_writer_matches_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from(("z2", "z4", "z65536", "f2u2", "f2u3", "f2u16")),
       group=st.sampled_from(("3^2", "3^1,5^1", "3^1,5^1,11^1", "3^1,5^1,11^1,19^1")),
       terms=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
def test_json_writer_element_matches_terms(ring, group, terms, seed):
    """An element writes the text of its json_terms(); 0 terms is the zero element,
    9 or more make an element of 3^2 dense."""
    alg = GroupAlgebra(parse_ring(ring), parse_group(group))
    rng = np.random.default_rng(seed)
    terms = min(terms, alg.n)
    coeffs = np.zeros(alg.n, dtype=np.int64)
    coeffs[rng.choice(alg.n, terms, replace=False)] = rng.integers(1, alg.ring.size, terms)
    x = alg.element(coeffs)
    assert cli._json({"e": x}) == json.dumps({"e": x.json_terms()}, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {"a": [0.0]}, (1, 2), np.int64(1), {1: 2}, object(),
])
def test_json_writer_refuses_other_types(value):
    """No floats, tuples, numpy scalars or non-str keys: a payload holds none."""
    with pytest.raises(TypeError):
        cli._json(value)


def _stub(name, fn, limit=None):
    """A stand-in criterion, timed like the registered ones."""
    return lambda: selftest._timed(name, limit, fn)


def _boom():
    raise RuntimeError("boom")


def _slow():
    time.sleep(0.001)
    return True, "fine"


def test_selftest_all_pass(capsys, monkeypatch):
    """selftest runs what CRITERIA holds: one PASS line each, a summary, exit 0."""
    monkeypatch.setattr(selftest, "CRITERIA",
                        [_stub("one", lambda: (True, "fine")), _stub("two", _slow, 60.0)])
    rc, out = run(capsys, "selftest")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 3
    assert lines[0].startswith("PASS one: fine [") and lines[1].startswith("PASS two: fine [")
    assert lines[1].endswith(" < 60s]")
    assert lines[2] == "2/2 criteria passed"


@pytest.mark.parametrize("fn, limit, want", [
    (_boom, None, "FAIL bad: exception: RuntimeError('boom') ["),
    (_slow, 1e-9, "FAIL bad: fine (over the 0s limit) ["),
])
def test_selftest_failure_exit_1(capsys, monkeypatch, fn, limit, want):
    """A criterion that raises, or passes over its limit, fails the run: exit 1."""
    monkeypatch.setattr(selftest, "CRITERIA",
                        [_stub("good", lambda: (True, "fine")), _stub("bad", fn, limit)])
    rc, out = run(capsys, "selftest")
    lines = out.splitlines()
    assert rc == 1
    assert lines[0].startswith("PASS good: fine [") and lines[1].startswith(want)
    assert lines[2] == "1/2 criteria passed"
