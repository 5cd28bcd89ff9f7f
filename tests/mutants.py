"""A registry of mutants: each breaks one piece of the program, and every
test it names must fail on the broken copy.

    python tests/mutants.py [name ...]

For each mutant (all of them if none is named) the runner copies the tree
to a temporary directory, checks that the text it replaces occurs exactly
once in its file, replaces it there and runs the named tests in the copy,
with hypothesis seeded so that a run repeats.  It exits 1 if a named test
passes or is not run.  The file is not named test_*.py, so a plain pytest
run does not collect it.  A new gate or cross-check lands with its mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODES = "src/rgcodes/codes.py"
ORACLE = "src/rgcodes/f2_oracle.py"
T = "tests/test_codes.py::"
F2 = "tests/test_f2_oracle.py::"

# name -> (file, old text, new text, ids of the tests that must fail)
MUTANTS = {
    "span-add-drops-displaced-row": (
        CODES, "                    todo.append(row)\n", "                    pass\n",
        [T + "test_span_matches_closure", T + "test_enumeration_matches_reference"]),
    "walk-stops-at-size-formula": (
        CODES, "        while head.size:\n", "        while head.size and size < want:\n",
        [T + "test_wrong_size_formula_fails[0.25]", T + "test_halved_member_formula_names_member",
         T + "test_residue_dimension_off_formula_names_member[-1]"]),
    "min-nonzero-keeps-last-minimum": (
        CODES, "(best is None or w[pos] < best[0])", "(best is None or w[pos] <= best[0])",
        [T + "test_streamed_minimum_matches_reference"]),
    "witness-skips-shift-by-k": (
        CODES, "astype(self.algebra.ring.dtype) << self.k", "astype(self.algebra.ring.dtype)",
        [T + "test_residue_weight_is_the_walked_weight", T + "test_quotient_walk_is_the_ring_walk",
         T + "test_mixed_k_sum_is_the_reference_walk"]),
    "check-accepts-on-label-alone": (
        CODES, "if rec is not None and (rec.element is c.element or rec.element == c.element):",
        "if rec is not None:",
        [T + "test_forged_components_raise[one coefficient changed-not a member]",
         T + "test_forged_components_raise[non-idempotent under a registered label-not a member]",
         T + "test_forged_components_raise[same bytes in another algebra-not a member]",
         T + "test_member_sum_under_member_label_raises",
         T + "test_warm_label_is_still_certified[one coefficient changed-not a member]"]),
    "check-accepts-sum-of-split-members": (  # e (e + e') = e: the sum holds its label's member
        CODES, "or rec.element == c.element)", "or rec.element * c.element == rec.element)",
        [T + "test_member_sum_under_member_label_raises", T + "test_one_certificate_per_analysis"]),
    "generator-shifted-by-k-minus-1": (
        CODES, "<< k) & ring.mask", "<< max(k - 1, 0)) & ring.mask",
        [T + "test_generator_is_the_scalar_product", T + "test_split_walk_yields_no_codeword",
         T + "test_member_record_is_its_definitions"]),
    "phi-drops-prime-power": (
        CODES, "(p - 1) * p ** (j - 1) for p, j in levels", "(p - 1) for p, j in levels",
        [T + "test_component_dimension", T + "test_component_dimension_is_phi_over_members",
         T + "test_closed_forms_match_per_factor_products[3^3,5^2,11^1]"]),
    "record-key-drops-k": (  # every component reads its member's record at k = 0
        CODES, "tuple(self.block), self.split, self.k,", "tuple(self.block), self.split, 0,",
        [T + "test_warm_reports_are_cold_reports", T + "test_cold_records_report_as_warm_ones",
         "tests/test_cli.py::test_frozen_cli_digests"]),
    "probe-product-held-on-record": (  # a warm call forms no product
        CODES, "probe = rec.step * rec.generator",
        'probe = rec.__dict__.get("probe") or rec.__dict__.setdefault("probe", rec.step * rec.generator)',
        [T + "test_warm_analysis_forms_one_product"]),
    "lane-sum-drops-last-lane": (  # a word at n = 75 spans two 64-bit lanes
        CODES, "for j in range(1, lanes.shape[1]):", "for j in range(1, lanes.shape[1] - 1):",
        [T + "test_row_width", T + "test_weights_count_nonzero_coefficients",
         T + "test_streamed_minimum_matches_reference"]),
    "weighing-stores-every-word": (
        CODES, "for _, block in self._blocks():", "for _, block in [(h, b.copy()) for h, b in self._blocks()]:",
        [T + "test_weighing_holds_one_block"]),
    "member-size-formula-halved": (
        CODES, "return 1 << ((ring.t - k) * component_dimension(spec, block))",
        "return 1 << ((ring.t - k) * component_dimension(spec, block)) >> 1",
        [T + "test_code_size_formula", T + "test_enumeration_matches_formula",
         T + "test_enumeration_matches_reference"]),
    "sum-weight-skips-member-cross-check": (
        CODES, "if got[0] > member:", "if False:",
        [T + "test_sum_heavier_than_a_member_word_raises"]),
    "oracle-drops-piece-e-plus-ec": (
        ORACLE, "np.stack((ec, ec ^ rows), axis=1)", "np.stack((ec, 0 * rows), axis=1)",
        [F2 + "test_oracle_is_the_product_refinement", F2 + "test_primitive_count_matches_formula"]),
    "oracle-skips-last-coset": (
        ORACLE, "    for counts in frame.tensor:\n", "    for counts in frame.tensor[:-1]:\n",
        [F2 + "test_oracle_is_the_product_refinement", F2 + "test_primitive_count_matches_formula"]),
    "coset-product-counts-mod-2-over-z2t": (
        ORACLE, "M = (tensor @ Y.astype(np.int64)) & ring.mask",
        "M = ((tensor & 1) @ Y.astype(np.int64)) & ring.mask",
        [F2 + "test_coset_product_is_the_rg_product",
         "tests/test_idempotents.py::test_family_matches_lifted_oracle[3^1,5^1]"]),
    "coset-product-ignores-parity-over-f2u": (  # every nonzero count adds once
        ORACLE, "np.where(tensor & 1, Y, 0)", "np.where(tensor, Y, 0)",
        [F2 + "test_coset_product_is_the_rg_product",
         "tests/test_idempotents.py::test_family_matches_lifted_oracle[3^1,5^1]"]),
    "family-checks-drops-count-flag": (
        "src/rgcodes/idempotents.py", '"sum_to_one", "count_matches_formula")', '"sum_to_one")',
        ["tests/test_cli.py::test_false_certificate_flag_exit_4",
         "tests/test_idempotents.py::test_verify_family_flags_non_adjacent_overlap"]),
}

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


def _has_outcome(report: str, test_id: str, outcome: str) -> bool:
    """Whether pytest's -rA summary gives test_id, or a parametrization of
    it, this outcome."""
    head = f"{outcome} {test_id}"
    return any(line.startswith(head) and line[len(head) : len(head) + 1] in ("", " ", "[")
               for line in report.splitlines())


def run(name: str, tmp: Path) -> list:
    """The problems found with one mutant; empty if each named test fails."""
    path, old, new, test_ids = MUTANTS[name]
    tree = tmp / name
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        return [f"{path} holds the text to replace {text.count(old)} times, not once"]
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run([sys.executable, "-c", "import rgcodes; print(rgcodes.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
    if not Path(where).is_relative_to(tree):
        return [f"the copy imports rgcodes from {where!r}"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *test_ids],
        cwd=tree, env=env, capture_output=True, text=True)
    problems = []
    for test_id in test_ids:
        if _has_outcome(result.stdout, test_id, "PASSED"):
            problems.append(f"{test_id} passes")
        elif not _has_outcome(result.stdout, test_id, "FAILED"):
            problems.append(f"{test_id} did not run to a failure")
    return problems


def main(argv) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            problems = run(name, Path(tmp))
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok':6} {name}" + "".join(f"\n       {p}" for p in problems))
    print(f"{len(names) - failed}/{len(names)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
