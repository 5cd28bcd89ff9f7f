"""What the benchmark under bench/ relies on: the sweep's frozen reports and
the names its tracer wraps."""

import importlib.util
from pathlib import Path

from rgcodes import codes
from rgcodes.arith import GroupSpec
from rgcodes.chain_ring import parse_ring
from rgcodes.group_algebra import GroupAlgebra
from rgcodes.idempotents import primitive_family

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_match_reference():
    """Every report of the default sweep draw has its frozen digest."""
    workloads = _load("workloads")
    frozen = workloads.load_reference()["sweep"]
    families = workloads.build_families()
    codes_drawn = workloads.draw_codes(workloads.DEFAULT_SEED, families)
    assert len(codes_drawn) == workloads.SWEEP_CODES
    for code in codes_drawn:
        report = workloads.analyze(families, code)
        assert workloads.report_digest(report) == frozen[workloads.code_key(code)], code


def test_tracer_records_codes_spans():
    """install() finds every name it wraps, and the codes spans that the
    table and sweep workloads require record calls."""
    tracer = _load("tracer")
    spec, ring = GroupSpec((3, 5), (1, 1)), parse_ring("z4")
    alg = GroupAlgebra(ring, spec)
    members = {(r.block, r.split): r for r in primitive_family(spec, ring)}

    def component(block, split, k):
        rec = members[(block, split)]
        return codes.CodeComponent(rec.element, block, split, k)

    inst = tracer.install()
    try:
        codes.analyze_code(alg, [component((1, 1), "(1)", 0)])  # walked whole
        # 16 * 256 words over the budget; the split member fits and is walked
        codes.analyze_code(alg, [component((1, 1), "(1)", 1), component((0, 1), None, 0)], 100)
    finally:
        inst.restore()
    spans = inst.recorder.snapshot()["spans"]
    for span in ("codes.analyze", "codes.check", "codes.enumerate", "codes.bounds"):
        assert spans.get(span, [0])[0] > 0, span
    assert spans["codes.analyze"][0] == spans["codes.check"][0] == 2
