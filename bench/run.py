"""rgcodes benchmark runner.

Usage:
    python3 bench/run.py --workload family|table|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; rgcodes is imported from its src/.  One
closed-loop client runs one operation at a time, with no threads.  A pass
is the workload's operations once: two CLI commands, each in a fresh
interpreter, for ``family`` and ``table``, and 400 ``analyze_code`` calls
in this process for ``sweep``.  Passes repeat until the next one would
overrun ``--seconds`` (at least MIN_PASSES), and timings are the median
pass, scaled to nominal machine speed by SpeedProbe.  Every output is
compared with bench/reference.json.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics of bench/tracer.py.  The line before it is the run
context: machine, the raw pass and set-up timings and every probe time,
so machine drift is visible beside the scaled figures.
bench/README.md lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_REPS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SWEEP_CHUNKS = 4  # operations, each bracketed by probes, per sweep pass
PROBE_REPS = 3  # probe samples per probe point
PROBE_PY_N = 150_000
PROBE_NP_REPS = 4
# reported times are scaled to a machine on which the probe takes this long
PROBE_NOMINAL_S = 0.06

SETUP_CODE = {
    "family": "import rgcodes",
    "table": "import rgcodes",
    "sweep": "import rgcodes, workloads; workloads.build_families()",
}

# spans that must record calls on a workload; a zero means the tracer
# missed a rebinding or the workload no longer reaches the layer
EXPECTED_SPANS = {
    "family": (
        "arith.crt_multi", "arith.cyclotomic_cosets", "chain_ring.mul_arr",
        "group_algebra.product", "f2_oracle.refine", "f2_oracle.coset_sums",
        "idempotents.family", "idempotents.lift", "idempotents.closed_forms",
        "idempotents.verify", "cli.main",
    ),
    "table": (
        "chain_ring.mul_arr", "group_algebra.product", "f2_oracle.refine",
        "idempotents.family", "idempotents.lift", "idempotents.closed_forms",
        "codes.analyze", "codes.check", "codes.enumerate", "codes.bounds", "cli.main",
    ),
    "sweep": (
        "chain_ring.mul_arr", "group_algebra.product", "codes.analyze",
        "codes.check", "codes.enumerate", "codes.bounds",
    ),
}
# spans that must stay silent: family never enters codes
ABSENT_SPANS = {
    "family": ("codes.analyze", "codes.check", "codes.enumerate", "codes.bounds"),
}


def child_env() -> dict:
    """The fixed environment of every child interpreter."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE))),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv, capture_stderr=False) -> Child:
    """Run ``python3 <argv>`` to completion; time it and take its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
    )
    # stdout is drained first: a traced child writes its one trace line to
    # stderr only after its output is complete, well inside a pipe buffer
    with proc.stdout:
        out = proc.stdout.read()
    err = b""
    if capture_stderr:
        with proc.stderr:
            err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class SpeedProbe:
    """A fixed mix of the work rgcodes does, timed between operations.

    Other tenants of a shared machine slow it, in episodes of seconds to
    minutes, by a third or more, and such an episode can outlast a whole
    run.  The probe measures the machine's speed right now: a pure-Python
    loop and a small-array numpy kernel shaped like the RG product
    (roll, scale, add and mask on 495 uint8 coefficients).  It is timed
    PROBE_REPS times before every operation and once more after the last,
    outside the timed region.  An operation's time is scaled by
    PROBE_NOMINAL_S over the geometric mean of the probes just before and
    just after it (see ``scale``), so that machine drift is not read as a
    regression.  A change to rgcodes cannot move the probe.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=(9, 5, 11), dtype=np.uint8)
        self.b = rng.integers(0, 4, size=(9, 5, 11), dtype=np.uint8)
        self.shifts = [tuple(int(v) for v in i) for i in np.argwhere(a)]
        self.samples = []  # (wall, cpu) seconds per probe

    def sample(self) -> tuple:
        """Median (wall, cpu) seconds of PROBE_REPS probes taken now."""
        np = self.np
        burst = []
        for _ in range(PROBE_REPS):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            acc = 0
            for i in range(PROBE_PY_N):
                acc = (acc * 31 + i) % 1_000_003
            for _ in range(PROBE_NP_REPS):
                out = np.zeros(self.b.shape, dtype=np.uint32)
                for shift in self.shifts:
                    term = np.uint32(3) * np.roll(self.b, shift, axis=(0, 1, 2)).astype(np.uint32)
                    out = (out + term) & np.uint32(3)
            burst.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        self.samples.extend(burst)
        return tuple(statistics.median(t) for t in zip(*burst))


def scale(ops, end_probe) -> list:
    """(wall, cpu) of consecutive operations at nominal machine speed.

    ``ops`` are (wall, cpu, probe wall, probe cpu) with the probe taken just
    before the operation; the probe after it is the next operation's, or
    ``end_probe`` for the last.  Both bracket the operation, so a change of
    machine speed during a long operation is seen from both sides.
    """
    after = [op[2:] for op in ops[1:]] + [end_probe]
    return [
        (wall * PROBE_NOMINAL_S / (pw * qw) ** 0.5, cpu * PROBE_NOMINAL_S / (pc * qc) ** 0.5)
        for (wall, cpu, pw, pc), (qw, qc) in zip(ops, after)
    ]


@dataclass
class Pass:
    """One pass over the workload's operations."""

    ops: list = field(default_factory=list)  # (wall, cpu, probe wall, probe cpu)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    trace: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(op[0] for op in self.ops)

    @property
    def cpu(self) -> float:
        return sum(op[1] for op in self.ops)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)


def merge_trace(total: dict, snap: dict):
    for span, stat in snap["spans"].items():
        acc = total.setdefault("spans", {}).setdefault(span, [0, 0.0, 0.0])
        for i, v in enumerate(stat):
            acc[i] += v
    for name, v in snap["counters"].items():
        counters = total.setdefault("counters", {})
        counters[name] = counters.get(name, 0) + v


class CliWorkload:
    def __init__(self, name, seed, reference, probe):
        self.commands = list(workloads.CLI_COMMANDS[name])
        random.Random(seed).shuffle(self.commands)
        self.reference = reference["cli"]
        self.probe = probe

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        for argv in self.commands:
            probe = self.probe.sample()
            prefix = ["bench/traced_cli.py"] if traced else ["-m", "rgcodes.cli"]
            child = spawn([*prefix, *argv], capture_stderr=traced)
            p.ops.append((child.wall, child.cpu, *probe))
            p.rss_mb = max(p.rss_mb, child.rss_mb)
            p.attempted += 1
            p.output_bytes += len(child.stdout)
            problem = self.check(argv, child)
            if problem is None and traced:
                try:
                    merge_trace(p.trace, json.loads(child.stderr.splitlines()[-1]))
                except (IndexError, ValueError) as exc:
                    problem = f"no trace line ({exc})"
            if problem is not None:
                p.failed += 1
                fail(f"{workloads.command_key(argv)}: {problem}")
        return p

    def check(self, argv, child):
        if child.code != 0:
            # a traced child's stderr is captured; its last line names the error
            last = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {child.code}" + "".join(f": {line}" for line in last)
        got, want = workloads.digest(child.stdout), self.reference.get(workloads.command_key(argv))
        if got != want:
            return f"stdout digest {got} differs from the reference {want}"
        if argv[0] == "idempotents":
            checks = json.loads(child.stdout)["checks"]
            if not all(checks.values()):
                return f"family checks failed: {checks}"
        return None


class SweepWorkload:
    def __init__(self, name, seed, reference, probe):
        self.families = workloads.build_families()
        self.codes = workloads.draw_codes(seed, self.families)
        self.reference = reference["sweep"]
        self.probe = probe

    def run_pass(self, traced: bool) -> Pass:
        installation = tracer.install() if traced else None
        p = Pass(attempted=len(self.codes))
        results = []
        chunk = -(-len(self.codes) // SWEEP_CHUNKS)
        try:
            for first in range(0, len(self.codes), chunk):
                probe = self.probe.sample()
                cpu0, start = time.process_time(), time.perf_counter()
                for code in self.codes[first:first + chunk]:
                    try:
                        results.append(workloads.analyze(self.families, code))
                    except Exception as exc:  # a raising operation counts as failed
                        results.append(exc)
                p.ops.append((time.perf_counter() - start, time.process_time() - cpu0, *probe))
        finally:
            if installation is not None:
                installation.restore()
        if installation is not None:
            p.trace = installation.recorder.snapshot()
        for code, result in zip(self.codes, results):
            key = workloads.code_key(code)
            if isinstance(result, Exception):
                problem = f"raised {result!r}"
            elif workloads.report_digest(result) != self.reference.get(key):
                problem = "report digest differs from the reference"
            else:
                continue
            p.failed += 1
            fail(f"sweep {key}: {problem}")
        p.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return p


WORKLOADS = {"family": CliWorkload, "table": CliWorkload, "sweep": SweepWorkload}


def measure_setup(name, probe):
    """Seconds of a fresh interpreter doing the workload's set-up.

    Returns the median at nominal machine speed, or None if a run fails,
    and the raw seconds of each run.
    """
    spawn(["-c", SETUP_CODE[name]])  # warm-up: compiles bytecode once
    ops = []
    for _ in range(SETUP_REPS):
        before = probe.sample()
        child = spawn(["-c", SETUP_CODE[name]])
        if child.code != 0:
            return None, [op[0] for op in ops]
        ops.append((child.wall, child.cpu, *before))
    scaled = scale(ops, probe.sample())
    return statistics.median(wall for wall, _ in scaled), [op[0] for op in ops]


def layer_metrics(trace: dict, output_bytes: int) -> dict:
    """Per-layer values of one traced pass."""
    spans = trace.get("spans", {})
    counters = trace.get("counters", {})

    def calls(span):
        return spans.get(span, [0, 0.0, 0.0])[0]

    def inclusive(span):
        return spans.get(span, [0, 0.0, 0.0])[1]

    def count(name):
        return counters.get(name, 0)

    records = count("idempotents.family.records")
    product = "group_algebra.product"
    return {
        "arith.crt_multi.calls": calls("arith.crt_multi"),
        "arith.cyclotomic_cosets.s": inclusive("arith.cyclotomic_cosets"),
        "chain_ring.mul_arr.calls": calls("chain_ring.mul_arr"),
        "chain_ring.mul_arr.s": inclusive("chain_ring.mul_arr"),
        f"{product}.calls": calls(product),
        f"{product}.s": inclusive(product),
        f"{product}.sparse_calls": count(f"{product}.sparse_calls"),
        f"{product}.sparse_s": float(count(f"{product}.sparse_s")),
        f"{product}.terms": count(f"{product}.terms"),
        f"{product}.bytes": count(f"{product}.bytes"),
        "group_algebra.scale_exponents.s": inclusive("group_algebra.scale_exponents"),
        "f2_oracle.refine.s": inclusive("f2_oracle.refine"),
        "f2_oracle.refine.products": count("f2_oracle.refine.products"),
        "f2_oracle.coset_sums.s": inclusive("f2_oracle.coset_sums"),
        "idempotents.family.s": inclusive("idempotents.family"),
        "idempotents.lift.calls": calls("idempotents.lift"),
        "idempotents.lift.s": inclusive("idempotents.lift"),
        "idempotents.closed_forms.s": inclusive("idempotents.closed_forms"),
        "idempotents.verify.s": inclusive("idempotents.verify"),
        "idempotents.verify.products": count("idempotents.verify.products"),
        "idempotents.formula_share": (
            count("idempotents.family.formula_records") / records if records else 0.0
        ),
        "codes.analyze.s": inclusive("codes.analyze"),
        "codes.check.s": inclusive("codes.check"),
        "codes.check.products": count("codes.check.products"),
        "codes.enumerate.s": inclusive("codes.enumerate"),
        "codes.enumerate.words": count("codes.enumerate.words"),
        "codes.enumerate.bytes": count("codes.enumerate.bytes"),
        "codes.bounds.s": inclusive("codes.bounds"),
        "codes.bounds.probes": count("codes.bounds.probes"),
        "codes.bounds.products": count("codes.bounds.products"),
        "cli.self_s": spans.get("cli.main", [0, 0.0, 0.0])[2],
        "cli.output_bytes": output_bytes,
    }


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def trace_problems(workload, traced) -> list:
    problems = []
    spans = traced[0].trace.get("spans", {})
    for span in EXPECTED_SPANS[workload]:
        if not spans.get(span, [0])[0]:
            problems.append(f"span {span} recorded no call on {workload}")
    for span in ABSENT_SPANS.get(workload, ()):
        if spans.get(span, [0])[0]:
            problems.append(f"span {span} recorded calls on {workload}")
    counts = [
        ({k: v[0] for k, v in p.trace.get("spans", {}).items()},
         {k: v for k, v in p.trace.get("counters", {}).items() if isinstance(v, int)})
        for p in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rgcodes benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rgcodes" / "__init__.py").is_file():
        fail(f"no rgcodes package under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    for var in THREAD_VARS:
        os.environ[var] = "1"

    import numpy

    try:
        reference = workloads.load_reference()
    except (OSError, ValueError) as exc:
        fail(f"cannot read the frozen reference: {exc}")
        return 2

    probe = SpeedProbe()
    setup_s, setup_runs = measure_setup(args.workload, probe)
    if setup_s is None:
        fail(f"set-up of {args.workload} failed")
        return 2
    first_pass_probe = len(probe.samples)
    workload = WORKLOADS[args.workload](args.workload, args.seed, reference, probe)

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(workload.run_pass(False))
        if args.trace:
            traced.append(workload.run_pass(True))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        enough = len(untraced) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
        if enough and elapsed + per_round > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = trace_problems(args.workload, traced) if traced else []
    for problem in problems:
        fail(problem)
    if not traced:
        # the passes follow each other, so each operation's successor holds
        # the probe taken just after it
        ops = scale([op for p in untraced for op in p.ops], probe.sample())
        scaled, first = [], 0
        for p in untraced:
            scaled.append([sum(t) for t in zip(*ops[first:first + len(p.ops)])])
            first += len(p.ops)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "passes": len(untraced),
        "pass_wall_s": [p.wall for p in untraced],
        "pass_cpu_s": [p.cpu for p in untraced],
        "pass_ops": [p.ops for p in untraced],
        "probe_nominal_s": PROBE_NOMINAL_S,
        "setup_probe_s": [w for w, _ in probe.samples[:first_pass_probe]],
        "pass_probe_s": [w for w, _ in probe.samples[first_pass_probe:]],
        "pass_probe_cpu_s": [c for _, c in probe.samples[first_pass_probe:]],
        "setup_runs_s": setup_runs,
    }
    if traced:
        context["traced_pass_wall_s"] = [p.wall for p in traced]
        context["spans"] = traced[0].trace.get("spans", {})
        context["counters"] = traced[0].trace.get("counters", {})
        layers = [layer_metrics(p.trace, p.output_bytes) for p in traced]
        values = {
            name: (layers[0][name] if isinstance(layers[0][name], int)
                   else statistics.median(layer[name] for layer in layers))
            for name in layers[0]
        }
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in untraced))
    else:
        values = {
            "wall_s": statistics.median(wall for wall, _ in scaled),
            "cpu_s": statistics.median(cpu for _, cpu in scaled),
            "peak_rss_mb": max(p.rss_mb for p in passes),
            "setup_s": setup_s,
            "ok_ratio": (attempted - failed) / attempted,
        }
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
