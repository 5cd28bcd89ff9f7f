"""Per-layer tracer for the rgcodes benchmark.

The tracer wraps public functions of the rgcodes modules from outside the
package; nothing under src/ knows about it.  Each wrapped function becomes
a named span.  Per span the recorder keeps the call count, the inclusive
time (outermost entries only, so a span that re-enters itself is not
counted twice) and the self time (duration minus the time of directly
nested spans).  Counters record work where it happens: RG products, their
operand support, words enumerated, probes accepted.

A function imported by name (``from .idempotents import primitive_family``)
lives on in every importing module, so wrapping it in its home module
alone would miss those callers.  ``install`` therefore rebinds every
attribute of every loaded rgcodes module that *is* the original function,
and then checks that no module still refers to an original.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MODULES = (
    "arith", "chain_ring", "group_algebra", "f2_oracle",
    "idempotents", "codes", "cli", "selftest",
)

# (module, function, span): plain functions, rebound wherever imported
FUNCTION_SPANS = (
    ("arith", "crt_multi", "arith.crt_multi"),
    ("arith", "cyclotomic_cosets", "arith.cyclotomic_cosets"),
    ("f2_oracle", "primitive_idempotents_f2", "f2_oracle.refine"),
    ("f2_oracle", "coset_sums", "f2_oracle.coset_sums"),
    ("idempotents", "primitive_family", "idempotents.family"),
    ("idempotents", "lift_idempotent", "idempotents.lift"),
    ("idempotents", "block_idempotent", "idempotents.closed_forms"),
    ("idempotents", "u_element", "idempotents.closed_forms"),
    ("idempotents", "split_block_2", "idempotents.closed_forms"),
    ("idempotents", "split_block_3", "idempotents.closed_forms"),
    ("idempotents", "u_product_pair", "idempotents.closed_forms"),
    ("idempotents", "verify_family", "idempotents.verify"),
    ("codes", "analyze_code", "codes.analyze"),
    ("codes", "check_components", "codes.check"),
    ("codes", "enumerate_codewords", "codes.enumerate"),
    ("codes", "weight_probes", "codes.bounds"),
    ("codes", "min_weight_upper_bound", "codes.bounds"),
    ("codes", "min_weight_lower_bound", "codes.bounds"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span): patched on the class itself
METHOD_SPANS = (
    ("chain_ring", "ChainRing", "mul_arr", "chain_ring.mul_arr"),
    ("group_algebra", "AlgebraElem", "scale_exponents", "group_algebra.scale_exponents"),
)

PRODUCT = "group_algebra.product"
# spans whose RG products are counted as <span>.products, nested calls included
PRODUCT_SCOPES = ("f2_oracle.refine", "idempotents.verify", "codes.check", "codes.bounds")


class Recorder:
    """Span statistics and counters of one traced process."""

    def __init__(self):
        self.spans = {}     # span -> [calls, inclusive_s, self_s]
        self.counters = {}  # name -> int or float
        self._stack = []    # open frames: [span, child_s, start]
        self._depth = {}    # span -> number of open frames

    def push(self, span):
        self._depth[span] = self._depth.get(span, 0) + 1
        self._stack.append([span, 0.0, perf_counter()])

    def pop(self) -> float:
        end = perf_counter()
        span, child, start = self._stack.pop()
        dur = end - start
        stat = self.spans.setdefault(span, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += dur - child
        self._depth[span] -= 1
        if not self._depth[span]:
            stat[1] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def active(self, span) -> bool:
        return self._depth.get(span, 0) > 0

    def add(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _span(rec, span, fn, post=None):
    def wrapper(*args, **kwargs):
        rec.push(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop()
        if post is not None:
            post(rec, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _after_family(rec, records):
    rec.add("idempotents.family.records", len(records))
    rec.add("idempotents.family.formula_records",
            sum(1 for r in records if r.method == "paper-formula"))


def _after_enumerate(rec, words):
    rec.add("codes.enumerate.words", len(words))
    rec.add("codes.enumerate.bytes", int(words.rows.nbytes))


def _after_probes(rec, probes):
    rec.add("codes.bounds.probes", len(probes))


POST = {
    "primitive_family": _after_family,
    "enumerate_codewords": _after_enumerate,
    "weight_probes": _after_probes,
}


def _product(rec, original, algebra_elem, np):
    """AlgebraElem.__mul__, timed only when the operand is an algebra element."""

    def __mul__(self, other):
        if not isinstance(other, algebra_elem):
            return original(self, other)
        n = self.algebra.n
        terms = min(int(np.count_nonzero(self.coeffs)), int(np.count_nonzero(other.coeffs)))
        rec.add(PRODUCT + ".terms", terms)
        rec.add(PRODUCT + ".bytes", 3 * n * self.coeffs.itemsize)
        for scope in PRODUCT_SCOPES:
            if rec.active(scope):
                rec.add(scope + ".products")
        rec.push(PRODUCT)
        try:
            out = original(self, other)
        finally:
            dur = rec.pop()
        if 8 * terms <= n:
            rec.add(PRODUCT + ".sparse_calls")
            rec.add(PRODUCT + ".sparse_s", dur)
        return out

    __mul__.__wrapped__ = original
    return __mul__


class Installation:
    """Wrapped names in the loaded rgcodes modules; ``restore`` undoes them."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []  # (owner, attribute, original)

    def _set(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _rgcodes_modules():
    return [importlib.import_module(f"rgcodes.{m}") for m in MODULES] + [
        importlib.import_module("rgcodes")
    ]


def install() -> Installation:
    """Wrap every traced function and method; raise if any name is missed."""
    import numpy as np

    rec = Recorder()
    inst = Installation(rec)
    modules = _rgcodes_modules()
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    # look every name up before rebinding any: a renamed or removed function
    # or method raises here, so a span never narrows silently
    functions = [
        (f"{mod_name}.{fn_name}", fn_name, span, getattr(home[mod_name], fn_name))
        for mod_name, fn_name, span in FUNCTION_SPANS
    ]
    methods = []
    for mod_name, cls_name, meth, span in METHOD_SPANS:
        cls = getattr(home[mod_name], cls_name)
        methods.append((cls, meth, span, cls.__dict__[meth]))

    originals = []
    for label, fn_name, span, original in functions:
        wrapper = _span(rec, span, original, POST.get(fn_name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst._set(mod, attr, original, wrapper)
        originals.append((label, original))

    for cls, meth, span, original in methods:
        inst._set(cls, meth, original, _span(rec, span, original))

    elem = home["group_algebra"].AlgebraElem
    original = elem.__dict__["__mul__"]
    inst._set(elem, "__mul__", original, _product(rec, original, elem, np))

    stale = [
        f"{mod.__name__}.{attr} -> {label}"
        for label, original in originals
        for mod in [m for m in sys.modules.values() if _is_rgcodes(m)]
        for attr, value in vars(mod).items()
        if value is original
    ]
    if stale:
        inst.restore()
        raise RuntimeError("tracer left names unwrapped: " + ", ".join(stale))
    return inst


def _is_rgcodes(mod) -> bool:
    name = getattr(mod, "__name__", "") or ""
    return name == "rgcodes" or name.startswith("rgcodes.")
