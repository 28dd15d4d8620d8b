"""Spans around calls into certlap's public functions, recorded from outside
the package.

``installed(tracer)`` replaces each function in ``TRACED`` by a wrapper that
opens a span, in the module that defines it and in every certlap module that
imported it (``integrate`` is bound in ``oracle``, ``gibbs``, ``cli`` and the
package itself), and puts the originals back on exit.  Spans are kept in
memory; a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]  # index into Tracer.spans
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, self.clock(), parent)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = self.clock()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration


def _integrate_attrs(out) -> dict:
    return {"evals": out.evaluations}


def _measure_attrs(out) -> dict:
    return {"key": (out.spec.name, out.N, out.tol)}


def _sample_attrs(out) -> dict:
    return {"draws": out.count, "proposed": out.proposed}


# (certlap module, function, span name, counters read from the result)
TRACED = [
    ("oracle", "integrate", "oracle.integrate", _integrate_attrs),
    ("gibbs", "gibbs_measure", "gibbs.gibbs_measure", _measure_attrs),
    ("gibbs", "measure_of", "gibbs.measure_of", None),
    ("gibbs", "mgf_X", "gibbs.mgf", None),
    ("gibbs", "mgf_Y", "gibbs.mgf", None),
    ("gibbs", "sample", "gibbs.sample", _sample_attrs),
    ("gibbs", "empirical_limit_test", "gibbs.empirical_limit_test", None),
    ("gibbs", "tilted_maximizer_check", "gibbs.tilted_maximizer_check", None),
    ("problems", "locate_maximum", "problems.locate_maximum", None),
    ("problems", "classify_maximum", "problems.classify_maximum", None),
    ("constants", "estimate_constants", "constants.estimate_constants", None),
    ("constants", "audit_constants", "constants.audit_constants", None),
    ("derivatives", "gradients_on", "derivatives", None),
    ("derivatives", "hessians_on", "derivatives", None),
    ("derivatives", "third_norms_on", "derivatives", None),
    ("catalog", "get_problem", "catalog.get_problem", None),
    ("config", "problem_from_config", "config.problem_from_config", None),
    ("laplace", "approximate", "laplace.approximate", None),
    ("cli", "run_checks", "cli.run_checks", None),
    ("cli", "write_outputs", "cli.write_outputs", None),
]


def _wrap(tracer: Tracer, name: str, fn, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs.update(attrs(out))
            return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of each traced function for the duration of the
    block; the original objects are restored even when the block raises."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if name == "certlap" or name.startswith("certlap.")
    ]
    patched = []
    try:
        for modname, fname, span_name, attrs in TRACED:
            original = getattr(importlib.import_module(f"certlap.{modname}"), fname)
            wrapper = _wrap(tracer, span_name, original, attrs)
            for mod in modules:
                if vars(mod).get(fname) is original:
                    setattr(mod, fname, wrapper)
                    patched.append((mod, fname, original))
        yield
    finally:
        for mod, fname, original in reversed(patched):
            setattr(mod, fname, original)


def _outermost(spans: list[Span], i: int) -> bool:
    """True unless a span of the same name encloses span i."""
    name = spans[i].name
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def _new_row() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "durations": []}


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans only), self
    seconds, failed calls and the durations of every call."""
    table: dict[str, dict] = defaultdict(_new_row)
    for i, sp in enumerate(spans):
        row = table[sp.name]
        row["calls"] += 1
        row["self_s"] += sp.self_s
        row["failed"] += sp.failed
        row["durations"].append(sp.duration)
        if _outermost(spans, i):
            row["s"] += sp.duration
    return dict(table)


def layer_metrics(spans: list[Span], sweep_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``sweep_s`` seconds."""
    t = span_table(spans)

    def row(name):
        return t.get(name) or _new_row()

    def total(name, attr):
        return sum(sp.attrs.get(attr, 0) for sp in spans if sp.name == name)

    def per(num, den):
        return num / den if den else 0.0

    orc, gm, smp = row("oracle.integrate"), row("gibbs.gibbs_measure"), row("gibbs.sample")
    evals = total("oracle.integrate", "evals")
    draws, proposed = total("gibbs.sample", "draws"), total("gibbs.sample", "proposed")
    keys = {sp.attrs["key"] for sp in spans if "key" in sp.attrs}
    accounted = sum(sp.self_s for sp in spans)
    return {
        "oracle.integrate.calls": orc["calls"],
        "oracle.integrate.s": orc["s"],
        "oracle.integrate.self_s": orc["self_s"],
        "oracle.integrate.evals": evals,
        "oracle.integrate.evals_per_s": per(evals, orc["s"]),
        "oracle.integrate.p50_ms": 1e3 * statistics.median(orc["durations"]) if orc["calls"] else 0.0,
        "oracle.integrate.failed": orc["failed"],
        "gibbs.gibbs_measure.calls": gm["calls"],
        "gibbs.gibbs_measure.s": gm["s"],
        "gibbs.gibbs_measure.unique_ratio": per(len(keys), gm["calls"]),
        "gibbs.measure_of.calls": row("gibbs.measure_of")["calls"],
        "gibbs.measure_of.s": row("gibbs.measure_of")["s"],
        "gibbs.mgf.calls": row("gibbs.mgf")["calls"],
        "gibbs.mgf.self_s": row("gibbs.mgf")["self_s"],
        "gibbs.sample.calls": smp["calls"],
        "gibbs.sample.s": smp["s"],
        "gibbs.sample.draws": draws,
        "gibbs.sample.proposed": proposed,
        "gibbs.sample.acceptance": per(draws, proposed),
        "gibbs.sample.draws_per_s": per(draws, smp["s"]),
        "gibbs.sample.failed": smp["failed"],
        "gibbs.empirical_limit_test.s": row("gibbs.empirical_limit_test")["s"],
        "gibbs.tilted_maximizer_check.s": row("gibbs.tilted_maximizer_check")["s"],
        "problems.locate_maximum.calls": row("problems.locate_maximum")["calls"],
        "problems.locate_maximum.s": row("problems.locate_maximum")["s"],
        "problems.classify_maximum.s": row("problems.classify_maximum")["s"],
        "constants.estimate_constants.self_s": row("constants.estimate_constants")["self_s"],
        "constants.audit_constants.s": row("constants.audit_constants")["s"],
        "derivatives.calls": row("derivatives")["calls"],
        "derivatives.s": row("derivatives")["s"],
        "catalog.get_problem.calls": row("catalog.get_problem")["calls"],
        "catalog.get_problem.s": row("catalog.get_problem")["s"],
        "config.problem_from_config.s": row("config.problem_from_config")["s"],
        "laplace.approximate.calls": row("laplace.approximate")["calls"],
        "laplace.approximate.s": row("laplace.approximate")["s"],
        "cli.run_checks.self_s": row("cli.run_checks")["self_s"],
        "cli.write_outputs.s": row("cli.write_outputs")["s"],
        "trace.sweep_s": sweep_s,
        "trace.unaccounted_s": sweep_s - accounted,
    }
