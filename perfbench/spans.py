"""In-memory spans around fraczeta's public functions, recorded from outside.

``installed(tracer)`` replaces each target function, in every loaded
fraczeta module that holds it, with a wrapper that records a span: name,
start and end from ``perf_counter_ns``, parent span, op id, and counters
read from the return value.  ``StageSet.intervals`` is a generator, so
its span carries the time spent inside the generator (``busy``) and the
number of intervals it yielded.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer numbers, with self time = busy time minus
the busy time of the direct children.

Measured from outside the package, ``dimension.boxes_per_interval`` only
sees the intervals that ``box_count`` enumerates through
``StageSet.intervals``.  A box count that enumerates nothing there leaves
it unmeasured (``None``), not 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

from oracles import certified_digits

_clock = time.perf_counter_ns


def _zeta_counters(zv):
    return {"N": zv.terms_N, "K": zv.correction_K,
            "certified": certified_digits(zv.error_bound, zv.precision_digits),
            "digits": zv.precision_digits}


def _digitize_counters(seq):
    return {"ordinates": len(seq), "flagged": sum(e.boundary_flag for e in seq.entries)}


# module -> {function: (span name, counters read from the result)}
TARGETS = {
    "fraczeta.grids": {
        "self_similarity_check": ("grids.self_similarity", None),
        "write_stage_csv": ("grids.export", None),
        "stage_to_json": ("grids.export", None),
    },
    "fraczeta.dimension": {
        "box_count": ("dimension.box_count", lambda n: {"boxes": n}),
        "box_dimension_fit": ("dimension.fit", None),
        "multifractal_spectrum": ("dimension.multifractal", None),
    },
    "fraczeta.zeta": {
        "zeta_euler_maclaurin": ("zeta.zeta", _zeta_counters),
        "gamma_real": ("zeta.gamma", None),
        "functional_equation_residual": ("zeta.fe_residual", None),
    },
    "fraczeta.zeros": {
        "parse_zero_file": ("zeros.parse", None),
        "digitize": ("zeros.digitize", _digitize_counters),
        "digit_stats": ("zeros.stats", None),
    },
    "fraczeta.cardinality": {
        name: (f"cardinality.{name}", None)
        for name in ("catalog", "catalog_map", "compare", "compare_trace",
                     "compare_extended", "conservation_report", "axiom_suite")
    },
    "fraczeta.montecarlo": {
        "run_trials": ("montecarlo.run_trials", lambda run: {"trials": len(run.outcomes)}),
    },
    "fraczeta.cli": {
        "main": ("cli.main", None),
        "build_parser": ("cli.parse", None),
    },
}


class Tracer:
    """Spans of one process, as dicts, in the order they were opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> dict:
        span = {"name": name, "parent": self.stack[-1] if self.stack else -1, "op": self.op}
        self.spans.append(span)
        return span

    def call(self, name, fn, counters, args, kwargs):
        span = self._open(name)
        self.stack.append(len(self.spans) - 1)
        span["start"] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = _clock()
            self.stack.pop()
        if counters is not None:
            span.update(counters(result))
        return result

    def adopt(self, spans: list[dict]) -> None:
        """Append the spans of a child process as part of the current op."""
        offset = len(self.spans)
        for span in spans:
            if span["parent"] >= 0:
                span["parent"] += offset
            span["op"] = self.op
            self.spans.append(span)

    def iterate(self, name, it):
        """Re-yield ``it``, timing only the time spent inside it."""
        span = self._open(name)
        busy = count = 0
        span["start"] = _clock()
        try:
            while True:
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    busy += _clock() - t0
                    return
                busy += _clock() - t0
                count += 1
                yield item
        finally:
            span.update(end=_clock(), busy=busy, intervals=count)


def _wrap(tracer, name, fn, counters):
    if name == "cli.parse":
        # the parser's parse_args belongs to the same parse span family
        def build(*args, **kwargs):
            parser = tracer.call(name, fn, None, args, kwargs)
            parse = parser.parse_args
            parser.parse_args = lambda *a, **k: tracer.call(name, parse, None, a, k)
            return parser
        return functools.wraps(fn)(build)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, counters, args, kwargs)
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route calls to the target functions through ``tracer`` while active."""
    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == "fraczeta" or n.startswith("fraczeta.")]
    for modname, funcs in TARGETS.items():
        home = sys.modules.get(modname)
        if home is None:
            continue
        for attr, (name, counters) in funcs.items():
            orig = getattr(home, attr)
            wrapped = _wrap(tracer, name, orig, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        patched.append((mod, key, orig))
    stage_set = sys.modules["fraczeta.grids"].StageSet
    intervals = stage_set.intervals
    stage_set.intervals = lambda self: tracer.iterate("grids.enumerate", intervals(self))
    try:
        yield tracer
    finally:
        stage_set.intervals = intervals
        for mod, key, orig in patched:
            setattr(mod, key, orig)


def _busy(span) -> int:
    return span.get("busy", span["end"] - span["start"])


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float | None]:
    """Per-layer numbers from the spans of ``ops`` ops.

    Times and counts are per op (``ms/op``, ``count/op``); ratios are over
    all calls.  A layer that did not run reports 0;
    ``dimension.boxes_per_interval`` is None when boxes were counted but
    no interval was enumerated under ``box_count``.
    """
    by_name = defaultdict(list)
    child_busy = defaultdict(int)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)
        if span["parent"] >= 0:
            child_busy[span["parent"]] += _busy(span)

    def total(name, key=None):
        return sum(spans[i].get(key, 0) if key else _busy(spans[i]) for i in by_name[name])

    def ms(name):
        return total(name) / 1e6 / ops

    def self_ms(name):
        return sum(_busy(spans[i]) - child_busy[i] for i in by_name[name]) / 1e6 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def inside(i, prefix):
        parent = spans[i]["parent"]
        while parent >= 0:
            if spans[parent]["name"].startswith(prefix):
                return True
            parent = spans[parent]["parent"]
        return False

    zetas = by_name["zeta.zeta"]
    zeta_calls = len(zetas)
    card_top = [i for i, s in enumerate(spans)
                if s["name"].startswith("cardinality.") and not inside(i, "cardinality.")]
    card_ns = sum(_busy(spans[i]) for i in card_top)
    card_zeta_ns = sum(_busy(spans[i]) for i in zetas if inside(i, "cardinality."))
    counted = total("dimension.box_count", "boxes")
    visited = sum(spans[i]["intervals"] for i in by_name["grids.enumerate"]
                  if spans[i]["parent"] >= 0
                  and spans[spans[i]["parent"]]["name"] == "dimension.box_count")
    digitized = total("zeros.digitize", "ordinates")
    return {
        "cli.parse_ms": ms("cli.parse"),
        "cli.main_self_ms": self_ms("cli.main"),
        "grids.enumerate_ms": ms("grids.enumerate"),
        "grids.intervals_yielded": total("grids.enumerate", "intervals") / ops,
        "grids.export_ms": ms("grids.export"),
        "grids.self_similarity_ms": ms("grids.self_similarity"),
        "dimension.box_count_ms": ms("dimension.box_count"),
        "dimension.box_count_calls": len(by_name["dimension.box_count"]) / ops,
        "dimension.boxes_counted": counted / ops,
        "dimension.boxes_per_interval": ratio(counted, visited) if visited or not counted else None,
        "dimension.fit_self_ms": self_ms("dimension.fit"),
        "dimension.multifractal_ms": ms("dimension.multifractal"),
        "zeta.zeta_ms": ms("zeta.zeta"),
        "zeta.zeta_calls": zeta_calls / ops,
        "zeta.terms_N_mean": ratio(total("zeta.zeta", "N"), zeta_calls),
        "zeta.correction_K_mean": ratio(total("zeta.zeta", "K"), zeta_calls),
        "zeta.certified_digits_ratio": float(ratio(  # exact sum, so reruns agree to the last bit
            sum(Fraction(spans[i]["certified"], spans[i]["digits"]) for i in zetas), zeta_calls)),
        "zeta.gamma_ms": ms("zeta.gamma"),
        "zeta.fe_residual_self_ms": self_ms("zeta.fe_residual"),
        "zeros.parse_ms": ms("zeros.parse"),
        "zeros.digitize_ms": ms("zeros.digitize"),
        "zeros.ordinates_digitized": digitized / ops,
        "zeros.boundary_flag_ratio": ratio(total("zeros.digitize", "flagged"), digitized),
        "zeros.stats_ms": ms("zeros.stats"),
        "cardinality.self_ms": (card_ns - card_zeta_ns) / 1e6 / ops,
        "cardinality.zeta_share": ratio(card_zeta_ns, card_ns),
        "montecarlo.run_trials_ms": ms("montecarlo.run_trials"),
        "montecarlo.trials": total("montecarlo.run_trials", "trials") / ops,
    }
