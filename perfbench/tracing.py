"""Module-boundary spans and memory peaks, installed from outside conetri.

Each timer replaces a function where its caller looks the name up (for
example `conetri.pow2_refiner.half_vector`, not `cone_geometry`'s own
binding), so only calls made by the pipeline are timed and nothing under
src/ changes. Spans are kept in memory as (name, start, end, parent, input)
records and written out when the benchmark ends. The first dot-separated
part of a span name is its layer, named after the conetri module.
"""

from __future__ import annotations

import csv
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

# (span name, module the caller resolves the name in, attribute). The class
# method entry patches _Engine so both phases' containment scans are seen.
SPAN_SITES = (
    ("cli.run_pipeline", "conetri.cli", "run_pipeline"),
    ("cli.report_dict", "conetri.cli", "_report_dict"),
    ("p2t_engine.run_p2t", "conetri.cli", "run_p2t"),
    ("p2t_engine.run_p2t", "conetri.p2t_engine", "run_p2t"),
    ("p2t_engine.find_x", "conetri.p2t_engine", "find_x"),
    ("p2t_engine.cones_containing", "conetri.p2t_engine", "_Engine.cones_containing"),
    ("cone_geometry.order_p_element", "conetri.p2t_engine", "order_p_element"),
    ("cone_geometry.split", "conetri.p2t_engine", "_split_at"),
    ("cone_geometry.half_vector", "conetri.pow2_refiner", "half_vector"),
    ("exact_linalg.smith_normal_form", "conetri.cone_geometry", "smith_normal_form"),
    ("exact_linalg.invert_unimodular", "conetri.cone_geometry", "invert_unimodular"),
    ("exact_linalg.nullspace_mod2", "conetri.cone_geometry", "nullspace_mod2"),
    ("exact_linalg.adjugate", "conetri.cone_geometry", "adjugate"),
    ("number_theory.factorize", "conetri.p2t_engine", "factorize"),
    ("number_theory.factorize", "conetri.verifier", "factorize"),
    ("pow2_refiner.refine", "conetri.cli", "refine_to_unimodular"),
    ("verifier.certify", "conetri.cli", "certify"),
    ("verifier.sweep", "conetri.verifier", "_sweep"),
    ("verifier.audit_trace", "conetri.verifier", "audit_trace"),
)

# Spans that only group one input's layer calls. Their self time is glue
# between layers, so it does not count as covered by the layer split.
WRAPPER_SPANS = ("cli.run_pipeline",)

# Phases whose memory high-water mark the tracemalloc pass records. They
# never nest. Certify and the JSON dump are left out: under tracemalloc they
# run ten times slower, which a heavy-d4 run cannot afford.
PEAK_SPANS = ("p2t_engine.run_p2t", "pow2_refiner.refine", "cli.report_dict")
PEAK_SITES = tuple(site for site in SPAN_SITES if site[0] in PEAK_SPANS)

# Counts read off a boundary call's return value.
RESULT_COUNTS = {
    "p2t_engine.run_p2t": lambda state: (
        ("p2t_engine.events", len(state.trace)),
        ("p2t_engine.cones_created", len(state.triangulation.all_created) - 1),
    ),
    "cone_geometry.split": lambda children: (
        ("cone_geometry.split.children", len(children)),
    ),
}

# Enclosing phases by which cones_containing time is split, with the short
# name each share is reported under.
PHASE_SPANS = {"p2t_engine.run_p2t": "p2t", "pow2_refiner.refine": "refine"}


def _resolve(module: str, attr: str):
    owner = import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(sites, make_wrapper):
    """Replace each site's function by make_wrapper(span_name, fn); restore
    every original on exit."""
    saved = []
    try:
        for span_name, module, attr in sites:
            owner, name = _resolve(module, attr)
            fn = owner.__dict__[name]
            saved.append((owner, name, fn))
            setattr(owner, name, make_wrapper(span_name, fn))
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


class Tracer:
    """In-memory span recorder: one list entry per call at a boundary."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, input]
        self._stack: list[int] = []
        self.input_id = -1
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, hook = self.counts, RESULT_COUNTS.get(name)

        def timed(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.input_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                for key, n in hook(result):
                    counts[key] += n
            return result

        return timed

    def installed(self):
        return patched(SPAN_SITES, self.wrap)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent", "input"))
            for i, (name, start, end, parent, inp) in enumerate(self.spans):
                out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent, inp))

    def summary(self) -> dict:
        """Inclusive time and call count per span name, self time per layer,
        the containment time split by enclosing phase, and the time covered
        by layer spans (top-level spans less the self time of wrappers)."""
        spans = self.spans
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        layer_self: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child_time[i]
            layer_self[name.split(".", 1)[0]] += own
            if parent < 0:
                covered += end - start
            if name in WRAPPER_SPANS:
                covered -= own
        by_phase: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if name != "p2t_engine.cones_containing":
                continue
            while parent >= 0 and spans[parent][0] not in PHASE_SPANS:
                parent = spans[parent][3]
            phase = PHASE_SPANS[spans[parent][0]] if parent >= 0 else "none"
            by_phase[phase] += end - start
        return {
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "layer_self": dict(layer_self),
            "containing_by_phase": dict(by_phase),
            "covered": covered,
        }


class PeakProbe:
    """High-water mark of the memory each probed phase allocates.

    Allocations are traced only while a probed phase runs, from its entry,
    so the rest of the pipeline keeps its normal speed.
    """

    def __init__(self):
        self.peaks: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        peaks = self.peaks

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return probed

    def installed(self):
        return patched(PEAK_SITES, self.wrap)
