"""conetri benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload heavy-d4 --seed 0 --seconds 25 --trace 0

Run from the repository root. conetri is imported from ./src, so every
commit is measured with its own code. One process runs one input at a time
(closed loop, no extra threads) and repeats passes over the workload's
inputs until --seconds have elapsed, always finishing the pass it is in.

--trace 0 prints the end-to-end metrics, their times in seconds at a fixed
reference speed (see SPEED_INTERVAL). --trace 1 runs the same untraced
passes, then one pass with module-boundary spans (tracing.py), then the
input with the most output cones under tracemalloc for the memory peaks,
and prints the per-layer metrics.
--smoke swaps in toy-size inputs so tests can check every metric is
emitted. The last line of stdout is one JSON object; a readable summary
goes to stderr and a result file to perfbench/out/. The exit status is 0
only when every output checked correct.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import workloads
from tracing import PEAK_SPANS, PHASE_SPANS, PeakProbe, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
MODULES = ("cli", "cone_geometry", "p2t_engine", "verifier")
# setup_s is the median import time of SETUP_PROBES fresh interpreters, as
# a user's process pays it with nothing imported yet. A probe times only the
# import, not the interpreter's own start-up; argv[1] is the src directory.
# Each probe follows a reference_task() timing, which scales setup_s to the
# reference speed at the moment of the probes (see SPEED_INTERVAL).
SETUP_PROBES = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    + "; ".join(f"import conetri.{name}" for name in MODULES)
    + "; print(time.perf_counter() - t0)"
)

# The host's speed drifts by up to half over minutes, and every time metric
# would drift with it. So while the untraced passes run, a timer interrupts
# them every SPEED_INTERVAL seconds to time reference_task(), fixed work of
# the benchmark's own that slows with the host much as conetri does. Each
# time metric is scaled by REFERENCE_SECONDS over the task's median time in
# the run: it reads in seconds at the speed at which the task takes
# REFERENCE_SECONDS, about the baseline machine's typical speed. The task's
# own time is left out of the input it interrupted.
SPEED_INTERVAL = 0.6
REFERENCE_SECONDS = 0.03
REFERENCE_SEED = 12345
REFERENCE_DOC = [
    {"generators": [[i, i + 1, -i, 3], [2, i % 7, 5, -1]], "multiplicity": i % 5 + 1, "index": i}
    for i in range(450)
]

END_TO_END = {
    "wall_s": "s",
    "output_cones_per_s": "1/s",
    "input_p50_s": "s",
    "input_p99_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Inclusive span times reported as "<span>.s".
SPAN_TIMES = (
    "cli.report_dict",
    "cli.json_dump",
    "p2t_engine.run_p2t",
    "p2t_engine.find_x",
    "p2t_engine.cones_containing",
    "cone_geometry.order_p_element",
    "cone_geometry.half_vector",
    "cone_geometry.split",
    "exact_linalg.smith_normal_form",
    "exact_linalg.invert_unimodular",
    "exact_linalg.nullspace_mod2",
    "exact_linalg.adjugate",
    "number_theory.factorize",
    "pow2_refiner.refine",
    "verifier.certify",
    "verifier.sweep",
    "verifier.audit_trace",
)
SPAN_CALLS = (
    "p2t_engine.find_x",
    "cone_geometry.half_vector",
    "cone_geometry.split",
    "number_theory.factorize",
)
# Least share of the traced pass the layer spans must cover; below it a
# boundary moved or was renamed and the layer split misses work.
MIN_COVERAGE = 0.9
LAYERS = (
    "cli",
    "p2t_engine",
    "cone_geometry",
    "exact_linalg",
    "number_theory",
    "pow2_refiner",
    "verifier",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in SPAN_TIMES}
    units.update({f"{name}.calls": "count" for name in SPAN_CALLS})
    units.update({f"p2t_engine.cones_containing.{p}.s": "s" for p in PHASE_SPANS.values()})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{name}.peak_mb": "MB" for name in PEAK_SPANS})
    units.update({
        "cli.report_bytes": "B",
        "bytes_per_output_cone": "B",
        "p2t_engine.events": "count",
        "p2t_engine.cones_created": "count",
        "cone_geometry.split.children": "count",
        "pow2_refiner.output_per_mu": "cones/mu",
        "trace.overhead_frac": "ratio",
        "trace.coverage_frac": "ratio",
        "trace.spans": "count",
    })
    return units


def import_conetri() -> dict:
    """Import the modules under test from ./src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    mods = {name: import_module(f"conetri.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"conetri was imported from {where}, not {SRC}")
    return mods


def probe_imports() -> tuple[list[float], list[float]]:
    """(import times, reference_task() times), one of each per probe."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    imports, reference = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        reference_task()
        reference.append(time.perf_counter() - t0)
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(out.stdout))
    return imports, reference


class Runner:
    """Runs one input the way a user would and checks what came back."""

    def __init__(self, mods: dict, kind: str):
        self.mods = mods
        self.kind = kind
        self.dump = json.dumps

    def run(self, gens):
        if self.kind == "pipeline":
            cli = self.mods["cli"]
            doc, _ = cli.run_pipeline(cli.RunConfig(generators=gens))
            # As `conetri run --format json` prints it.
            return doc, self.dump(doc, indent=2)
        cone = self.mods["cone_geometry"].make_cone(gens)
        state = self.mods["p2t_engine"].run_p2t(cone)
        flags = self.mods["verifier"].audit_trace(
            cone, state.trace, state.triangulation.all_created
        )
        return state, flags

    def check(self, result, want_digest: bool):
        """(certificates ok, output cones, base mu, report bytes, digest)."""
        if self.kind == "pipeline":
            doc, text = result
            ok = all(doc["certificates"].values())
            digest = hashlib.sha256(text.encode()).hexdigest() if want_digest else None
            return ok, doc["final"]["count"], doc["base"]["multiplicity"], len(text), digest
        state, flags = result
        cones = state.triangulation.cones
        ok = all(flags) and all(c.multiplicity & (c.multiplicity - 1) == 0 for c in cones)
        digest = None
        if want_digest:
            canon = json.dumps([[c.generators, c.multiplicity] for c in cones] + [len(state.trace)])
            digest = hashlib.sha256(canon.encode()).hexdigest()
        return ok, len(cones), state.triangulation.base.multiplicity, 0, digest


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tally:
    """What the passes measured and what the checks found."""

    def __init__(self):
        self.passes: list[float] = []
        self.samples: dict[int, list[float]] = {}  # each input's time, per pass
        self.reference: list[float] = []  # SpeedProbe's task times
        self.paused = 0.0  # seconds spent in SpeedProbe's task
        self.attempted = 0
        self.failed = 0
        self.outputs = 0
        self.per_input: dict[int, int] = {}  # output cones of each input
        self.base_mu = 0
        self.report_bytes = 0
        self.digests: list[str] = []
        self.problems: list[str] = []
        # RSS high-water mark before the first input and its latest rise,
        # with the output cones of the input that raised it.
        self.rss_start = self.rss_peak = peak_rss_bytes()
        self.peak_cones = 0


def run_pass(runner: Runner, wl, tally: Tally, tracer: Tracer | None = None) -> None:
    want_digest = not tally.passes
    pass_time = 0.0
    for i, gens in enumerate(wl.cones):
        tally.attempted += 1
        if tracer is not None:
            tracer.input_id = i
        paused = tally.paused
        t0 = time.perf_counter()
        try:
            result = runner.run(gens)
            dt = time.perf_counter() - t0 - (tally.paused - paused)
            ok, count, mu, nbytes, digest = runner.check(result, want_digest)
        except Exception:
            dt = time.perf_counter() - t0 - (tally.paused - paused)
            traceback.print_exc()
            ok, count, mu, nbytes, digest = False, 0, 0, 0, None
        result = None  # release this input's output before the next one
        expected = wl.expected[i]
        if not ok:
            tally.problems.append(f"input {i}: raised or a certificate is false")
        elif expected is not None and count != expected:
            ok = False
            tally.problems.append(f"input {i}: {count} output cones, pinned {expected}")
        tally.failed += not ok
        pass_time += dt
        tally.samples.setdefault(i, []).append(dt)
        tally.outputs += count
        tally.per_input[i] = count
        rss = peak_rss_bytes()
        if rss > tally.rss_peak:
            tally.rss_peak, tally.peak_cones = rss, count
        tally.base_mu += mu
        tally.report_bytes += nbytes
        if digest is not None:
            tally.digests.append(digest)
    tally.passes.append(pass_time)


def reference_task() -> int:
    """Three parts of about equal time, like the three kinds of work in the
    workloads: integer matrix arithmetic (workloads.py's cone draws and
    Bareiss determinants), an indented JSON report, and building and
    hashing many small tuples. A task of the integer part alone sped up
    half again as much as heavy-d4 when the host got faster."""
    rng = random.Random(REFERENCE_SEED)
    for _ in range(250):
        workloads.draw_cone(4, workloads.CAMPAIGN_BOUND, rng)
    json.dumps(REFERENCE_DOC, indent=2)
    rows = [tuple(range(i % 5, i % 5 + 4)) for i in range(15000)]
    return len({row: i for i, row in enumerate(rows[::3])})


class SpeedProbe:
    """Times reference_task() on a timer signal into a Tally."""

    def __init__(self, tally: Tally):
        self.tally = tally

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_task()
        dt = time.perf_counter() - t0
        self.tally.reference.append(dt)
        self.tally.paused += dt

    @contextmanager
    def installed(self):
        self.tick()  # so even a run shorter than one interval has a sample
        old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL, SPEED_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def measure(runner: Runner, wl, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    with SpeedProbe(tally).installed():
        while True:
            run_pass(runner, wl, tally)
            if time.perf_counter() - start >= seconds:
                return tally


def speed_scale(tally: Tally) -> float:
    """Factor from this run's seconds to seconds at the reference speed."""
    return REFERENCE_SECONDS / statistics.median(tally.reference)


def pass_digest(tally: Tally) -> str:
    return hashlib.sha256("".join(tally.digests).encode()).hexdigest()


def end_to_end(tally: Tally, setup_times: list[float], setup_reference: list[float]) -> dict:
    scale = speed_scale(tally)
    # Percentiles over every run of every input, all passes together.
    samples = sorted(t for ts in tally.samples.values() for t in ts)
    p99 = (
        statistics.quantiles(samples, n=100, method="inclusive")[98]
        if len(samples) > 1 else samples[0]
    )
    return {
        "wall_s": scale * statistics.median(tally.passes),
        "output_cones_per_s": tally.outputs / (scale * sum(tally.passes)),
        "input_p50_s": scale * statistics.median(samples),
        "input_p99_s": scale * p99,
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "setup_s": (
            statistics.median(setup_times) * REFERENCE_SECONDS / statistics.median(setup_reference)
        ),
    }


def per_layer(runner: Runner, wl, untraced: Tally, out_stem: Path) -> tuple[dict, Tally]:
    """One traced pass, then the tracemalloc pass on the input with the
    most output cones, which sets every peak; the per-layer metrics."""
    tracer = Tracer()
    traced = Tally()
    with tracer.installed():
        runner.dump = tracer.wrap("cli.json_dump", json.dumps)
        run_pass(runner, wl, traced, tracer)
    runner.dump = json.dumps
    tracer.write(f"{out_stem}-spans.csv")
    i = max(untraced.per_input, key=lambda k: (untraced.per_input[k], -k))
    largest = dataclasses.replace(wl, cones=wl.cones[i:i + 1], expected=wl.expected[i:i + 1])
    probe = PeakProbe()
    peaks = Tally()
    with probe.installed():
        run_pass(runner, largest, peaks)

    summary = tracer.summary()
    inclusive, calls = summary["inclusive"], summary["calls"]
    traced_wall = traced.passes[0]
    m = {f"{name}.s": inclusive.get(name, 0.0) for name in SPAN_TIMES}
    m.update({f"{name}.calls": calls.get(name, 0) for name in SPAN_CALLS})
    for phase in PHASE_SPANS.values():
        m[f"p2t_engine.cones_containing.{phase}.s"] = summary["containing_by_phase"].get(phase, 0.0)
    m.update({f"{layer}.self_s": summary["layer_self"].get(layer, 0.0) for layer in LAYERS})
    m.update({f"{name}.peak_mb": probe.peaks.get(name, 0) / 2**20 for name in PEAK_SPANS})
    m.update(tracer.counts)
    m.update({
        "cli.report_bytes": traced.report_bytes,
        # Growth of the RSS high-water mark over the untraced passes over
        # the output cones of the input whose run last raised it.
        "bytes_per_output_cone": (
            (untraced.rss_peak - untraced.rss_start) / max(untraced.peak_cones, 1)
        ),
        "pow2_refiner.output_per_mu": (
            traced.outputs / traced.base_mu if "pow2_refiner.refine" in calls else 0.0
        ),
        "trace.overhead_frac": traced_wall / statistics.median(untraced.passes) - 1.0,
        "trace.coverage_frac": summary["covered"] / traced_wall,
        "trace.spans": len(tracer.spans),
    })
    units = per_layer_units()
    for name in units:
        m.setdefault(name, 0)
    if m["trace.coverage_frac"] < MIN_COVERAGE:
        traced.problems.append(
            f"layer spans cover {m['trace.coverage_frac']:.3f} of the traced pass,"
            f" under {MIN_COVERAGE}: work runs outside every named boundary"
        )
    traced.problems += peaks.problems
    traced.failed += peaks.failed
    traced.attempted += peaks.attempted
    return {name: m[name] for name in units}, traced


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pinned_checks(args, wl, tally: Tally) -> dict:
    """Default-seed pins: the output count is a correctness check; a changed
    digest is reported under its own name and does not fail the run."""
    checks = {"certificates_and_counts": "pass" if not tally.failed else "FAIL"}
    if args.smoke or args.seed != workloads.DEFAULT_SEED:
        return checks
    pin = workloads.load_pins().get("defaults", {}).get(wl.name)
    if pin is None:
        return checks
    per_pass = tally.outputs // len(tally.passes)
    if per_pass != pin["count"]:
        checks["default_count"] = "FAIL"
        tally.problems.append(f"{per_pass} output cones per pass, pinned {pin['count']}")
    else:
        checks["default_count"] = "pass"
    checks["report_digest"] = "match" if pass_digest(tally) == pin["sha256"] else "CHANGED"
    return checks


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size inputs")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_conetri()
        wl = workloads.build(args.workload, args.seed, args.smoke)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_times, setup_reference = ([], []) if args.trace else probe_imports()

    runner = Runner(mods, wl.kind)
    tally = measure(runner, wl, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    if args.trace:
        values, traced = per_layer(runner, wl, tally, stem)
        units = per_layer_units()
        tally.problems += traced.problems
        tally.failed += traced.failed
        tally.attempted += traced.attempted
    else:
        values = end_to_end(tally, setup_times, setup_reference)
        units = END_TO_END
    checks = pinned_checks(args, wl, tally)
    if args.trace:
        checks["span_coverage"] = "pass" if values["trace.coverage_frac"] >= MIN_COVERAGE else "FAIL"
    correct = tally.failed == 0 and not tally.problems
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "inputs": len(wl.cones),
        "passes": len(tally.passes),
        "pass_seconds": tally.passes,
        "setup_seconds": setup_times,
        "setup_reference_seconds": setup_reference,
        "reference_seconds": statistics.median(tally.reference),
        "reference_samples": len(tally.reference),
        "speed_scale": speed_scale(tally),
        "fail_frac": tally.failed / tally.attempted,
        "checks": checks,
        "problems": tally.problems,
        "report_digest": pass_digest(tally),
        "output_cones_per_pass": tally.outputs // len(tally.passes),
        "machine": machine(),
        "commit": git_commit(),
        "metrics": metrics,
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, state in checks.items():
        print(f"check {name}: {state}", file=sys.stderr)
    print(f"fail_frac: {record['fail_frac']:.6g} ({tally.failed}/{tally.attempted})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        print("self time by layer:", file=sys.stderr)
        for layer in sorted(LAYERS, key=lambda k: -values[f"{k}.self_s"]):
            t = values[f"{layer}.self_s"]
            print(f"  {layer:14s} {t:9.3f} s  {100 * t / total:5.1f}%", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
