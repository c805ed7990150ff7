"""Rebuild the pinned pools and default-seed checks in pins.json.

    python3 perfbench/find_pins.py p2t-pool   # d=5 pool for p2t-d5
    python3 perfbench/find_pins.py digests    # default-seed counts/digests

Run from the repository root; it imports conetri from ./src. The pins hold
what the current code produces, so a change that alters the subdivision on
purpose reruns this script and commits the new pins with its reason.

heavy-d4 pool rule. Entry 0 is campaign index 6, the named heavy cone
(mu 1062, 147,021 final cones). The other entries were chosen once from
every draw of the capped d=4 campaign stream (workloads.campaign_d4) with
index below 1603 and mu >= 600, each run through the full pipeline in a
child process capped at 1.5 GB and 60 s. A draw joined the pool when its
final cone count was within 8% of the named cone's and its run time, the
median of three alternating fresh-process runs against the named cone,
was within 8% of the named cone's. The time rule is needed because the
cost per final cone differs by up to 30% between heavy cones of equal
count. Five draws were within 8% by count; indices 680 and 1390 passed the
time rule, while 326, 542 and 907 took 9-15% longer. The pool is entered in
pins.json by hand, each entry with its mu and final count, which every run
checks.

p2t-d5 pool rule. Every draw j < workloads.P2T_DRAWS of the p2t stream whose
mu lies in workloads.P2T_MU_RANGE joins, pinned with the number of cones
run_p2t returns and the seconds run_p2t plus audit_trace took while the
pool was built. The count is checked on every run; the seconds only order
the pool into strata, because the cost per output cone varies too much
between cones for the count to do that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _write_pins(pins: dict) -> None:
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pins, indent=1) + "\n")


def _pins() -> dict:
    try:
        return workloads.load_pins()
    except FileNotFoundError:
        return {}


def p2t_pool() -> None:
    from conetri import p2t_engine, verifier
    from conetri.cone_geometry import make_cone

    pool = []
    for j in range(workloads.P2T_DRAWS):
        drawn = workloads.p2t_draw(j)
        if drawn is None:
            continue
        gens, mu = drawn
        t0 = time.perf_counter()
        cone = make_cone(gens)
        state = p2t_engine.run_p2t(cone)
        verifier.audit_trace(cone, state.trace, state.triangulation.all_created)
        seconds = time.perf_counter() - t0
        count = len(state.triangulation.cones)
        pool.append({"draw": j, "mu": mu, "cones": count, "seconds": round(seconds, 4)})
        print(j, mu, count, round(seconds, 4), file=sys.stderr)
    pins = _pins()
    pins["p2t-d5"] = {"pool": pool}
    _write_pins(pins)


def default_digests() -> None:
    """One pass of every workload at the default seed: pin its output-cone
    count and report digest."""
    import run

    pins = _pins()
    pins["defaults"] = {}
    mods = run.import_conetri()
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        tally = run.Tally()
        run.run_pass(run.Runner(mods, wl.kind), wl, tally)
        if tally.failed:
            raise SystemExit(f"{name}: {tally.problems}")
        pins["defaults"][name] = {"count": tally.outputs, "sha256": run.pass_digest(tally)}
        print(name, pins["defaults"][name], file=sys.stderr)
    _write_pins(pins)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("what", choices=("p2t-pool", "digests"))
    args = ap.parse_args()
    if args.what == "p2t-pool":
        p2t_pool()
    else:
        default_digests()


if __name__ == "__main__":
    main()
