"""
Seeded random campaign across dimensions
========================================

Triangulates a batch of random cones per dimension and aggregates what the
certificates saw: pass rates, final tiling sizes, and how far the measured
dilations sit below the proved ceilings. Deterministic for a fixed seed.
"""

import argparse
import random
import statistics
import time

from conetri import certify, refine_to_unimodular, run_p2t
from conetri.cli import random_cone


def run_one(dim, bound, seed, mu_cap):
    rng = random.Random(seed)
    while True:
        base = random_cone(dim, bound, rng)
        if mu_cap is None or base.multiplicity <= mu_cap:
            break
    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    report = certify(base, final, state.trace)
    ok = all(report.certificates)
    num, den = report.max_dilation
    return base.multiplicity, len(final), num / den, report.slack_ratio, ok

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--count", type=int, default=20, help="cones per dimension")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--bound", type=int, default=7, help="entry range [-B, B]")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be at least 1")
    if args.bound < 1:
        ap.error("--bound must be at least 1")

    # Final tiling sizes grow roughly like a large multiple of the base
    # multiplicity, so high dimensions get a multiplicity cap to keep the
    # demo quick. Raise the caps if you have minutes to spare.
    caps = {2: None, 3: None, 4: 1500, 5: 300}

    for dim in (2, 3, 4, 5):
        t0 = time.time()
        rows = [
            run_one(dim, args.bound, args.seed * 1_000_003 + dim * 10_000 + i, caps[dim])
            for i in range(args.count)
        ]
        mus = [r[0] for r in rows]
        finals = [r[1] for r in rows]
        slacks = [r[3] for r in rows if r[3] != float("inf")]
        passed = sum(1 for r in rows if r[4])
        worst_slack = f"{min(slacks):.1f}x" if slacks else "n/a"
        print(
            f"d={dim}: {passed}/{len(rows)} certified in {time.time() - t0:.1f}s | "
            f"mu median {statistics.median(mus):.0f} max {max(mus)} | "
            f"final cones median {statistics.median(finals):.0f} max {max(finals)} | "
            f"worst slack {worst_slack}"
        )


if __name__ == "__main__":
    main()
