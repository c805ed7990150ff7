"""
What the certificate report actually certifies
==============================================

Runs the full pipeline on one 3D cone and walks through every field of the
resulting report: what was checked, against which bound, and how much slack
the run left on the table.
"""

import argparse
import random

from conetri import certify, intermediate_mu_ceiling, refine_to_unimodular, run_p2t
from conetri.cli import random_cone


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=11, help="cone selection seed")
    args = ap.parse_args()

    base = random_cone(3, 6, random.Random(args.seed))
    print(f"base: {base.generators}, mu={base.multiplicity}, d={base.dimension}")

    state = run_p2t(base)
    final = refine_to_unimodular(state.triangulation.cones)
    report = certify(base, final, state.trace)
    print(f"final cones:        {len(final)}")

    # The verdicts, in report order.
    #  * Tiling validity: volume_ok is the exact identity
    #    sum over cones of mu / prod(dilations of generators) == mu(base);
    #    with containment_ok it rules out gaps and overlaps, and
    #    all_unimodular asks every final multiplicity to be 1.
    #  * Audit of the first phase's paper trail: each subdivision must lose
    #    potential (phi descent), label depth is capped by the base
    #    potential, intermediate multiplicities stay under an explicit
    #    ceiling (printed below), and every recorded subdivision vector
    #    obeys the per-label length budget.
    #  * final_bound_ok, the headline result: every generator of the final
    #    tiling is short, under the theorem ceiling.
    print()
    for name, ok in report.certificates._asdict().items():
        print(f"{name + ':':<20}{ok}")
    print(f"mu ceiling:         {intermediate_mu_ceiling(base.multiplicity):.1f}")

    # max_dilation is exact, a (num, den) pair of ints reduced by their gcd;
    # the ceilings are floats, and the theorem's is nudged one ulp up before
    # the comparison, which is made in integers. The float can
    # sit tens of ulps off the exact ceiling on either side, so a dilation
    # right at the ceiling may get either verdict. The simplified ceiling is
    # never below the theorem's.
    print()
    num, den = report.max_dilation
    print(f"max_dilation:       {num}/{den}")
    print(f"theorem ceiling:    {report.final_bound_thm:.4g}")
    # final_bounds has no simplified ceiling at mu = 1; the theorem's holds.
    cor = report.final_bound_cor
    if cor is None:
        cor = report.final_bound_thm
    print(f"simplified ceiling: {cor:.4g}")
    print(f"slack ratio:        {report.slack_ratio:.1f}x headroom")

if __name__ == "__main__":
    main()
