"""
What the certificate report actually certifies
==============================================

Runs the full pipeline on one 3D cone and walks through every field of the
resulting report: what was checked, against which bound, and how much slack
the run left on the table.
"""

import argparse
import random

from conetri import refine_to_unimodular, run_p2t
from conetri.cli import random_cone
from conetri.verifier import certify, intermediate_mu_ceiling


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=11, help="cone selection seed")
    args = ap.parse_args()

    base = random_cone(3, 6, random.Random(args.seed))
    print(f"base: {base.generators}, mu={base.multiplicity}, d={base.dimension}")

    state = run_p2t(base)
    tri = refine_to_unimodular(state.triangulation)
    report = certify(base, tri, state.trace, state.triangulation.all_created)

    # Tiling validity. Volume is the exact identity
    # sum over cones of mu / prod(dilations of generators) == mu(base);
    # together with containment it rules out gaps and overlaps.
    print()
    print(f"final cones:        {report.final_count}")
    print(f"volume_ok:          {report.volume_ok}")
    print(f"containment_ok:     {report.containment_ok}")
    print(f"all_unimodular:     {report.all_unimodular}")

    # Audit of the first phase's paper trail. Each subdivision must lose
    # potential (phi descent), label depth is capped by the base potential,
    # intermediate multiplicities stay under an explicit ceiling, and every
    # recorded subdivision vector obeys the per-label length budget.
    print()
    print(f"phi_descent_ok:     {report.phi_descent_ok}")
    print(f"label_depth_ok:     {report.label_depth_ok}")
    print(f"mu_bound_ok:        {report.mu_bound_ok}  "
          f"(ceiling {intermediate_mu_ceiling(base.multiplicity):.1f})")
    print(f"xi_length_ok:       {report.xi_length_ok}")

    # The headline result: every generator of the final tiling is short.
    # max_dilation is exact (a Fraction); the two ceilings are floats that
    # get rounded up before comparison so the check can never fail on
    # floating point error alone.
    print()
    print(f"max_dilation:       {report.max_dilation}")
    print(f"theorem ceiling:    {report.final_bound_thm:.4g}")
    # final_bounds has no simplified ceiling at mu = 1; the theorem's holds.
    cor = report.final_bound_cor
    if cor is None:
        cor = report.final_bound_thm
    print(f"simplified ceiling: {cor:.4g}")
    print(f"final_bound_ok:     {report.final_bound_ok}")
    print(f"slack ratio:        {report.slack_ratio:.1f}x headroom")


if __name__ == "__main__":
    main()
