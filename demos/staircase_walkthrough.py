"""
Triangulating a 2D cone step by step
====================================

The cone spanned by (1,0) and (1,n) has multiplicity n, and its unique
unimodular triangulation is the staircase of cones ((1,k),(1,k+1)). Small
enough to print every intermediate state, big enough to show both phases
doing real work.
"""

import argparse

from conetri import make_cone, refine_to_unimodular, run_p2t
from conetri.verifier import certify


def show(tag, cones):
    parts = ", ".join(
        f"{c.generators} mu={c.multiplicity}" for c in sorted(cones, key=lambda c: c.uid)
    )
    print(f"{tag}: {parts}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("-n", type=int, default=12, help="multiplicity of the base cone")
    n = ap.parse_args().n
    if n < 1:
        ap.error("-n must be at least 1")

    base = make_cone([(1, 0), (1, n)])
    print(f"base cone: {base.generators}, multiplicity {base.multiplicity}")
    print()

    # Phase one drives every multiplicity to a power of two. Each event
    # subdivides one cone at a lattice point x' chosen so the child
    # multiplicities lose an odd prime factor.
    state = run_p2t(base)
    print(f"phase 1: {len(state.trace)} subdivision events")
    for ev in state.trace:
        print(
            f"  split cone {ev.parent_id} (mu={ev.mu_parent}) at x'={ev.x_prime}"
            f" using p={ev.p}: children mu={list(ev.mu_children)}"
        )
    show("phase 1 result", state.triangulation.cones)
    print()

    # Phase two halves the remaining powers of two. Every subdivision point
    # is half the sum of some generators, so each split is an exact halving.
    # The halving points are the final generators phase 1 did not have.
    final = refine_to_unimodular(state.triangulation.cones)
    before = {g for c in state.triangulation.cones for g in c.generators}
    added = sorted({g for c in final for g in c.generators} - before)
    print(f"phase 2: {len(added)} halving points")
    for u in added:
        print(f"  subdivide at u={u}")
    show("final tiling", final)
    print()

    # The certificate re-checks the run: exact volume additivity,
    # containment, unimodularity, and the length bounds.
    report = certify(base, final, state.trace)
    ok = report.certificates
    print(f"certified: volume={ok.volume_ok} containment={ok.containment_ok}")
    num, den = report.max_dilation
    print(f"max dilation {num}/{den} vs bound {report.final_bound_thm:.1f}")
    expected = sorted(tuple(sorted(((1, k), (1, k + 1)))) for k in range(n))
    got = sorted(tuple(sorted(c.generators)) for c in final)
    print(f"matches the staircase: {got == expected}")


if __name__ == "__main__":
    main()
