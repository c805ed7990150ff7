"""
The length ceilings as functions of multiplicity
================================================

Prints the two final-generator ceilings and the intermediate multiplicity
ceiling over a grid of multiplicities. Two things worth seeing: the
potential-based ceiling oscillates with the factorization (composite
multiplicities with many small factors are cheap, primes are expensive),
while the simplified ceiling grows monotonically and dominates the other on
2-powers.
"""

import argparse

from conetri import final_bounds, intermediate_mu_ceiling


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--mu-max", type=int, default=32)
    args = ap.parse_args()
    if args.dim < 2:
        ap.error("--dim must be at least 2")
    # Every bound is computed before anything is printed, so a dimension
    # whose bounds overflow a float ends in the library's message alone.
    try:
        grid = [(mu, *final_bounds(mu, args.dim)) for mu in range(2, args.mu_max + 1)]
        powers = []
        l = 1
        while 2**l <= args.mu_max * 8:
            powers.append((l, *final_bounds(2**l, args.dim)))
            l += 1
    except OverflowError as err:
        ap.error(str(err))

    print(f"d = {args.dim}")
    print(f"{'mu':>5} {'theorem':>12} {'simplified':>12} {'mu ceiling':>12}")
    for mu, thm, cor in grid:
        print(f"{mu:>5} {thm:>12.4g} {cor:>12.4g} {intermediate_mu_ceiling(mu):>12.4g}")

    # The jagged theorem column flattens out on powers of two, where the
    # potential term vanishes and only the explicit product remains.
    print()
    print("powers of two only:")
    for l, thm, cor in powers:
        print(f"  mu=2^{l:<2} theorem {thm:>12.4g}   simplified {cor:>12.4g}")


if __name__ == "__main__":
    main()
