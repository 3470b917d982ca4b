#!/usr/bin/env python3
"""Sweep ergodicity verdicts for map families across small primes.

For each prime p the survey runs the verdict pipeline on the unit
sphere S_1(0) for translations, unit scalings, reflections, and a few
maps that fail the isometry or constant-displacement assumptions, then
prints one row per (p, map).  A map whose verdict would need more
cells than the cell cap allows gets the `ResourceLimit` message as its
row.
"""

import argparse

from padicdyn import Sphere, ergodicity_verdict, parse_map
from padicdyn.errors import ResourceLimit


def maps_for(p: int) -> list:
    return [
        "x+%d" % p,
        "x+%d" % p ** 2,
        "%dx" % (p + 1),
        "%dx+%d" % (p + 1, p),
        "%d-x" % p,
        "1/x",
        "x^2",
    ]


def describe(v) -> str:
    bits = [v.verdict]
    if v.reason:
        bits.append(v.reason)
    if v.criterion is not None:
        bits.append("criterion=%s" % v.criterion)
    if v.rho_exp is not None:
        bits.append("rho=%d^%d" % (v.p, v.rho_exp))
    if v.cycles is not None:
        bits.append("split=%s@k=%d" % (list(v.cycles.lengths), v.level))
    elif v.verdict == "ErgodicUpToLevel":
        bits.append("levels<=%d" % v.level)
    if v.rho_equals_radius:
        bits.append("displacement=radius")
    return " ".join(bits)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--levels", type=int, default=8)
    ap.add_argument("--trials", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    width = max(len(t) for p in args.primes for t in maps_for(p))
    for p in args.primes:
        s = Sphere(p, 0, 0)
        print("== S_1(0) over Q_%d ==" % p)
        for text in maps_for(p):
            try:
                row = describe(ergodicity_verdict(s, parse_map(text), max_level=args.levels,
                                                  trials=args.trials, seed=args.seed))
            except ResourceLimit as err:
                row = "ResourceLimit: %s" % err
            print("  %-*s  %s" % (width, text, row))
        print()


if __name__ == "__main__":
    main()
