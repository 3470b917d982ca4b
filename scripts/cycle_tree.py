#!/usr/bin/env python3
"""Trace the cell permutation of one map level by level.

Prints, for each level k, the induced permutation's cycle lengths and
the centers of the first split if one occurs (a longer union shows its
first 8 centers and its cell count), plus the orbit of a chosen start
point on the sphere. A visual companion to the ergodicity
verdict: a map is ergodic up to level K exactly when every row shows a
single cycle. A level whose cell map cannot be built (its image leaves
the sphere, two cells collide, or it needs more cells than the cap)
gets the error as its row and ends the table; the verdict prints its
error the same way.
"""

import argparse
from fractions import Fraction

from padicdyn import (
    Sphere,
    cell_center,
    contains,
    cycle_structure,
    embed,
    ergodicity_verdict,
    induced_cell_map,
    orbit,
    parse_map,
)
from padicdyn.errors import PadicError

# centers listed per invariant union; a longer union also shows its cell count
SHOWN_CENTERS = 8


def failure(err: PadicError) -> str:
    return "%s: %s" % (type(err).__name__, err)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--map", default="3x")
    ap.add_argument("--sphere-exp", type=int, default=0)
    ap.add_argument("--sphere-center", type=Fraction, default=Fraction(0))
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--start", type=Fraction, default=None)
    ap.add_argument("--iters", type=int, default=12)
    args = ap.parse_args()

    s = Sphere(args.p, args.sphere_exp, args.sphere_center)
    f = parse_map(args.map)
    if args.start is not None and not contains(s, args.start):
        ap.error("start %s is not on %s" % (args.start, s))
    print("map %s on %s" % (f, s))

    for k in range(1, args.levels + 1):
        try:
            perm = induced_cell_map(s, f, k)
        except PadicError as err:
            print("level %2d: %s" % (k, failure(err)))
            break
        cs = cycle_structure(perm, k)
        line = "level %2d: %4d cells, cycle lengths %s" % (k, len(perm), list(cs.lengths))
        if len(cs.cycles) > 1:
            first = min(cs.cycles, key=len)
            centers = ", ".join(str(cell_center(s, k, j)) for j in first[:SHOWN_CENTERS])
            if len(first) > SHOWN_CENTERS:
                centers += ", ... (%d cells)" % len(first)
            line += "  first invariant union: centers %s" % centers
        print(line)

    try:
        print("verdict: %s" % ergodicity_verdict(s, f, max_level=args.levels).as_dict())
    except PadicError as err:
        print("verdict: %s" % failure(err))

    if args.start is not None:
        rec = orbit(f, embed(args.start, s.p, -s.e + 24), args.iters)
        print("orbit of %s:" % args.start)
        for i, x in enumerate(rec.points):
            print("  f^%d = %s" % (i, x))
        if rec.period is not None:
            print("  period %d from offset %d" % (rec.period, rec.offset))


if __name__ == "__main__":
    main()
