"""Embedded acceptance suite, runnable as `padicdyn selftest`.

Each criterion is a standalone function returning a CriterionResult so
the test suite and the CLI share one implementation.  Checks are exact:
group laws certified at the common window of both sides, measures
compared as fractions, permutations compared entry by entry against an
independent residue-ring oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .dynamics import (
    cycle_structure,
    derivative_norm,
    ergodicity_verdict,
    induced_cell_map,
    minimal_invariant_ball,
    orbit,
    verify_isometry,
)
from .geometry import (
    Sphere,
    canonical_ball,
    cell_count,
    clopen,
    digits_index,
    embed,
    index_digits,
    sphere_cells,
)
from .groups import BallGroup, SphereGroup, certified_equal, check_group_axioms, iso
from .mapdsl import parse_map
from .measure import haar_clopen, haar_sphere, invariance_check, normalized_measure

SEED = 20240801


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return "%s criterion %d (%s): %s [%.2fs]" % (
            word, self.number, self.title, self.detail, self.seconds)


def _result(number, title, start, passed, detail) -> CriterionResult:
    return CriterionResult(number, title, passed, detail, time.monotonic() - start)


def criterion_group_axioms(trials: int = 1000) -> CriterionResult:
    start = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        carriers = [BallGroup(p, 0, 0), BallGroup(p, -1, 2),
                    SphereGroup(p, 0, 0), SphereGroup(p, -1, 0)]
        for g in carriers:
            failed = [r for r in check_group_axioms(g, trials, seed=SEED) if not r.passed]
            if failed:
                law = min(failed, key=lambda r: r.trials).law
                return _result(1, "group axioms", start, False,
                               "%s fails on %s" % (law, g))
            checked += trials
    return _result(1, "group axioms", start, True,
                   "%d triples across 12 carriers, equality at the common window" % checked)


def criterion_isomorphisms(pairs: int = 500) -> CriterionResult:
    start = time.monotonic()
    configs = [(0, 0, -1, 0), (0, 1, -2, 5), (-1, 2, 0, 0)]
    checked = 0
    for p in (2, 3):
        for e1, a1, e2, a2 in configs:
            g1 = SphereGroup(p, e1, a1)
            g2 = SphereGroup(p, e2, a2)
            if not certified_equal(g2, iso(g1, g2, g1.identity()), g2.identity()):
                return _result(2, "sphere isomorphisms", start, False,
                               "identity not mapped to identity for %s -> %s" % (g1, g2))
            rng = Random(SEED)
            for _ in range(pairs):
                x, y = g1.sample(rng), g1.sample(rng)
                lhs = iso(g1, g2, g1.combine(x, y))
                rhs = g2.combine(iso(g1, g2, x), iso(g1, g2, y))
                if not certified_equal(g2, lhs, rhs):
                    return _result(2, "sphere isomorphisms", start, False,
                                   "homomorphism breaks at %s, %s" % (x, y))
                if not certified_equal(g1, iso(g2, g1, iso(g1, g2, x)), x):
                    return _result(2, "sphere isomorphisms", start, False,
                                   "round trip moves %s" % x)
                checked += 1
    return _result(2, "sphere isomorphisms", start, True,
                   "%d pairs across 6 configurations" % checked)


def criterion_haar(pairs: int = 1000) -> CriterionResult:
    start = time.monotonic()
    s3 = Sphere(3, 0, 0)
    half = normalized_measure(s3, clopen(s3, [canonical_ball(1, -1, p=3)]))
    if half != Fraction(1, 2):
        return _result(3, "haar measure", start, False,
                       "normalized measure of the unit third is %s" % half)
    for p in (2, 3, 5):
        s = Sphere(p, 0, 0)
        for k in range(1, 7):
            total = normalized_measure(s, clopen(s, sphere_cells(s, k)))
            if total != 1:
                return _result(3, "haar measure", start, False,
                               "level %d cells of p=%d sum to %s" % (k, p, total))
    carriers = [BallGroup(2, 0, 0), BallGroup(3, 0, 0),
                SphereGroup(3, 0, 0), SphereGroup(5, 0, 0)]
    done = 0
    per = pairs // len(carriers)
    for g in carriers:
        rng = Random(SEED)
        parent = g.carrier
        for _ in range(per):
            level = rng.randint(1, 3)
            if g.kind == "sphere":
                balls = sphere_cells(parent, level)
            else:
                balls = [canonical_ball(c, g.e - level, p=g.p)
                         for c in range(g.p ** level)]
            chosen = [b for b in balls if rng.random() < 0.5] or balls[:1]
            rep = invariance_check(g, g.sample(rng), clopen(parent, chosen))
            if not rep.preserved:
                return _result(3, "haar measure", start, False,
                               "translation moved measure: %s" % rep.note)
            done += 1
    return _result(3, "haar measure", start, True,
                   "partition sums exact, %d invariance pairs" % done)


def criterion_verdicts() -> CriterionResult:
    start = time.monotonic()
    for p in (3, 5, 7):
        v = ergodicity_verdict(Sphere(p, 0, 0), parse_map("x+%d" % p), max_level=4)
        if (v.verdict, v.reason) != ("NotErgodic", "MeasureCriterion") \
                or v.criterion != Fraction(1, p - 1):
            return _result(4, "ergodicity verdicts", start, False,
                           "x+%d over p=%d gave %s" % (p, p, v.as_dict()))
    s2 = Sphere(2, 0, 0)
    v = ergodicity_verdict(s2, parse_map("x+2"), max_level=12)
    if v.verdict != "ErgodicUpToLevel" or v.level != 12 or v.criterion != 1:
        return _result(4, "ergodicity verdicts", start, False,
                       "x+2 gave %s" % v.as_dict())
    for k in range(1, 13):
        cs = cycle_structure(induced_cell_map(s2, parse_map("x+2"), k), k)
        if cs.lengths != (2 ** (k - 1),):
            return _result(4, "ergodicity verdicts", start, False,
                           "x+2 level %d cycles %s" % (k, cs.lengths))
    v = ergodicity_verdict(s2, parse_map("3x"), max_level=6)
    if (v.verdict, v.reason, v.level) != ("NotErgodic", "CycleSplit", 3) \
            or v.cycles.lengths != (2, 2) or v.criterion != 1:
        return _result(4, "ergodicity verdicts", start, False,
                       "3x gave %s" % v.as_dict())
    v = ergodicity_verdict(s2, parse_map("x+4"), max_level=4)
    if (v.verdict, v.reason) != ("NotErgodic", "MeasureCriterion") \
            or v.criterion != Fraction(1, 2):
        return _result(4, "ergodicity verdicts", start, False,
                       "x+4 gave %s" % v.as_dict())
    return _result(4, "ergodicity verdicts", start, True,
                   "x+p (p=3,5,7), x+2 to level 12, 3x split {2,2}, x+4 at 1/2")


def criterion_nonconvergence(iters: int = 10 ** 4) -> CriterionResult:
    start = time.monotonic()
    rec = orbit(parse_map("x+2"), embed(1, 2), iters)
    bad = [e for e in rec.displacement_exps if e != -1]
    if bad or len(rec.displacement_exps) != iters or rec.period is not None:
        return _result(5, "non-convergent orbit", start, False,
                       "displacements drifted: %s" % bad[:3])
    return _result(5, "non-convergent orbit", start, True,
                   "%d iterates, every displacement exactly 2^-1" % iters)


def criterion_minimal_ball() -> CriterionResult:
    start = time.monotonic()
    s = Sphere(2, 0, 0)
    f = parse_map("x+4")
    ball = minimal_invariant_ball(s, f, -2, embed(1, 2))
    if ball != canonical_ball(1, -2, p=2):
        return _result(6, "minimal invariant ball", start, False,
                       "got %s" % ball)
    if induced_cell_map(s, f, 2) != list(range(cell_count(2, 2))):
        return _result(6, "minimal invariant ball", start, False,
                       "x+4 moves a level-2 cell")
    fixed = [j for j, i in enumerate(induced_cell_map(s, f, 3)) if i == j]
    if fixed:
        return _result(6, "minimal invariant ball", start, False,
                       "level-3 cell %d is fixed" % fixed[0])
    return _result(6, "minimal invariant ball", start, True,
                   "V[2^-2](1) fixed at level 2, no fixed level-3 cell")


ISOMETRY_SUITE = [
    (2, "x+2"), (2, "x+4"), (2, "3x"),
    (3, "x+3"), (3, "3-x"), (3, "1/x"), (3, "4x"),
    (5, "x+5"), (7, "x+7"),
]


def criterion_periodic_orbit(points: int = 20) -> CriterionResult:
    start = time.monotonic()
    rec = orbit(parse_map("3-x"), embed(1, 3), 10)
    vals = {str(x).split(":")[2][:3] for x in rec.points[:2]}
    if (rec.period, rec.offset) != (2, 0) or vals != {"1,0", "2,0"}:
        return _result(7, "periodic orbit", start, False,
                       "orbit of 1 under 3-x: period %s" % (rec.period,))
    for p, text in ISOMETRY_SUITE:
        g = SphereGroup(p, 0, 0)
        rng = Random(SEED)
        f = parse_map(text)
        for _ in range(points):
            x = g.sample(rng)
            a = derivative_norm(f, x, 6)
            if a != 0:
                return _result(7, "periodic orbit", start, False,
                               "|f'| = %d^%d for %s at %s" % (p, a, text, x))
    return _result(7, "periodic orbit", start, True,
                   "period 2 orbit {1,2}; |f'|=1 at %d points for %d isometries"
                   % (points, len(ISOMETRY_SUITE)))


def criterion_assumption_guards() -> CriterionResult:
    start = time.monotonic()
    s3 = Sphere(3, 0, 0)
    rep = verify_isometry(s3, parse_map("x^2"), trials=100)
    if rep.passed or rep.witness is None:
        return _result(8, "assumption guards", start, False,
                       "x^2 slipped through the isometry check")
    v = ergodicity_verdict(s3, parse_map("1/x"), max_level=3)
    if (v.verdict, v.reason) != ("AssumptionViolated", "ZeroSomewhere") \
            or not v.witness["x"].startswith("3:0:1,0"):
        return _result(8, "assumption guards", start, False,
                       "1/x gave %s" % v.as_dict())
    return _result(8, "assumption guards", start, True,
                   "x^2 refused with witness; 1/x flagged fixed point x=1")


def _residue_cell_map(p: int, k: int, num, den) -> list:
    """Brute-force induced map over Z/p^(k+2), no p-adic code involved.

    Raises:
        ValueError: p divides a coefficient's denominator.
    """
    mod = p ** (k + 2)

    def residue(c):
        if c.denominator % p == 0:
            raise ValueError("coefficient %s is not %d-integral" % (c, p))
        return c.numerator * pow(c.denominator, -1, mod)

    num, den = [residue(c) for c in num], [residue(c) for c in den]
    out = []
    for j in range(cell_count(p, k)):
        t = index_digits(p, k, j)
        x = sum(d * p ** i for i, d in enumerate(t))
        nv = sum(c * pow(x, i, mod) for i, c in enumerate(num)) % mod
        dv = sum(c * pow(x, i, mod) for i, c in enumerate(den)) % mod
        y = nv * pow(dv, -1, mod) % p ** k
        digits = tuple((y // p ** i) % p for i in range(k))
        out.append(digits_index(p, digits))
    return out


ORACLE_MAPS = {
    2: ["x+2", "3x", "x+4", "1/x", "7x", "5x+2", "x+2/3"],
    3: ["x+3", "4x", "3-x", "1/x", "2x", "x+6", "1/2*x"],
}


def criterion_oracle_equivalence(max_level: int = 8) -> CriterionResult:
    start = time.monotonic()
    compared = 0
    for p, texts in ORACLE_MAPS.items():
        s = Sphere(p, 0, 0)
        for text in texts:
            f = parse_map(text)
            for k in range(1, max_level + 1):
                got = induced_cell_map(s, f, k)
                want = _residue_cell_map(p, k, f.num, f.den)
                if got != want:
                    return _result(9, "residue oracle", start, False,
                                   "%s over p=%d disagrees at level %d" % (text, p, k))
                compared += len(got)
    return _result(9, "residue oracle", start, True,
                   "%d cell images match over p=2,3 up to level %d" % (compared, max_level))


CRITERIA = [
    criterion_group_axioms,
    criterion_isomorphisms,
    criterion_haar,
    criterion_verdicts,
    criterion_nonconvergence,
    criterion_minimal_ball,
    criterion_periodic_orbit,
    criterion_assumption_guards,
    criterion_oracle_equivalence,
]


def run_all(report) -> bool:
    """Run the criteria in order, handing each result to report as it finishes."""
    ok = True
    for fn in CRITERIA:
        res = fn()
        report(res)
        ok = ok and res.passed
    return ok
