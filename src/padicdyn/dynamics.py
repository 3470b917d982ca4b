"""Dynamics of rational maps restricted to a sphere.

An isometry of a sphere that displaces every point by the same distance
p^-rho preserves each ball of radius p^rho around an orbit point, so it
descends to a permutation of the level-k cell partition for every
k <= e - (-rho).  Ergodicity with respect to the normalized measure is
decided level by level: a single cycle at level k means every invariant
clopen set built from level-k cells is trivial, while a split into two
or more cycles materializes an invariant set of intermediate measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest
from random import Random

from .errors import (
    DivisionByZero,
    InputError,
    InsufficientPrecision,
    InvarianceFailed,
    NotInCarrier,
    NotPermutation,
    PrecisionError,
    PrecisionExhausted,
    ResourceLimit,
)
from .geometry import (
    DEFAULT_CELL_CAP,
    Ball,
    Sphere,
    canonical_ball,
    cell_count,
    cell_residues,
    clopen,
    contains,
    embed,
    locate_cell,
    sphere_cells,
    unit_residue,
)
from .groups import SphereGroup, draw
from .mapdsl import RationalMap, eval_map
from .measure import normalized_measure
from .padic import DEFAULT_PRECISION, PAdic, rational_valuation


@dataclass(frozen=True)
class IsometryCheck:
    passed: bool
    witness: dict | None
    trials: int
    images: tuple = ()  # exact (x, f(x)) of each evaluated trial, in sampling order


@dataclass(frozen=True)
class RhoResult:
    """Displacement profile of a self-map of a sphere.

    kind is "Constant" when every sampled point moves by exactly
    p^rho_exp, "NonConstant" when two sampled displacements differ, and
    "ZeroSomewhere" when a fixed point was found.  profile keeps the
    sampled (point, exponent) pairs for inspection.
    """

    kind: str
    rho_exp: int | None
    witness: dict | None
    profile: tuple


@dataclass(frozen=True)
class OrbitRecord:
    start: PAdic
    points: tuple
    displacement_exps: tuple
    period: int | None
    offset: int | None


@dataclass(frozen=True)
class CycleStructure:
    """Cycle decomposition of the permutation induced on level-k cells.

    cycles lists each cycle as a tuple of cell indices starting at its
    minimal element; lengths is the sorted multiset of cycle lengths.
    """

    level: int
    lengths: tuple
    cycles: tuple


@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str
    p: int
    reason: str | None = None
    rho_exp: int | None = None
    criterion: Fraction | None = None
    level: int | None = None
    cycles: CycleStructure | None = None
    witness: dict | None = None
    rho_equals_radius: bool = False
    invariant_measure: Fraction | None = None

    def as_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.rho_exp is not None:
            out["rho"] = "%d^%d" % (self.p, self.rho_exp)
        if self.criterion is not None:
            out["criterion_value"] = str(self.criterion)
        if self.level is not None:
            out["level"] = self.level
        if self.cycles is not None:
            out["cycles"] = list(self.cycles.lengths)
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _witness(s: Sphere, depth: int, x: Fraction) -> str:
    """An exact point rendered with depth digits past the sphere radius."""
    return embed(x, s.p, -s.e + depth).render()


def _coverage(s: Sphere, cap: int = 64) -> list:
    """Cell centers of every level whose cell count stays under cap.

    Deterministic probes that hit each coarse cell before random
    sampling takes over.
    """
    levels = [k for k in range(1, 5) if cell_count(s.p, k) <= cap]
    step = Fraction(s.p) ** (-s.e)
    return [s.center + step * t for k in levels for t in cell_residues(s.p, k)]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise InputError("trials must be at least 1, got %d" % trials)


def _survey(s: Sphere, trials: int, seed: int, depth: int):
    """The sampled (x, y) pairs, exact rationals: x runs through the
    coverage pool, then Haar samples of depth digits; y is a Haar sample.
    Both draw from one Random(seed).
    """
    _check_trials(trials)
    g = SphereGroup(s.p, s.e, s.center)
    rng = Random(seed)
    pool = _coverage(s)
    for t in range(trials):
        x = pool[t] if t < len(pool) else draw(g, rng, depth)
        yield x, draw(g, rng, depth)


def verify_isometry(s: Sphere, f: RationalMap, trials: int = 200, seed: int = 0,
                    depth: int = DEFAULT_PRECISION) -> IsometryCheck:
    """Sampled check that f maps the sphere to itself preserving distances.

    The sampled points are exact rationals and f is evaluated on them
    exactly, so membership and every distance are exact.  depth sets the
    digits of each Haar sample and the width at which witnesses render.
    Evaluation failures (division by zero on the carrier) and distance
    distortions are returned as witnesses, not raised.
    """
    images = []

    def failed(note: str) -> IsometryCheck:
        return IsometryCheck(False, {"x": _witness(s, depth, x), "y": _witness(s, depth, y),
                                     "note": note}, trials, tuple(images))

    for x, y in _survey(s, trials, seed, depth):
        try:
            fx = eval_map(f, x)
            fy = eval_map(f, y)
        except DivisionByZero as err:
            return failed("evaluation failed: %s" % err)
        if not contains(s, fx):
            return failed("image %s leaves the sphere" % _witness(s, depth, fx))
        images.append((x, fx))
        if x == y:
            continue
        d_in = rational_valuation(x - y, s.p)
        if fx == fy:  # the note keeps its wording so that CLI witnesses do not change
            return failed("distance p^%d contracted below window" % -d_in)
        d_out = rational_valuation(fx - fy, s.p)
        if d_out != d_in:
            return failed("distance p^%d mapped to p^%d" % (-d_in, -d_out))
    return IsometryCheck(True, None, trials, tuple(images))


def _displacements(s: Sphere, images, depth: int) -> RhoResult:
    """Displacement survey over exact (x, f(x)) pairs, read in order.

    The profile keeps exact (x, exponent) pairs; compute_rho renders them.
    """
    profile = []
    const_exp = None
    first = None
    for x, fx in images:
        if fx == x:
            return RhoResult("ZeroSomewhere", None, {"x": _witness(s, depth, x)},
                             tuple(profile))
        exp = -rational_valuation(fx - x, s.p)
        profile.append((x, exp))
        if const_exp is None:
            const_exp = exp
            first = x
        elif exp != const_exp:
            return RhoResult("NonConstant", None, {
                "x": _witness(s, depth, first), "y": _witness(s, depth, x),
                "note": "displacements p^%d and p^%d" % (const_exp, exp),
            }, tuple(profile))
    return RhoResult("Constant", const_exp, None, tuple(profile))


def _x_images(s: Sphere, f: RationalMap, trials: int, seed: int, depth: int):
    """Lazy exact (x, f(x)) over _survey's x stream; the unused y draws
    still advance its Random, so the x sequence is verify_isometry's."""
    return ((x, eval_map(f, x)) for x, _ in _survey(s, trials, seed, depth))


def compute_rho(s: Sphere, f: RationalMap, trials: int = 200, seed: int = 0,
                depth: int = DEFAULT_PRECISION) -> RhoResult:
    """Displacement exponent survey: exact |f(x) - x| over verify_isometry's x stream."""
    rho = _displacements(s, _x_images(s, f, trials, seed, depth), depth)
    return replace(rho, profile=tuple((_witness(s, depth, x), exp) for x, exp in rho.profile))


def derivative_norm(f: RationalMap, x: PAdic, h_exp: int) -> int:
    """Exponent a with |f(x + p^h) - f(x)| / |p^h| = p^a.

    h_exp is h; the increment must stay inside the window of x.
    """
    if x.known_mod is None or h_exp >= x.known_mod:
        raise InsufficientPrecision("increment p^%d is below the window of x" % h_exp)
    step = PAdic(x.p, h_exp, 1, x.known_mod - h_exp)
    df = eval_map(f, x + step) - eval_map(f, x)
    if df.is_zero or df.is_flagged:
        raise PrecisionExhausted("difference quotient vanishes through the window")
    return h_exp - df.v


def orbit(f: RationalMap, x0: PAdic, n: int) -> OrbitRecord:
    """First n iterates of f from x0, with period detection in the window.

    displacement_exps[i] is the exponent a with
    |points[i+1] - points[i]| = p^a, or None when the difference is
    flagged zero.  A revisited residue class is compared with the stored
    point in the working window, and iteration stops at the first point
    that agrees with an earlier one there, which sets period/offset.  A
    repeat inside the window is not a certified period: x + 2^40 from 1
    reports period 1.
    """
    if n < 0:
        raise InputError("number of iterates must be at least 0, got %d" % n)
    points = [x0]
    exps: list = []
    period = offset = None
    key_depth = min(x0.n, 24) if x0.n else 1

    def key(x: PAdic):
        if x.v is None or x.n == 0:
            return ("z", x.v)
        return (x.v, x.unit % x.p ** min(x.n, key_depth))

    seen = {key(x0): 0}
    x = x0
    for i in range(1, n + 1):
        try:
            x = eval_map(f, x)
        except PrecisionError as err:
            raise PrecisionExhausted("iterate %d: %s" % (i, err)) from err
        d = x - points[-1]
        exps.append(None if (d.is_zero or d.is_flagged) else -d.v)
        points.append(x)
        k = key(x)
        if k in seen:
            j = seen[k]
            back = x - points[j]
            if back.is_zero or back.is_flagged:
                period, offset = i - j, j
                break
        else:
            seen[k] = i
    return OrbitRecord(x0, tuple(points), tuple(exps), period, offset)


def _shift_poly(coeffs: list, c: int, h: int) -> list:
    """Ascending coefficients in t of P(c + h t), all integers, P given ascending."""
    return [h ** j * sum(a * math.comb(i, j) * c ** (i - j) for i, a in enumerate(coeffs[j:], j))
            for j in range(len(coeffs))]


def _sphere_coordinates(s: Sphere, f: RationalMap) -> tuple:
    """Integer polynomials A, B with A(t)/B(t) = p^e (f(c + p^-e t) - c),
    their common content divided out, highest degree first for Horner.

    With c = u/w and p^-e = P/Q, x = (uQ + wP t)/(wQ); f = N/D scaled by
    the lcm of its coefficient denominators and by (wQ)^deg reads N^/D^
    with integer N^, D^ in t, so A = Q (w N^ - u D^) and B = P w D^.  A
    cell center is c + p^-e t for its digit sum t, and its image lies on
    the sphere exactly when A(t)/B(t) is a p-adic unit.
    """
    u, w = s.center.numerator, s.center.denominator
    P, Q = (s.p ** -s.e, 1) if s.e <= 0 else (1, s.p ** s.e)
    deg = max(len(f.num), len(f.den)) - 1
    lcm = math.lcm(*(a.denominator for a in f.num + f.den))
    num, den = (_shift_poly([a.numerator * (lcm // a.denominator) * (w * Q) ** (deg - i)
                             for i, a in enumerate(coeffs)], u * Q, w * P)
                for coeffs in (f.num, f.den))
    top = [Q * (w * n - u * d) for n, d in zip_longest(num, den, fillvalue=0)]
    bottom = [P * w * d for d in den]
    content = math.gcd(*top, *bottom)
    return [q // content for q in reversed(top)], [q // content for q in reversed(bottom)]


# Deepest residue class t0 + p^j Z_p the displacement certificate reads
# before it leaves the decision to sampling.
_DESCENT_DEPTH = DEFAULT_PRECISION


def _horner(coeffs: list, t: int) -> int:
    out = 0
    for q in coeffs:
        out = out * t + q
    return out


def _derivative(coeffs: list) -> list:
    """P' for P given highest degree first, in the same order."""
    return [q * i for i, q in zip(range(len(coeffs) - 1, 0, -1), coeffs)]


def certify_isometry(s: Sphere, f: RationalMap) -> bool | None:
    """Exact decision whether f is an isometry of s, for maps with good reduction.

    Good reduction: B of _sphere_coordinates is a unit at every unit
    residue t mod p, so f has no pole on s.  Then g(t) = A(t)/B(t)
    is an isometry of the units exactly when at every unit residue t mod
    p: A(t) is a unit, t -> A(t)/B(t) is a bijection, and A'B - AB' is a
    unit.  That is Hensel's lemma: g(x) - g(y) = (x - y) Q with
    Q = g'(y) mod (x - y).  Returns None without good reduction, where
    the sampled verify_isometry is the check.
    """
    p, (top, bottom) = s.p, _sphere_coordinates(s, f)
    if any(_horner(bottom, t) % p == 0 for t in range(1, p)):
        return None
    d_top, d_bottom = _derivative(top), _derivative(bottom)
    images = set()
    for t in range(1, p):
        a, b = _horner(top, t), _horner(bottom, t)
        if a % p == 0 or (_horner(d_top, t) * b - a * _horner(d_bottom, t)) % p == 0:
            return False
        images.add(unit_residue(a, b, p))
    return len(images) == p - 1


def _unit_valuation(h: list, p: int) -> int | None:
    """The v with v_p(h(t)) = v at every unit t, or None; h is ascending.

    Descends residue classes t0 + p^j Z_p.  A class is settled when the
    constant term of h(t0 + p^j u) has strictly the lowest valuation,
    which is then v_p(h) on the whole class.  None when two settled
    classes differ, at an exact unit root (a fixed point), and below
    _DESCENT_DEPTH.
    """
    value = None
    classes = [(t, 1) for t in range(1, p)]
    while classes:
        t0, j = classes.pop()
        shifted = _shift_poly(h, t0, p ** j)
        if shifted[0] == 0 or j > _DESCENT_DEPTH:
            return None
        v = rational_valuation(shifted[0], p)
        if any(q % p ** (v + 1) for q in shifted[1:]):
            classes.extend((t0 + d * p ** j, j + 1) for d in range(p))
        elif value is None:
            value = v
        elif v != value:
            return None
    return value


def _certified_rho(s: Sphere, f: RationalMap) -> int | None:
    """The rho with |f(x) - x| = p^rho at every x of s, decided exactly for
    a map with good reduction; None when the displacement is not shown
    constant that way.

    |f(x) - x| = p^e |h(t)| with h = A - tB, since B(t) is a unit.
    """
    top, bottom = _sphere_coordinates(s, f)
    h = [a - b for a, b in zip_longest(top[::-1], [0, *bottom[::-1]], fillvalue=0)]
    v = _unit_valuation(h, s.p)
    return None if v is None else s.e - v


def _cell_images(s: Sphere, f: RationalMap, k: int) -> list:
    """Image cell of each level-k cell center, in cell order, in integers.

    For the center's digit sum t the image is the unit A(t)/B(t) of
    _sphere_coordinates, and its cell is that unit's residue modulo p^k.
    A function of its own so that the p^k-entry table is freed before
    the caller's collision pass, which keeps the peak memory at that of
    the images and the pass.
    """
    p, m = s.p, s.p ** k
    top, bottom = _sphere_coordinates(s, f)
    residues = cell_residues(p, k)
    index = [0] * m
    for j, t in enumerate(residues):
        index[t] = j
    images = []
    for j, t in enumerate(residues):
        a = b = 0
        for q in top:
            a = a * t + q
        for q in bottom:
            b = b * t + q
        if b == 0:
            raise DivisionByZero("inverse of a value not certified nonzero")
        while a and a % p == 0 and b % p == 0:
            a //= p
            b //= p
        if a % p == 0 or b % p == 0:
            raise NotPermutation(
                "image of cell %d at level %d leaves the sphere" % (j, k))
        images.append(index[unit_residue(a, b, m)])
    return images


def induced_cell_map(s: Sphere, f: RationalMap, k: int, guard: int = 8,
                     cap: int = DEFAULT_CELL_CAP) -> list:
    """Permutation that f induces on the level-k cells of s.

    images[j] is the index of the cell containing the image of cell j's
    center, computed exactly in integers: in sphere coordinates
    x = c + p^-e t the image is A(t)/B(t) for integer polynomials A and
    B, and for the center's digit sum t the image cell is the residue of
    that unit modulo p^k.  Raises DivisionByZero where f has a pole at a
    center, and NotPermutation when an image leaves the sphere or two
    cells collide, which refutes the isometry assumption; every escape
    and pole is reported, in cell order, before any collision.  guard is
    accepted and unused.
    """
    if k < 1:
        raise InputError("cell level must be >= 1")
    count = cell_count(s.p, k)
    if count > cap:
        raise ResourceLimit("level %d needs %d cells, cap is %d" % (k, count, cap))
    images = _cell_images(s, f, k)
    hit: dict = {}
    for j, im in enumerate(images):
        if im in hit:
            raise NotPermutation(
                "cells %d and %d at level %d share image cell %d"
                % (hit[im], j, k, im))
        hit[im] = j
    return images


def cycle_structure(perm: list, level: int) -> CycleStructure:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    lengths = tuple(sorted(len(c) for c in cycles))
    return CycleStructure(level, lengths, tuple(cycles))


def minimal_invariant_ball(s: Sphere, f: RationalMap, rho_exp: int, x0: PAdic) -> Ball:
    """Smallest ball around x0 that a displacement-p^rho isometry preserves.

    The radius is exactly the displacement; invariance of the ball and
    of its cell in the quotient is verified, not assumed.
    """
    if not contains(s, x0):
        raise NotInCarrier("base point %s is not on the sphere" % x0)
    ball = canonical_ball(x0, rho_exp)
    fx0 = eval_map(f, x0)
    if not contains(ball, fx0):
        raise InvarianceFailed(
            "f moves %s out of %s" % (x0, ball))
    k = s.e - rho_exp
    if k >= 1:
        j = locate_cell(s, k, x0).j
        perm = induced_cell_map(s, f, k)
        if perm[j] != j:
            raise InvarianceFailed(
                "cell %d at level %d is not fixed" % (j, k))
    return ball


def _cycle_invariant_measure(s: Sphere, cs: CycleStructure, perm: list) -> Fraction:
    """Measure of the invariant clopen union over the shortest cycle.

    Materializes the union, re-checks that perm maps it onto itself,
    and returns its normalized measure.
    """
    cyc = min(cs.cycles, key=len)
    if set(perm[j] for j in cyc) != set(cyc):
        raise InvarianceFailed("cycle %s is not permutation-invariant" % (cyc,))
    balls = sphere_cells(s, cs.level)
    region = clopen(s, [balls[j] for j in cyc])
    mu = normalized_measure(s, region)
    if not 0 < mu < 1:
        raise InvarianceFailed("invariant set has trivial measure %s" % mu)
    return mu


def ergodicity_verdict(s: Sphere, f: RationalMap, max_level: int = 8,
                       trials: int = 200, seed: int = 0) -> ErgodicityVerdict:
    """Decide ergodicity of f on s up to the level-max_level partition.

    Pipeline: isometry and constant displacement, then the exact measure
    criterion, then the cycle structure of the induced permutation at
    each level.  Stages 1-2 are certified exactly when f has good
    reduction on s (certify_isometry) and the descent fixes the
    displacement.  A certified isometry whose displacement the descent
    leaves open evaluates f on the sampled x stream only up to the
    displacement witness (a fixed point or a second displacement).  A
    map without good reduction, or a refuted isometry, runs the sampled
    verify_isometry, and the displacement survey reads its values.  Every
    witness comes from that sampling, which trials and seed steer.  Every
    stage works on exact rationals.
    """
    if max_level < 1:
        raise InputError("max_level must be at least 1")
    top = cell_count(s.p, max_level)
    if top > DEFAULT_CELL_CAP:
        raise ResourceLimit(
            "level %d needs %d cells, cap is %d" % (max_level, top, DEFAULT_CELL_CAP))
    _check_trials(trials)
    certified = certify_isometry(s, f)
    rho_exp = _certified_rho(s, f) if certified else None
    if rho_exp is None:
        if certified:  # no pole on s: verify_isometry would pass every trial
            images = _x_images(s, f, trials, seed, DEFAULT_PRECISION)
        else:
            iso = verify_isometry(s, f, trials=trials, seed=seed)
            if not iso.passed:
                return ErgodicityVerdict("NotIsometry", s.p, reason="IsometryFailed",
                                         witness=iso.witness)
            images = iso.images
        rho = _displacements(s, images, DEFAULT_PRECISION)
        if rho.kind != "Constant":
            return ErgodicityVerdict("AssumptionViolated", s.p, reason=rho.kind,
                                     witness=rho.witness)
        rho_exp = rho.rho_exp
    flat = rho_exp == s.e
    criterion = Fraction(s.p) ** (1 + rho_exp - s.e) / (s.p - 1)
    if criterion != 1:
        return ErgodicityVerdict("NotErgodic", s.p, reason="MeasureCriterion",
                                 rho_exp=rho_exp, criterion=criterion,
                                 rho_equals_radius=flat)
    for k in range(1, max_level + 1):
        perm = induced_cell_map(s, f, k)
        cs = cycle_structure(perm, k)
        if len(cs.cycles) >= 2:
            mu = _cycle_invariant_measure(s, cs, perm)
            return ErgodicityVerdict("NotErgodic", s.p, reason="CycleSplit",
                                     rho_exp=rho_exp, criterion=criterion,
                                     level=k, cycles=cs, rho_equals_radius=flat,
                                     invariant_measure=mu)
    return ErgodicityVerdict("ErgodicUpToLevel", s.p, rho_exp=rho_exp,
                             criterion=criterion, level=max_level,
                             rho_equals_radius=flat)
