"""Independent oracle for the benchmark: exact answers from int and Fraction.

Nothing here imports padicdyn.  A point of the sphere S_{p^e}(c) is written
x = c + p^(-e) T with T a p-adic unit, so a rational map f = num/den becomes
a pair of integer polynomials in T.  Every question the benchmark asks is
answered exactly from those integers:

* the permutation f induces on level-k cells, by evaluating f at each exact
  cell center (selftest's residue oracle, generalised to c != 0, e != 0);
* the displacement |f(x) - x| over the sphere and the measure criterion
  p*rho/((p-1)*r), in closed form for affine maps and by refining residue
  classes until every valuation is fixed for other rational maps;
* whether f is an isometry of the sphere;
* ball and sphere group laws, `iso`, and Haar measure of cell unions.

Answers from padicdyn reach this module only as rendered literals
(`p:v:d0,d1,...`), JSON values and plain numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, isqrt, lcm


class OracleUndecided(Exception):
    """The input lies outside the families this oracle can decide exactly."""


class OracleNotPermutation(Exception):
    """f does not permute the level-k cells (an image leaves the sphere)."""


# ---------------------------------------------------------------- numbers

def vp(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no finite valuation")
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue(q, p: int, k: int) -> int:
    """q mod p^k for a p-integral rational q, as an integer in [0, p^k)."""
    q = Fraction(q)
    pk = p ** k
    return q.numerator * pow(q.denominator, -1, pk) % pk


def unit_residue(q, p: int, k: int) -> int:
    """The unit part q / p^v(q) modulo p^k."""
    return residue(Fraction(q) / Fraction(p) ** vp(q, p), p, k)


_FLAGGED = re.compile(r"<(\d+)-adic \u2261 0 mod \d+\^(-?\d+)>\Z")


def parse_literal(text: str):
    """`p:v:d0,d1,...` -> (p, v, digits); exact zero `p:inf:` -> (p, None, ()).

    A value known only to be 0 mod p^v (rendered `<p-adic ≡ 0 mod p^v>`)
    gives (p, v, None).
    """
    m = _FLAGGED.match(text)
    if m:
        return int(m.group(1)), int(m.group(2)), None
    p_txt, v_txt, d_txt = text.split(":")
    p = int(p_txt)
    if v_txt == "inf":
        return p, None, ()
    return p, int(v_txt), tuple(int(d) for d in d_txt.split(","))


def literal_value(text: str) -> Fraction:
    """The finite digit sum a literal shows: one representative of its class."""
    p, v, digits = parse_literal(text)
    if v is None or digits is None:
        return Fraction(0)
    return sum(d * p ** i for i, d in enumerate(digits)) * Fraction(p) ** v


def literal_holds(text: str, q, p: int) -> bool:
    """True when the class a literal names contains the exact rational q.

    Compares valuation and every shown digit, so a literal that claims a
    digit the true value does not have is caught.
    """
    lp, v, digits = parse_literal(text)
    q = Fraction(q)
    if lp != p:
        return False
    if v is None:
        return q == 0
    if digits is None:
        return q == 0 or vp(q, p) >= v
    if q == 0 or vp(q, p) != v:
        return False
    return unit_residue(q, p, len(digits)) == sum(d * p ** i for i, d in enumerate(digits))


# ------------------------------------------------------------ polynomials
# Ascending coefficient lists of Fractions (or ints).

def _trim(a: list) -> list:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def padd(a, b) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pscale(a, s) -> list:
    return _trim([c * s for c in a])


def pmul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def pcompose_linear(a, c0, c1) -> list:
    """a(c0 + c1 T)."""
    out = [Fraction(0)]
    for coeff in reversed(a):
        out = padd(pmul(out, [Fraction(c0), Fraction(c1)]), [Fraction(coeff)])
    return out


def peval(a, t):
    acc = 0
    for coeff in reversed(a):
        acc = acc * t + coeff
    return acc


def integer_form(a) -> tuple[list, Fraction]:
    """a = scale * A with A a primitive integer polynomial."""
    a = [Fraction(c) for c in _trim(a)]
    if all(c == 0 for c in a):
        return [0], Fraction(1)
    den = lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    return [x // g for x in ints], Fraction(g, den)


def rational_roots(a) -> list:
    """Rational roots of an integer polynomial of degree at most 2."""
    a = _trim(a)
    deg = len(a) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [Fraction(-a[0], a[1])]
    if deg == 2:
        disc = a[1] * a[1] - 4 * a[2] * a[0]
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return []
        r = isqrt(disc)
        return sorted({Fraction(-a[1] + r, 2 * a[2]), Fraction(-a[1] - r, 2 * a[2])})
    raise OracleUndecided("root finding above degree 2")


def _vp_int(n: int, p: int) -> int | None:
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _class_valuation(a, p: int, t0: int, k: int) -> int | None:
    """v(a(T)) when it is the same on the whole class T = t0 + p^k Z_p.

    Expands a(t0 + p^k z) = sum_i a_i(t0) p^(ik) z^i; the valuation is fixed
    when the constant term strictly dominates every other term.  None means
    the class must be split further.
    """
    deg = len(a) - 1
    taylor = [sum(comb(j, i) * a[j] * t0 ** (j - i) for j in range(i, deg + 1))
              for i in range(deg + 1)]
    v0 = _vp_int(taylor[0], p)
    if v0 is None:
        return None
    for i in range(1, deg + 1):
        vi = _vp_int(taylor[i], p)
        if vi is not None and vi + i * k <= v0:
            return None
    return v0


def _in_unit_class(r: Fraction, p: int, t0: int, k: int) -> bool:
    if r.denominator % p == 0 or r.numerator % p == 0:
        return False
    return residue(r, p, k) == t0 % p ** k


def _hensel_root(a, p: int, t0: int, k: int) -> bool:
    """True when a(T) certainly has a root in the class T = t0 + p^k Z_p.

    Hensel: v(a(t0)) > 2 v(a'(t0)) gives a root r with
    v(r - t0) >= v(a(t0)) - v(a'(t0)).
    """
    v0 = _vp_int(peval(a, t0), p)
    if v0 is None:
        return True
    v1 = _vp_int(peval([i * c for i, c in enumerate(a)][1:] or [0], t0), p)
    return v1 is not None and v0 > 2 * v1 and v0 - v1 >= k


def unit_profile(polys, p: int, max_depth: int = 48):
    """Valuations of integer polynomials over the p-adic units.

    Returns (values, rooted): values is the set of tuples (v(A_1(T)), ...)
    taken on the classes where every valuation is fixed, rooted the set of
    indices i for which A_i has a root among the units (found as a rational
    root or certified by Hensel's lemma).  Raises OracleUndecided when a
    class settles neither way within max_depth digits.
    """
    if not all(any(a) for a in polys):
        raise OracleUndecided("profile of the zero polynomial")
    roots = [[r for r in rational_roots(a) if r and vp(r, p) == 0] for a in polys]
    values: set = set()
    rooted: set = set()
    stack = [(t0, 1) for t0 in range(1, p)]
    while stack:
        t0, k = stack.pop()
        hit = {i for i, a in enumerate(polys)
               if any(_in_unit_class(r, p, t0, k) for r in roots[i]) or _hensel_root(a, p, t0, k)}
        if hit:
            rooted |= hit
            continue
        vals = tuple(_class_valuation(a, p, t0, k) for a in polys)
        if None not in vals:
            values.add(vals)
            continue
        if k >= max_depth:
            raise OracleUndecided("class %d mod %d^%d does not settle" % (t0, p, k))
        stack.extend((t0 + i * p ** k, k + 1) for i in range(p))
    return values, rooted


# ---------------------------------------------------------------- spheres

def cell_count(p: int, k: int) -> int:
    return (p - 1) * p ** (k - 1)


def cell_centers_t(p: int, k: int) -> list:
    """T-coordinates sum(t_i p^i) of the level-k cell centers, in cell order.

    Cell order is lexicographic in (t_0, ..., t_{k-1}), so the children of
    a level-(k-1) cell follow it in order of their new digit t_{k-1}.
    """
    out = list(range(1, p))
    for i in range(1, k):
        step = p ** i
        out = [t + d * step for t in out for d in range(p)]
    return out


def cycle_lengths(perm: list) -> tuple:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        n = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


class SphereMap:
    """f = num/den (ascending coefficients in x) on S_{p^e}(c), in T coordinates."""

    def __init__(self, p: int, e: int, c, num, den):
        self.p, self.e, self.c = p, e, Fraction(c)
        self.num = [Fraction(x) for x in num]
        self.den = [Fraction(x) for x in den]
        s = Fraction(p) ** (-e)
        n_t = pcompose_linear(self.num, self.c, s)
        d_t = pcompose_linear(self.den, self.c, s)
        # image coordinate u(T) = p^e (f(x) - c); f maps S into S iff v(u) = 0
        self.img_a, sa = integer_form(pscale(padd(n_t, pscale(d_t, -self.c)), 1 / s))
        self.img_b, sb = integer_form(d_t)
        self.img_scale = sa / sb
        # displacement f(x) - x = scale * A(T) / B(T)
        self.disp_a, sa = integer_form(padd(n_t, pscale(pmul([self.c, s], d_t), -1)))
        self.disp_b, sb = integer_form(d_t)
        self.disp_scale = sa / sb
        self.den_scale = sb

    @property
    def affine(self) -> bool:
        return len(_trim(self.den)) == 1 and len(_trim(self.num)) <= 2

    def __call__(self, x: Fraction) -> Fraction:
        d = peval(self.den, Fraction(x))
        if d == 0:
            raise ZeroDivisionError("pole of f")
        return peval(self.num, Fraction(x)) / d

    def point(self, t: int) -> Fraction:
        return self.c + Fraction(self.p) ** (-self.e) * t

    def maps_into_sphere(self) -> bool:
        if not any(self.img_a):
            return False
        values, rooted = unit_profile([self.img_a, self.img_b], self.p)
        v_scale = vp(self.img_scale, self.p)
        return not rooted and all(v_scale + va - vb == 0 for va, vb in values)

    def is_isometry(self) -> bool:
        """Exact for Moebius maps (affine ones included) and quadratic polynomials.

        f(x) - f(y) = (x - y) Q(x, y); f is an isometry of S when it maps S
        into S and |Q| = 1 on S x S.
        """
        p, e, c = self.p, self.e, self.c
        num, den = _trim(self.num), _trim(self.den)
        if not self.maps_into_sphere():
            return False
        if len(num) <= 2 and len(den) <= 2:
            # Q = det / (D(x) D(y)): |D| must be |det|^(1/2) all over S
            beta, alpha = (num + [Fraction(0)])[:2]
            delta, gamma = (den + [Fraction(0)])[:2]
            det = alpha * delta - beta * gamma
            if det == 0:
                return False
            values, rooted = unit_profile([self.img_b], p)
            v_scale = vp(self.den_scale, p)
            return not rooted and all(2 * (v_scale + vb) == vp(det, p) for (vb,) in values)
        if len(den) == 1 and len(num) == 3:
            # Q = a1 + a2 (x + y) = A + B (T + S), and T + S runs over Z_p
            # (over 2 Z_2 when p = 2) as T, S run over the units
            a1, a2 = num[1] / den[0], num[2] / den[0]
            big_a, big_b = a1 + 2 * a2 * c, a2 * Fraction(p) ** (-e)
            return big_a != 0 and vp(big_a, p) == 0 and 0 < vp(big_b, p) + (p == 2)
        raise OracleUndecided("isometry of a map of this degree")

    def displacement(self):
        """('constant', rho_exp) | ('nonconstant', has_fixed_point) | ('identity',).

        rho_exp is the exponent of |f(x) - x| = p^rho_exp.
        """
        if self.affine:
            return self._affine_displacement()
        if not any(self.disp_a):
            return ("identity",)
        values, rooted = unit_profile([self.disp_a, self.disp_b], self.p)
        exps = {-(vp(self.disp_scale, self.p) + va - vb) for va, vb in values}
        fixed = 0 in rooted
        if fixed or len(exps) != 1:
            return ("nonconstant", fixed)
        return ("constant", exps.pop())

    def _affine_displacement(self):
        # f(x) - x = A y + B with y = x - c, v(y) = -e, A = a - 1, B = (a-1)c + b;
        # the two terms tie in valuation exactly when the fixed point -B/A
        # lies on the sphere
        p = self.p
        b, a = (_trim(self.num) + [Fraction(0)])[:2]
        big_a, big_b = a - 1, (a - 1) * self.c + b
        if big_a == 0:
            return ("identity",) if b == 0 else ("constant", -vp(b, p))
        v_ay = vp(big_a, p) - self.e
        if big_b == 0 or vp(big_b, p) > v_ay:
            return ("constant", -v_ay)
        if vp(big_b, p) < v_ay:
            return ("constant", -vp(big_b, p))
        return ("nonconstant", True)

    def cell_perm(self, k: int) -> list:
        """Images of the level-k cell centers, as cell indices."""
        p, pk = self.p, self.p ** k
        v_scale = vp(self.img_scale, p)
        u_scale = unit_residue(self.img_scale, p, k)
        centers = cell_centers_t(p, k)
        index_of = {t: j for j, t in enumerate(centers)}
        out = []
        for j, t in enumerate(centers):
            a = peval(self.img_a, t)
            b = peval(self.img_b, t)
            va, vb = _vp_int(a, p), _vp_int(b, p)
            if va is None or vb is None or v_scale + va - vb != 0:
                raise OracleNotPermutation("cell %d at level %d maps off the sphere" % (j, k))
            out.append(index_of[u_scale * (a // p ** va) * pow(b // p ** vb, -1, pk) % pk])
        if len(set(out)) != len(out):
            raise OracleNotPermutation("level %d images collide" % k)
        return out

    def fixed_points(self) -> list:
        """Rational fixed points of f on the sphere (T-unit roots of f(x) - x)."""
        roots = [r for r in rational_roots(self.disp_a) if r and vp(r, self.p) == 0]
        return [self.point(r) for r in roots if peval(self.disp_b, r) != 0]


# ---------------------------------------------------------------- verdicts

def expected_verdict(m: SphereMap, max_level: int) -> list:
    """Every verdict dict `ergodicity_verdict(...).as_dict()` may truthfully give.

    Each entry mirrors as_dict() with "witness" replaced by a flag saying
    whether a witness must be present; a CycleSplit entry also carries the
    measure of its invariant set, the shortest cycle's #cells / cell_count.
    When f has a fixed point and other points move, both "the displacement
    is not constant" and "it vanishes somewhere" are true, so both pass.
    """
    p, e = m.p, m.e
    if not m.is_isometry():
        return [{"verdict": "NotIsometry", "reason": "IsometryFailed", "witness": True}]
    disp = m.displacement()
    zero = {"verdict": "AssumptionViolated", "reason": "ZeroSomewhere", "witness": True}
    if disp[0] == "identity":
        return [zero]
    if disp[0] == "nonconstant":
        moving = {"verdict": "AssumptionViolated", "reason": "NonConstant", "witness": True}
        return [moving, zero] if disp[1] else [moving]
    rho_exp = disp[1]
    crit = Fraction(p) ** (1 + rho_exp - e) / (p - 1)
    base = {"verdict": "NotErgodic", "rho": "%d^%d" % (p, rho_exp),
            "criterion_value": str(crit), "witness": False}
    if crit != 1:
        return [dict(base, reason="MeasureCriterion")]
    for k in range(1, max_level + 1):
        lengths = cycle_lengths(m.cell_perm(k))
        if len(lengths) >= 2:
            return [dict(base, reason="CycleSplit", level=k, cycles=list(lengths),
                         invariant_measure=str(Fraction(lengths[0], cell_count(p, k))))]
    return [{"verdict": "ErgodicUpToLevel", "rho": base["rho"], "criterion_value": "1",
             "level": max_level, "witness": False}]


def verdict_matches(got: dict, accepted: list, invariant_measure=None) -> bool:
    """Compare an as_dict() verdict (and optionally its invariant measure)."""
    got = dict(got)
    has_witness = got.pop("witness", None) is not None
    for want in accepted:
        want = dict(want)
        need_witness = want.pop("witness")
        measure = want.pop("invariant_measure", None)
        if got == want and has_witness == need_witness:
            return invariant_measure is None or measure is None or str(invariant_measure) == measure
    return False


# ------------------------------------------------------------------ orbits

def expected_orbit(m: SphereMap, x0, iters: int) -> dict:
    """Exact iterates, displacement exponents and first exact repeat."""
    p = m.p
    points = [Fraction(x0)]
    seen = {points[0]: 0}
    out: dict = {}
    for i in range(1, iters + 1):
        x = m(points[-1])
        points.append(x)
        if x in seen:
            out = {"period": i - seen[x], "offset": seen[x]}
            break
        seen[x] = i
    disps = ["-" if b == a else "%d^%d" % (p, -vp(b - a, p))
             for a, b in zip(points, points[1:])]
    return dict(out, points=points, displacements=disps)


def orbit_matches(got: dict, want: dict, p: int) -> bool:
    """Every rendered iterate must hold the exact iterate, digit by digit."""
    if got.get("period") != want.get("period") or got.get("offset") != want.get("offset"):
        return False
    if got["displacements"] != want["displacements"] or len(got["points"]) != len(want["points"]):
        return False
    return all(literal_holds(t, q, p) for t, q in zip(got["points"], want["points"]))


# ---------------------------------------------------- groups and measure

def ball_combine(a, x, y) -> Fraction:
    return Fraction(x) + Fraction(y) - Fraction(a)


def ball_inverse(a, x) -> Fraction:
    return 2 * Fraction(a) - Fraction(x)


def sphere_combine(p: int, e: int, a, x, y) -> Fraction:
    """r(x - a)(y - a) + a with r = p^e."""
    a = Fraction(a)
    return Fraction(p) ** e * (Fraction(x) - a) * (Fraction(y) - a) + a


def sphere_inverse(p: int, e: int, a, x) -> Fraction:
    a = Fraction(a)
    return 1 / (Fraction(p) ** (2 * e) * (Fraction(x) - a)) + a


def iso_value(p: int, e1: int, a1, e2: int, a2, x) -> Fraction:
    """r1 (x - a1) / r2 + a2."""
    return Fraction(p) ** (e1 - e2) * (Fraction(x) - Fraction(a1)) + Fraction(a2)


def in_carrier(kind: str, p: int, e: int, a, x) -> bool:
    d = Fraction(x) - Fraction(a)
    if kind == "ball":
        return d == 0 or vp(d, p) >= -e
    return d != 0 and vp(d, p) == -e


def cells_haar(p: int, e: int, k: int, n: int) -> Fraction:
    """Haar measure of n distinct level-k cells of a sphere of radius p^e."""
    return n * Fraction(p) ** (e - k)


def cells_normalized(p: int, k: int, n: int) -> Fraction:
    """Normalized measure of n level-k cells: #cells / cell_count."""
    return Fraction(n, cell_count(p, k))
