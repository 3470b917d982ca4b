"""Balls and spheres in Q_p as exact clopen sets.

V_{p^e}(c) = c + p^{-e} Z_p, so a ball is the residue class of its
center modulo p^{-e}.  The canonical center is the finite digit sum
below position -e: an exact rational.  Ball equality is therefore exact
rational equality of canonical forms.  Sphere centers are kept as
given (the group structure on a sphere depends on the chosen center).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InputError,
    InsufficientPrecision,
    NotInCarrier,
    NotOnSphere,
    OverlapDetected,
    ResourceLimit,
)
from .padic import (
    DEFAULT_PRECISION,
    PAdic,
    check_prime,
    from_rational,
    rational_truncate,
    rational_valuation,
)

DEFAULT_CELL_CAP = 10 ** 6


def embed(q, p: int, end: int | None = None) -> PAdic:
    """Embed an exact rational with the knowledge window reaching `end`."""
    q = Fraction(q)
    if q == 0:
        return PAdic.zero(p)
    if end is None:
        return from_rational(q, p, DEFAULT_PRECISION)
    v = rational_valuation(q, p)
    return from_rational(q, p, max(1, end - v))


@dataclass(frozen=True, slots=True)
class Ball:
    """V_{p^e}(center) with canonical center (digit support below -e)."""

    p: int
    e: int
    center: Fraction

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "center", Fraction(self.center))
        if self.center != rational_truncate(self.center, self.p, -self.e):
            raise ValueError("center not canonical; build with canonical_ball")

    @property
    def radius(self) -> Fraction:
        return Fraction(self.p) ** self.e

    def __str__(self):
        return f"V[{self.p}^{self.e}]({self.center})"


@dataclass(frozen=True, slots=True)
class Sphere:
    """S_{p^e}(center) = {x : |x - center|_p = p^e}; center kept as given."""

    p: int
    e: int
    center: Fraction

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "center", Fraction(self.center))

    @property
    def radius(self) -> Fraction:
        return Fraction(self.p) ** self.e

    def __str__(self):
        return f"S[{self.p}^{self.e}]({self.center})"


@dataclass(frozen=True, slots=True)
class CellIndex:
    """Position of a level-k cell; 0 <= j < (p-1)p^{k-1}, lex in digits."""

    k: int
    j: int


@dataclass(frozen=True, slots=True)
class ClopenSet:
    """Finite disjoint union of balls inside a parent ball or sphere."""

    parent: Ball | Sphere
    balls: tuple[Ball, ...]


def _read(x, p: int) -> tuple:
    """x as (exact rational, window end): a PAdic is the class of unit*p^v
    (0 when flagged) modulo p^known_mod; a rational or exact zero has end None."""
    if not isinstance(x, PAdic):
        return x, None
    if x.p != p:
        raise InputError(f"mixed primes: {x.p} and {p}")
    v = x.v or 0
    return Fraction(x.unit * p ** max(v, 0), p ** max(-v, 0)), x.known_mod


def contains(region: Ball | Sphere, x) -> bool:
    """Certified membership; never answers from an insufficient window.

    x is tested exactly, by the valuation of x - center; a PAdic x is read
    as the rational its digits spell, known modulo its window end.

    Raises:
        InsufficientPrecision: x - center vanishes through a window too
            shallow to decide the comparison with the radius.
    """
    q, end = _read(x, region.p)
    lo, ball = -region.e, isinstance(region, Ball)
    d = q - region.center
    v = None if d == 0 else rational_valuation(d, region.p)
    if end is not None and (v is None or v >= end):
        # the window only knows x - center ≡ 0 mod p^end
        if ball and end < lo:
            raise InsufficientPrecision(
                f"|x - center| only bounded by p^{-end}, radius p^{region.e}"
            )
        if not ball and end <= lo:
            raise InsufficientPrecision(
                f"x - center ≡ 0 mod p^{end}: sphere membership undecidable"
            )
    if ball:
        return v is None or v >= lo
    return v == lo


def canonical_ball(c, e: int, p: int | None = None) -> Ball:
    """V_{p^e}(c) in canonical form; idempotent.

    Accepts a PAdic center (needs its window to reach position -e; a
    given `p` must be its prime) or an exact rational center with `p`
    given.
    """
    if isinstance(c, PAdic):
        p = c.p if p is None else p
    elif p is None:
        raise InputError("rational center requires p")
    q, end = _read(c, p)
    if end is not None and end < -e:
        raise InsufficientPrecision(f"center known mod p^{end}, need p^{-e}")
    return Ball(check_prime(p), e, rational_truncate(Fraction(q), p, -e))


def cell_count(p: int, k: int) -> int:
    return (p - 1) * p ** (k - 1)


def index_digits(p: int, k: int, j: int) -> tuple[int, ...]:
    """Digit string (t_0,...,t_{k-1}) of cell j at level k; t_0 is most significant."""
    if not 0 <= j < cell_count(p, k):
        raise InputError(f"cell index {j} out of range at level {k}")
    q, r = divmod(j, p ** (k - 1))
    out = [q + 1]
    for i in range(k - 2, -1, -1):
        d, r = divmod(r, p ** i)
        out.append(d)
    return tuple(out)


def digits_index(p: int, t: tuple[int, ...]) -> int:
    """Inverse of index_digits."""
    k = len(t)
    j = (t[0] - 1) * p ** (k - 1)
    for i, d in enumerate(t[1:], 1):
        j += d * p ** (k - 1 - i)
    return j


def cell_residues(p: int, k: int) -> list[int]:
    """Digit sums t_0 + t_1 p + ... + t_{k-1}p^{k-1} of the level-k cells, in cell order."""
    out = list(range(1, p))
    step = 1
    for _ in range(k - 1):
        step *= p
        out = [t + d * step for t in out for d in range(p)]
    return out


def unit_residue(a: int, b: int, m: int) -> int:
    """The residue of the p-adic unit a/b modulo m = p^k; p divides neither a nor b."""
    return a * pow(b, -1, m) % m


def cell_center(s: Sphere, k: int, j: int) -> Fraction:
    """Exact center s.center + p^{-e}(t_0 + t_1 p + ... + t_{k-1}p^{k-1})."""
    t = index_digits(s.p, k, j)
    tv = sum(d * s.p ** i for i, d in enumerate(t))
    return s.center + Fraction(s.p) ** (-s.e) * tv


def sphere_cells(s: Sphere, k: int, cap: int = DEFAULT_CELL_CAP) -> list[Ball]:
    """The (p-1)p^{k-1} disjoint radius-p^{e-k} balls tiling the sphere.

    Order is lexicographic in the digit strings (t_0,...,t_{k-1}).

    Raises:
        ResourceLimit: cell count above `cap`.
    """
    if k < 1:
        raise InputError("cell level must be >= 1")
    count = cell_count(s.p, k)
    if count > cap:
        raise ResourceLimit(f"{count} cells at level {k} exceed cap {cap}")
    step = Fraction(s.p) ** (-s.e)
    return [canonical_ball(s.center + step * t, s.e - k, p=s.p) for t in cell_residues(s.p, k)]


def locate_cell(s: Sphere, k: int, x) -> CellIndex:
    """The unique level-k cell containing x; inverse of sphere_cells order.

    x is located exactly, by the residue of the unit (x - center) p^e
    modulo p^k.

    Raises:
        NotOnSphere: certified |x - center| != p^e.
        InsufficientPrecision: fewer than k digits of x - center known.
    """
    if k < 1:
        raise InputError("cell level must be >= 1")
    if not contains(s, x):
        raise NotOnSphere(f"point has |x - c| != p^{s.e}")
    q, end = _read(x, s.p)
    if end is not None and end + s.e < k:
        raise InsufficientPrecision(
            f"need {k} digits of x - center, have {end + s.e}"
        )
    d = q - s.center
    a, b = d.numerator, d.denominator
    if s.e > 0:
        b //= s.p ** s.e
    else:
        a //= s.p ** -s.e
    u = unit_residue(a, b, s.p ** k)
    return CellIndex(k, digits_index(s.p, [u // s.p ** i % s.p for i in range(k)]))


def subdivide(b: Ball) -> list[Ball]:
    """The p disjoint children of radius p^{e-1} whose union is b."""
    step = Fraction(b.p) ** (-b.e)
    return [canonical_ball(b.center + d * step, b.e - 1, p=b.p) for d in range(b.p)]


def ball_inside(parent: Ball | Sphere, b: Ball) -> bool:
    """Exact containment test on canonical data."""
    if isinstance(parent, Ball):
        return b.e <= parent.e and (
            rational_truncate(b.center, b.p, -parent.e) == parent.center
        )
    d = b.center - parent.center
    return (
        b.e < parent.e
        and d != 0
        and rational_valuation(d, b.p) == -parent.e
    )


def clopen(parent: Ball | Sphere, balls) -> ClopenSet:
    """Build a ClopenSet, verifying disjointness and containment.

    Raises:
        OverlapDetected: two balls intersect (nested or duplicate).
        NotInCarrier: a ball is not contained in the parent.
    """
    p = parent.p
    ordered = sorted(balls, key=lambda b: (-b.e, b.center))
    seen: dict[int, set[Fraction]] = {}
    for b in ordered:
        if b.p != p:
            raise InputError("mixed primes in clopen set")
        if not ball_inside(parent, b):
            raise NotInCarrier(f"{b} is not contained in {parent}")
        for big_e, centers in seen.items():
            if rational_truncate(b.center, p, -big_e) in centers:
                raise OverlapDetected(f"{b} meets another ball of the set")
        seen.setdefault(b.e, set()).add(b.center)
    return ClopenSet(parent, tuple(ordered))
