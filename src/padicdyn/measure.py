"""Haar measure on the clopen algebra of a ball or sphere.

Everything is an exact rational: a ball of radius p^e has measure
exactly p^e, a sphere S_{p^e} has measure (p-1)p^{e-1}, and the
normalized sphere measure divides by that total.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInCarrier, OverlapDetected, PadicError
from .geometry import (
    Ball,
    ClopenSet,
    Sphere,
    canonical_ball,
    clopen,
    contains,
    embed,
)
from .groups import BallGroup, SphereGroup
from .padic import PAdic, rational_truncate


def haar(b: Ball) -> Fraction:
    """μ̄(V_{p^e}(c)) = p^e."""
    return Fraction(b.p) ** b.e


def haar_sphere(s: Sphere) -> Fraction:
    """μ̄(S_{p^e}(a)) = (p-1) p^{e-1}: the sphere minus its inner ball."""
    return (s.p - 1) * Fraction(s.p) ** (s.e - 1)


def normalize_clopen(a: ClopenSet) -> ClopenSet:
    """Verify invariants and merge complete p-tuples of sibling balls.

    Raises:
        OverlapDetected: two component balls intersect.
        NotInCarrier: a component ball escapes the parent.
    """
    verified = clopen(a.parent, a.balls)
    p = a.parent.p
    balls = set(verified.balls)
    changed = True
    while changed:
        changed = False
        families: dict[tuple[int, Fraction], set] = {}
        for b in balls:
            parent_center = rational_truncate(b.center, p, -(b.e + 1))
            families.setdefault((b.e, parent_center), set()).add(b)
        for (e, parent_center), siblings in families.items():
            if len(siblings) == p:
                balls -= siblings
                balls.add(Ball(p, e + 1, parent_center))
                changed = True
    return ClopenSet(a.parent, tuple(sorted(balls, key=lambda b: (-b.e, b.center))))


def _total(a: ClopenSet) -> Fraction:
    return sum((haar(b) for b in a.balls), Fraction(0))


def haar_clopen(a: ClopenSet) -> Fraction:
    """Finite additivity: the exact sum of component ball measures.

    Merging siblings would not change the sum, so a is only verified.

    Raises:
        OverlapDetected: two component balls intersect.
        NotInCarrier: a component ball escapes the parent.
    """
    return _total(clopen(a.parent, a.balls))


def normalized_measure(s: Sphere, a: ClopenSet) -> Fraction:
    """μ(A) = μ̄(A) · p / ((p-1) p^e), the probability measure on S."""
    if a.parent != s:
        raise NotInCarrier(f"clopen set lives on {a.parent}, not {s}")
    return haar_clopen(a) / haar_sphere(s)


def translate_clopen(g: BallGroup | SphereGroup, x: PAdic, a: ClopenSet) -> ClopenSet:
    """x ∘ A, ball by ball: translate each center, keep each radius.

    Translation by a group element preserves all distances, so each
    component ball maps onto the ball of the same radius around the
    translated center.
    """
    if a.parent != g.carrier:
        raise NotInCarrier(f"clopen set lives on {a.parent}, not {g.carrier}")
    if not contains(g.carrier, x):
        raise NotInCarrier("translating element is outside the carrier")
    moved = []
    for b in a.balls:
        c = embed(b.center, g.p, -b.e + 4)
        moved.append(canonical_ball(g.combine(x, c), b.e))
    return clopen(g.carrier, moved)


@dataclass(frozen=True, slots=True)
class InvarianceReport:
    preserved: bool
    before: Fraction
    after: Fraction | None
    translated: ClopenSet | None
    note: str | None

    def as_dict(self) -> dict:
        return {
            "preserved": self.preserved,
            "before": str(self.before),
            "after": None if self.after is None else str(self.after),
            "note": self.note,
        }


def invariance_check(g: BallGroup | SphereGroup, x: PAdic, a: ClopenSet) -> InvarianceReport:
    """Verify μ̄(x ∘ A) = μ̄(A) plus disjointness/containment of x ∘ A.

    Precondition failures (x outside the carrier, A not inside it,
    A overlapping) raise; failures of the invariance itself are report
    contents.
    """
    if a.parent != g.carrier:
        raise NotInCarrier(f"clopen set lives on {a.parent}, not {g.carrier}")
    if not contains(g.carrier, x):
        raise NotInCarrier("translating element is outside the carrier")
    a = clopen(a.parent, a.balls)
    before = _total(a)
    try:
        moved = translate_clopen(g, x, a)
    except (OverlapDetected, NotInCarrier, PadicError) as err:
        return InvarianceReport(False, before, None, None, f"{type(err).__name__}: {err}")
    after = _total(moved)
    if after != before:
        return InvarianceReport(False, before, after, moved, "measure changed")
    return InvarianceReport(True, before, after, moved, None)
