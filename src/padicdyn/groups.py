"""The abelian groups on balls and spheres, and isomorphisms between them.

On a ball V_r(a):    x (+) y = x + y - a          (identity a)
On a sphere S_r(a):  x (*) y = r(x - a)(y - a) + a (identity 1/r + a)

The scalar r = p^e enters only as the p-adic number with unit digits
(1, 0, 0, ...), so multiplying or dividing by it is an exact digit
shift and loses nothing.  The chosen center a is part of the group
(two centers describing the same carrier give different, isomorphic,
operations), so groups keep a as given rather than canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import ClassVar

from .errors import InputError, InsufficientPrecision, KindMismatch, NotInCarrier, PadicError
from .geometry import Ball, Sphere, canonical_ball, contains, embed
from .padic import DEFAULT_PRECISION, PAdic, check_prime, equal_mod

SAMPLE_DEPTH = DEFAULT_PRECISION


def _window_end(*values: PAdic) -> int | None:
    ends = [x.known_mod for x in values if x.known_mod is not None]
    return min(ends) if ends else None


def draw(g: Group, rng: Random, depth: int = SAMPLE_DEPTH) -> Fraction:
    """The exact carrier point a + p^-e (t_0 + t_1 p + ... + t_{depth-1} p^{depth-1})
    with Haar-random digits, drawn from rng in order t_0, t_1, ...; on a
    sphere t_0 is nonzero.

    Each digit is drawn as rng.randrange(lo, p) draws it, lo plus a
    getrandbits rejection loop below p - lo, so the stream is the same.
    """
    p = g.p
    bits = rng.getrandbits
    lo = 1 if g.kind == "sphere" else 0
    width = (p - lo).bit_length()
    tv = bits(width)
    while tv >= p - lo:
        tv = bits(width)
    tv += lo
    width = p.bit_length()
    scale = 1
    for _ in range(depth - 1):
        scale *= p
        t = bits(width)
        while t >= p:
            t = bits(width)
        tv += t * scale
    return g.a + Fraction(p) ** (-g.e) * tv


@dataclass(frozen=True, slots=True)
class _CarriedGroup:
    """A group law of Z_p (ball) or of the units Z_p^x (sphere), carried
    over to the carrier by t -> a + p^-e t.  The identity is the image of
    the neutral element _neutral (0 or 1)."""

    p: int
    e: int
    a: Fraction
    carrier: Ball | Sphere = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "carrier", self._carrier())

    def _check_member(self, x: PAdic):
        if not contains(self.carrier, x):
            raise NotInCarrier(f"{x} is not {self._where} {self.carrier}")

    def identity(self) -> PAdic:
        return embed(self.a + Fraction(self.p) ** (-self.e) * self._neutral,
                     self.p, -self.e + SAMPLE_DEPTH)


@dataclass(frozen=True, slots=True)
class BallGroup(_CarriedGroup):
    kind: ClassVar[str] = "ball"
    _where: ClassVar[str] = "in"
    _neutral: ClassVar[int] = 0

    def _carrier(self) -> Ball:
        return canonical_ball(self.a, self.e, p=self.p)

    def combine(self, x: PAdic, y: PAdic) -> PAdic:
        """x + y - a.  Closure is forced by the strong triangle inequality."""
        self._check_member(x)
        self._check_member(y)
        a = embed(self.a, self.p, _window_end(x, y))
        return x + y - a

    def inverse(self, x: PAdic) -> PAdic:
        """2a - x, the (+)-inverse of x."""
        self._check_member(x)
        a = embed(2 * self.a, self.p, _window_end(x))
        return a - x

    def sample(self, rng: Random, depth: int = SAMPLE_DEPTH) -> PAdic:
        return embed(draw(self, rng, depth), self.p, -self.e + depth)


@dataclass(frozen=True, slots=True)
class SphereGroup(_CarriedGroup):
    kind: ClassVar[str] = "sphere"
    _where: ClassVar[str] = "on"
    _neutral: ClassVar[int] = 1

    def _carrier(self) -> Sphere:
        return Sphere(self.p, self.e, self.a)

    def combine(self, x: PAdic, y: PAdic) -> PAdic:
        """r(x - a)(y - a) + a; multiplication by r is an exact shift."""
        self._check_member(x)
        self._check_member(y)
        a = embed(self.a, self.p, _window_end(x, y))
        prod = ((x - a) * (y - a)).shift(self.e)
        return prod + embed(self.a, self.p, _window_end(prod))

    def inverse(self, x: PAdic) -> PAdic:
        """1/(r^2 (x - a)) + a.

        Division by zero cannot occur: carrier members have
        v(x - a) = -e exactly.
        """
        self._check_member(x)
        a = embed(self.a, self.p, _window_end(x))
        w = (x - a).inv().shift(-2 * self.e)
        return w + embed(self.a, self.p, _window_end(w))

    def sample(self, rng: Random, depth: int = SAMPLE_DEPTH) -> PAdic:
        return embed(draw(self, rng, depth), self.p, -self.e + depth)


Group = BallGroup | SphereGroup


def iso(src: Group, dst: Group, x: PAdic) -> PAdic:
    """h(x) = r1 (x - a1) / r2 + a2: the structure isomorphism src -> dst.

    Maps identity to identity and intertwines the two operations.

    Raises:
        KindMismatch: a ball group paired with a sphere group.
        NotInCarrier: x outside the source carrier.
    """
    if src.kind != dst.kind:
        raise KindMismatch(f"no isomorphism {src.kind} -> {dst.kind}")
    if src.p != dst.p:
        raise InputError(f"mixed primes: {src.p} and {dst.p}")
    src._check_member(x)
    a1 = embed(src.a, src.p, _window_end(x))
    shifted = (x - a1).shift(src.e - dst.e)
    return shifted + embed(dst.a, dst.p, _window_end(shifted))


def certified_equal(g: Group, lhs: PAdic, rhs: PAdic) -> bool:
    """Equality at the common knowledge window.

    Raises:
        InsufficientPrecision: the common window holds no carrier digit
            (never answers from a zero effective window).
    """
    k = _window_end(lhs, rhs)
    if k is None:
        return True
    if k <= -g.e:
        raise InsufficientPrecision("zero effective window in comparison")
    return equal_mod(lhs, rhs, k)


@dataclass(frozen=True, slots=True)
class LawReport:
    law: str
    trials: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "law": self.law,
            "trials": self.trials,
            "failures": list(self.failures),
        }


def _failure(x, y, z, lhs, rhs) -> dict:
    return {k: None if v is None else str(v)
            for k, v in zip(("x", "y", "z", "lhs", "rhs"), (x, y, z, lhs, rhs))}


def check_group_axioms(g: Group, trials: int = 1000, seed: int = 0) -> list[LawReport]:
    """Randomized verification of the abelian group laws on g's carrier.

    Samples Haar-uniform carrier triples, once each, and checks
    commutativity, associativity, identity, and inverse laws on every
    triple at the common precision window.  Each law counts the triples
    it ran and reports its first counterexample, if any;
    evaluation errors count as counterexamples and are recorded in
    place of the offending side.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    ident = g.identity()

    def law_comm(x, y, z):
        return g.combine(x, y), g.combine(y, x)

    def law_assoc(x, y, z):
        return g.combine(g.combine(x, y), z), g.combine(x, g.combine(y, z))

    def law_identity(x, y, z):
        return g.combine(x, ident), x

    def law_inverse(x, y, z):
        return g.combine(x, g.inverse(x)), ident

    laws = [
        ("commutativity", law_comm, 2),
        ("associativity", law_assoc, 3),
        ("identity", law_identity, 1),
        ("inverse", law_inverse, 1),
    ]
    ran = [0] * len(laws)
    first: list[dict | None] = [None] * len(laws)
    rng = Random(seed)
    for _ in range(trials):
        if None not in first:
            break
        x, y, z = (g.sample(rng) for _ in range(3))
        for i, (_, law, arity) in enumerate(laws):
            if first[i] is not None:
                continue
            ran[i] += 1
            args = [x, y if arity >= 2 else None, z if arity >= 3 else None]
            try:
                lhs, rhs = law(x, y, z)
                if not certified_equal(g, lhs, rhs):
                    first[i] = _failure(*args, lhs, rhs)
            except PadicError as err:
                first[i] = _failure(*args, f"{type(err).__name__}: {err}", None)
    return [LawReport(name, n, () if f is None else (f,))
            for (name, _, _), n, f in zip(laws, ran, first)]
