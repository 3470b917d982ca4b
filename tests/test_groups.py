from fractions import Fraction
from random import Random

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from padicdyn.errors import InputError, InsufficientPrecision, KindMismatch, NotInCarrier
from padicdyn.geometry import Ball, Sphere, canonical_ball, contains, embed
from padicdyn.groups import (
    SAMPLE_DEPTH,
    BallGroup,
    SphereGroup,
    _window_end,
    certified_equal,
    check_group_axioms,
    draw,
    iso,
)
from padicdyn.padic import PAdic, check_prime, equal_mod, from_rational


def emb(q, p, n=32):
    return from_rational(Fraction(q), p, n)


def test_oplus_examples():
    g = BallGroup(3, -1, Fraction(2))
    s = g.combine(emb(5, 3), emb(8, 3))
    assert equal_mod(s, emb(11, 3), 20)
    x = emb(5, 3)
    assert certified_equal(g, g.combine(x, g.identity()), x)
    assert certified_equal(g, g.combine(g.inverse(x), x), g.identity())


def test_ball_inverse_examples():
    g = BallGroup(3, -1, Fraction(2))
    inv5 = g.inverse(emb(5, 3))
    assert equal_mod(inv5, emb(-1, 3), 20)
    assert contains(g.carrier, inv5)
    assert certified_equal(g, g.inverse(g.identity()), g.identity())
    x = emb(8, 3)
    assert certified_equal(g, g.inverse(g.inverse(x)), x)


def test_oplus_not_in_carrier():
    g = BallGroup(3, -1, Fraction(2))
    with pytest.raises(NotInCarrier):
        g.combine(emb(1, 3), emb(5, 3))


def test_odot_examples():
    g3 = SphereGroup(3, 0, Fraction(0))
    assert equal_mod(g3.combine(emb(2, 3), emb(2, 3)), emb(4, 3), 20)
    g2 = SphereGroup(2, -1, Fraction(0))
    assert equal_mod(g2.combine(emb(2, 2), emb(6, 2)), emb(6, 2), 20)
    x = emb(6, 2)
    assert certified_equal(g2, g2.combine(x, g2.identity()), x)


def test_sphere_inverse_examples():
    g2 = SphereGroup(2, -1, Fraction(0))
    inv6 = g2.inverse(emb(6, 2))
    assert equal_mod(inv6, emb(Fraction(2, 3), 2), 20)
    assert certified_equal(g2, g2.combine(emb(6, 2), inv6), g2.identity())
    g3 = SphereGroup(3, 0, Fraction(0))
    inv2 = g3.inverse(emb(2, 3))
    assert inv2.digits[:4] == (2, 1, 1, 1)
    assert certified_equal(g3, g3.inverse(g3.identity()), g3.identity())


def test_sphere_identity_on_carrier():
    for g in (SphereGroup(3, 2, Fraction(1, 2)), SphereGroup(2, -1, Fraction(0))):
        assert contains(g.carrier, g.identity())


def test_iso_ball_example():
    src = BallGroup(3, 0, Fraction(0))
    dst = BallGroup(3, -1, Fraction(2))
    assert equal_mod(iso(src, dst, emb(0, 3)), dst.identity(), 20)
    lhs = iso(src, dst, src.combine(emb(1, 3), emb(1, 3)))
    assert equal_mod(lhs, emb(8, 3), 20)
    rhs = dst.combine(iso(src, dst, emb(1, 3)), iso(src, dst, emb(1, 3)))
    assert equal_mod(lhs, rhs, 20)


def test_iso_sphere_example():
    src = SphereGroup(2, 0, Fraction(0))
    dst = SphereGroup(2, -1, Fraction(0))
    lhs = iso(src, dst, src.combine(emb(3, 2), emb(5, 2)))
    assert equal_mod(lhs, emb(30, 2), 20)
    rhs = dst.combine(iso(src, dst, emb(3, 2)), iso(src, dst, emb(5, 2)))
    assert equal_mod(lhs, rhs, 20)


def test_iso_kind_mismatch():
    with pytest.raises(KindMismatch):
        iso(BallGroup(3, 0, Fraction(0)), SphereGroup(3, 0, Fraction(0)), emb(1, 3))


def test_certified_equal_refuses_empty_window():
    g = SphereGroup(3, -2, Fraction(0))
    with pytest.raises(InsufficientPrecision):
        certified_equal(g, PAdic.flagged_zero(3, 1), PAdic.flagged_zero(3, 1))


def test_axioms_pass_ball_q3():
    reports = check_group_axioms(BallGroup(3, 0, Fraction(0)), trials=60, seed=7)
    assert all(r.passed for r in reports)
    assert {r.law for r in reports} == {
        "commutativity",
        "associativity",
        "identity",
        "inverse",
    }


def test_axioms_pass_sphere_q2():
    reports = check_group_axioms(SphereGroup(2, -1, Fraction(0)), trials=60, seed=7)
    assert all(r.passed for r in reports)


class _RadiusSquaredCorruption(SphereGroup):
    # mutation for the checker: r(x-a)(y-a)+a becomes r^2(x-a)(y-a)+a
    def combine(self, x, y):
        self._check_member(x)
        self._check_member(y)
        from padicdyn.geometry import embed
        from padicdyn.groups import _window_end

        a = embed(self.a, self.p, _window_end(x, y))
        prod = ((x - a) * (y - a)).shift(2 * self.e)
        return prod + embed(self.a, self.p, _window_end(prod))


def test_corrupted_operation_reported():
    bad = _RadiusSquaredCorruption(2, -1, Fraction(0))
    reports = {r.law: r for r in check_group_axioms(bad, trials=40, seed=3)}
    assert not reports["associativity"].passed
    failure = reports["associativity"].failures[0]
    assert set(failure) == {"x", "y", "z", "lhs", "rhs"}
    assert not reports["identity"].passed
    # the corrupted operation is still symmetric in x and y
    assert reports["commutativity"].passed


primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def groups(draw):
    p = draw(primes)
    e = draw(st.integers(-2, 2))
    c = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 5])))
    kind = draw(st.booleans())
    return BallGroup(p, e, c) if kind else SphereGroup(p, e, c)


@given(groups(), st.integers(0, 2 ** 32))
def test_closure_and_laws(g, seed):
    rng = Random(seed)
    x, y = g.sample(rng), g.sample(rng)
    out = g.combine(x, y)
    assert contains(g.carrier, out)
    assert contains(g.carrier, g.inverse(x))
    assert certified_equal(g, g.combine(x, y), g.combine(y, x))
    assert certified_equal(g, g.combine(x, g.inverse(x)), g.identity())


@given(groups(), groups(), st.integers(0, 2 ** 32))
def test_iso_homomorphism(src, dst, seed):
    if src.kind != dst.kind or src.p != dst.p:
        with pytest.raises((KindMismatch, Exception)):
            iso(src, dst, src.sample(Random(seed)))
        return
    rng = Random(seed)
    x, y = src.sample(rng), src.sample(rng)
    assert contains(dst.carrier, iso(src, dst, x))
    lhs = iso(src, dst, src.combine(x, y))
    rhs = dst.combine(iso(src, dst, x), iso(src, dst, y))
    assert certified_equal(dst, lhs, rhs)
    back = iso(dst, src, iso(src, dst, x))
    assert certified_equal(src, back, x)
    assert certified_equal(dst, iso(src, dst, src.identity()), dst.identity())


def test_axiom_check_draws_each_triple_once(monkeypatch):
    draws = []
    real = SphereGroup.sample

    def counted(self, rng, depth=SAMPLE_DEPTH):
        draws.append(self)
        return real(self, rng, depth)

    monkeypatch.setattr(SphereGroup, "sample", counted)
    reports = check_group_axioms(SphereGroup(3, -1, Fraction(1, 2)), trials=25, seed=5)
    assert [r.trials for r in reports] == [25] * 4 and all(r.passed for r in reports)
    assert len(draws) == 3 * 25
    # each law keeps its own count: the corrupted operation stays commutative
    # for all 40 triples while associativity and identity stop at a failure
    draws.clear()
    bad = {r.law: r for r in check_group_axioms(
        _RadiusSquaredCorruption(2, -1, Fraction(0)), trials=40, seed=3)}
    assert bad["commutativity"].passed and bad["commutativity"].trials == 40
    assert bad["associativity"].trials < 40 and bad["identity"].trials < 40
    assert len(draws) == 3 * 40


# Reference for the shared group skeleton: the two group classes and the
# isomorphism as they stood when each class carried its own copy of the
# fields, the carrier set-up, the member check and the identity.

@dataclass(frozen=True, slots=True)
class RefBallGroup:
    p: int
    e: int
    a: Fraction
    carrier: Ball = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "carrier", canonical_ball(self.a, self.e, p=self.p))

    @property
    def kind(self) -> str:
        return "ball"

    def _check_member(self, x):
        if not contains(self.carrier, x):
            raise NotInCarrier(f"{x} is not in {self.carrier}")

    def identity(self):
        return embed(self.a, self.p, -self.e + SAMPLE_DEPTH)

    def combine(self, x, y):
        self._check_member(x)
        self._check_member(y)
        a = embed(self.a, self.p, _window_end(x, y))
        return x + y - a

    def inverse(self, x):
        self._check_member(x)
        a = embed(2 * self.a, self.p, _window_end(x))
        return a - x

    def sample(self, rng, depth=SAMPLE_DEPTH):
        return embed(draw(self, rng, depth), self.p, -self.e + depth)


@dataclass(frozen=True, slots=True)
class RefSphereGroup:
    p: int
    e: int
    a: Fraction
    carrier: Sphere = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "carrier", Sphere(self.p, self.e, self.a))

    @property
    def kind(self) -> str:
        return "sphere"

    def _check_member(self, x):
        if not contains(self.carrier, x):
            raise NotInCarrier(f"{x} is not on {self.carrier}")

    def identity(self):
        return embed(Fraction(self.p) ** (-self.e) + self.a, self.p, -self.e + SAMPLE_DEPTH)

    def combine(self, x, y):
        self._check_member(x)
        self._check_member(y)
        a = embed(self.a, self.p, _window_end(x, y))
        prod = ((x - a) * (y - a)).shift(self.e)
        return prod + embed(self.a, self.p, _window_end(prod))

    def inverse(self, x):
        self._check_member(x)
        a = embed(self.a, self.p, _window_end(x))
        w = (x - a).inv().shift(-2 * self.e)
        return w + embed(self.a, self.p, _window_end(w))

    def sample(self, rng, depth=SAMPLE_DEPTH):
        return embed(draw(self, rng, depth), self.p, -self.e + depth)


def ref_iso(src, dst, x):
    if src.kind != dst.kind:
        raise KindMismatch(f"no isomorphism {src.kind} -> {dst.kind}")
    if src.p != dst.p:
        raise InputError(f"mixed primes: {src.p} and {dst.p}")
    src._check_member(x)
    a1 = embed(src.a, src.p, _window_end(x))
    shifted = (x - a1).shift(src.e - dst.e)
    return shifted + embed(dst.a, dst.p, _window_end(shifted))


def outcome(fn, *args):
    """The value, or the exception class and message, of fn(*args)."""
    try:
        return "value", fn(*args)
    except Exception as err:  # every exception is part of the compared behaviour
        return type(err).__name__, str(err)


PAIRS = {BallGroup: RefBallGroup, SphereGroup: RefSphereGroup}


@st.composite
def carriers(draw_, p):
    e = draw_(st.integers(-3, 3))
    den = draw_(st.sampled_from([1, 2, 3, p, p ** 2, 3 * p ** 3]))
    return draw_(st.sampled_from([BallGroup, SphereGroup])), e, Fraction(
        draw_(st.integers(-50, 50)), den)


@st.composite
def operand(draw_, p, e, a):
    kind = draw_(st.sampled_from(["sample", "truncated", "zero", "flagged", "rational",
                                  "prime"]))
    if kind == "zero":
        return PAdic.zero(p)
    if kind == "flagged":
        return PAdic.flagged_zero(p, draw_(st.integers(-5, 6)))
    if kind == "prime":
        return from_rational(draw_(st.integers(1, 20)), 11 if p != 11 else 13, 8)
    if kind == "rational":
        q = Fraction(draw_(st.integers(-99, 99)), draw_(st.sampled_from([1, p, p ** 3, 7])))
    else:
        g = draw_(st.sampled_from([RefBallGroup, RefSphereGroup]))(p, e, a)
        q = draw(g, Random(draw_(st.integers(0, 2 ** 16))), draw_(st.integers(1, 12)))
    if q == 0:
        return PAdic.zero(p)
    n = SAMPLE_DEPTH if kind == "sample" else draw_(st.integers(1, 9))
    return from_rational(q, p, n)


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_group_skeleton_matches_the_reference(p, data):
    cls, e, a = data.draw(carriers(p))
    q = data.draw(st.sampled_from([p, p, p, 2, 3]))
    other, e2, a2 = data.draw(carriers(q))
    g, ref = cls(p, e, a), PAIRS[cls](p, e, a)
    h, ref_h = other(q, e2, a2), PAIRS[other](q, e2, a2)
    assert repr(ref) == "Ref" + repr(g)
    assert (g.kind, g.carrier, hash(g)) == (ref.kind, ref.carrier, hash(ref))
    twin = other(p, e, a)
    assert (g == h, g != h, g == cls(p, e, a), g == twin) == (
        ref == ref_h, ref != ref_h, ref == PAIRS[cls](p, e, a), ref == PAIRS[other](p, e, a))
    assert g.identity() == ref.identity()
    seed, depth = data.draw(st.integers(0, 2 ** 16)), data.draw(st.integers(1, 40))
    assert g.sample(Random(seed), depth) == ref.sample(Random(seed), depth)
    xs = [data.draw(operand(p, e, a)) for _ in range(5)] + [g.identity()]
    for x in xs:
        assert outcome(g.inverse, x) == outcome(ref.inverse, x)
        assert outcome(iso, g, h, x) == outcome(ref_iso, ref, ref_h, x)
        assert outcome(iso, h, g, x) == outcome(ref_iso, ref_h, ref, x)
        for y in xs:
            assert outcome(g.combine, x, y) == outcome(ref.combine, x, y)


def _randrange_draw(g, rng, depth):
    """draw as it was written with one rng.randrange call per digit."""
    p = g.p
    tv = rng.randrange(1 if g.kind == "sphere" else 0, p)
    scale = 1
    for _ in range(depth - 1):
        scale *= p
        tv += rng.randrange(p) * scale
    return g.a + Fraction(p) ** (-g.e) * tv


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_draw_keeps_the_randrange_stream(p):
    # draw inlines the getrandbits rejection loop of Random.randrange; the
    # samples and the generator state after them must stay those of randrange
    for cls in (BallGroup, SphereGroup):
        g = cls(p, 1, Fraction(1, 3))
        fast, slow = Random(p), Random(p)
        for depth in range(1, 41):
            assert draw(g, fast, depth) == _randrange_draw(g, slow, depth), (cls, depth)
        assert fast.random() == slow.random()
