from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from padicdyn.errors import InsufficientPrecision, KindMismatch, NotInCarrier
from padicdyn.geometry import contains
from padicdyn.groups import (
    SAMPLE_DEPTH,
    BallGroup,
    SphereGroup,
    certified_equal,
    check_group_axioms,
    iso,
)
from padicdyn.padic import PAdic, equal_mod, from_rational


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
