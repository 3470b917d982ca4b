from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from padicdyn import measure
from padicdyn.errors import NotInCarrier, OverlapDetected
from padicdyn.geometry import (
    ClopenSet,
    Sphere,
    canonical_ball,
    sphere_cells,
    subdivide,
)
from padicdyn.groups import BallGroup, SphereGroup
from padicdyn.measure import (
    haar,
    haar_clopen,
    haar_sphere,
    invariance_check,
    normalize_clopen,
    normalized_measure,
    translate_clopen,
)
from padicdyn.padic import from_rational


def test_haar_examples():
    assert haar(canonical_ball(Fraction(1), -2, p=3)) == Fraction(1, 9)
    assert haar(canonical_ball(Fraction(0), 0, p=3)) == 1
    assert haar(canonical_ball(Fraction(0), 2, p=2)) == 4


def test_haar_clopen_examples():
    s = Sphere(3, 0, Fraction(0))
    lvl1 = ClopenSet(s, tuple(sphere_cells(s, 1)))
    assert haar_clopen(lvl1) == Fraction(2, 3)
    assert haar_clopen(ClopenSet(s, ())) == 0
    lvl2 = ClopenSet(s, tuple(sphere_cells(s, 2)))
    assert haar_clopen(lvl2) == Fraction(2, 3) == haar_sphere(s)


def test_haar_clopen_rejects_overlap():
    s = Sphere(3, 0, Fraction(0))
    cells = sphere_cells(s, 2)
    with pytest.raises(OverlapDetected):
        haar_clopen(ClopenSet(s, tuple(cells + cells[:1])))


def test_normalized_measure_examples():
    s3 = Sphere(3, 0, Fraction(0))
    one_cell = ClopenSet(s3, (canonical_ball(Fraction(1), -1, p=3),))
    assert normalized_measure(s3, one_cell) == Fraction(1, 2)
    whole = ClopenSet(s3, tuple(sphere_cells(s3, 1)))
    assert normalized_measure(s3, whole) == 1
    s2 = Sphere(2, -1, Fraction(0))
    cell = ClopenSet(s2, (canonical_ball(Fraction(2), -2, p=2),))
    assert normalized_measure(s2, cell) == 1


def test_normalized_measure_wrong_parent():
    s = Sphere(3, 0, Fraction(0))
    other = Sphere(3, 1, Fraction(0))
    a = ClopenSet(other, (canonical_ball(Fraction(1), -1, p=3),))
    with pytest.raises(NotInCarrier):
        normalized_measure(s, a)


def test_normalize_merges_siblings():
    s = Sphere(3, 1, Fraction(0))
    b = canonical_ball(Fraction(1, 3), -1, p=3)
    kids = subdivide(b)
    grandkids = subdivide(kids[0])
    a = ClopenSet(s, tuple(kids[1:] + grandkids))
    merged = normalize_clopen(a)
    assert merged.balls == (b,)
    assert haar_clopen(a) == haar(b)


def test_invariance_examples():
    g = SphereGroup(3, 0, Fraction(0))
    a = ClopenSet(g.carrier, (canonical_ball(Fraction(1), -1, p=3),))
    rep = invariance_check(g, from_rational(2, 3, 32), a)
    assert rep.preserved and rep.before == rep.after == Fraction(1, 3)
    assert rep.translated.balls[0] == canonical_ball(Fraction(2), -1, p=3)

    rep_id = invariance_check(g, g.identity(), a)
    assert rep_id.preserved
    assert rep_id.translated.balls == a.balls

    gb = BallGroup(3, 0, Fraction(0))
    ab = ClopenSet(gb.carrier, (canonical_ball(Fraction(0), -1, p=3),))
    rep_b = invariance_check(gb, from_rational(Fraction(1, 2), 3, 32), ab)
    assert rep_b.preserved and rep_b.after == Fraction(1, 3)
    assert rep_b.translated.balls[0] == canonical_ball(Fraction(1, 2), -1, p=3)


def test_invariance_requires_carrier():
    g = SphereGroup(3, 0, Fraction(0))
    a = ClopenSet(g.carrier, (canonical_ball(Fraction(1), -1, p=3),))
    with pytest.raises(NotInCarrier):
        invariance_check(g, from_rational(3, 3, 32), a)


primes = st.sampled_from([2, 3, 5])


@given(primes, st.integers(-2, 2), st.integers(1, 3), st.data())
def test_translation_invariance(p, e, k, data):
    s = Sphere(p, e, Fraction(0))
    g = SphereGroup(p, e, Fraction(0))
    cells = sphere_cells(s, k)
    chosen = data.draw(st.sets(st.sampled_from(range(len(cells))), min_size=1))
    a = ClopenSet(s, tuple(cells[i] for i in sorted(chosen)))
    x = g.sample(Random(data.draw(st.integers(0, 2 ** 16))))
    rep = invariance_check(g, x, a)
    assert rep.preserved


@given(primes, st.integers(-2, 2), st.integers(1, 3), st.data())
def test_additivity_and_monotonicity(p, e, k, data):
    s = Sphere(p, e, Fraction(0))
    cells = sphere_cells(s, k)
    small = data.draw(st.sets(st.sampled_from(range(len(cells))), min_size=1))
    big = small | data.draw(st.sets(st.sampled_from(range(len(cells)))))
    a = ClopenSet(s, tuple(cells[i] for i in sorted(small)))
    b = ClopenSet(s, tuple(cells[i] for i in sorted(big)))
    assert haar_clopen(a) == sum(haar(cells[i]) for i in small)
    assert haar_clopen(a) <= haar_clopen(b) <= haar_sphere(s)
    if big == set(range(len(cells))):
        assert normalized_measure(s, b) == 1


@given(primes, st.integers(-2, 2), st.integers(-8, 8))
def test_refinement_preserves_measure(p, e, c):
    b = canonical_ball(Fraction(c), e, p=p)
    assert sum(haar(kid) for kid in subdivide(b)) == haar(b)


def test_each_measurement_verifies_each_set_once(monkeypatch):
    verified = []
    real_clopen = measure.clopen

    def counted(parent, balls):
        verified.append(parent)
        return real_clopen(parent, balls)

    def refuse(a):
        raise AssertionError("a measurement merged siblings")

    monkeypatch.setattr(measure, "clopen", counted)
    monkeypatch.setattr(measure, "normalize_clopen", refuse)
    s = Sphere(3, 1, Fraction(0))
    b = canonical_ball(Fraction(1, 3), -1, p=3)
    kids = subdivide(b)
    a = ClopenSet(s, tuple(kids[1:] + subdivide(kids[0])))
    assert haar_clopen(a) == haar(b) and len(verified) == 1
    verified.clear()
    g = SphereGroup(3, 1, Fraction(0))
    rep = invariance_check(g, g.sample(Random(4)), a)
    assert rep.preserved and rep.before == rep.after == haar(b)
    assert len(verified) == 2


def _merged_measure(a):
    # the measure as the sum over the canonical form, siblings merged first
    return sum((haar(b) for b in normalize_clopen(a).balls), Fraction(0))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as err:  # the exception is part of the compared behaviour
        return type(err).__name__, str(err)


@given(primes, st.integers(-2, 2), st.integers(0, 4), st.data())
def test_measure_by_sum_matches_the_merged_sum(p, e, c, data):
    g = data.draw(st.sampled_from([BallGroup, SphereGroup]))(p, e, Fraction(c, p))
    pool = []
    for b in (subdivide(g.carrier) if g.kind == "ball" else sphere_cells(g.carrier, 1)):
        kids = subdivide(b)
        pool += [b] + kids + subdivide(kids[0])
    pool.append(canonical_ball(Fraction(c + 1, p ** 3), e + 1, p=p))
    chosen = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    a = ClopenSet(g.carrier, tuple(chosen))
    want = _outcome(_merged_measure, a)
    assert _outcome(haar_clopen, a) == want
    if want[0] != "value":
        return
    x = g.sample(Random(data.draw(st.integers(0, 2 ** 16))))
    rep = invariance_check(g, x, a)
    assert rep.preserved and rep.before == rep.after == want[1]
    assert _merged_measure(rep.translated) == want[1]
    if g.kind == "sphere":
        assert normalized_measure(g.carrier, a) == want[1] / haar_sphere(g.carrier)
    outside = g.a + (Fraction(p) ** -(e + 1) if g.kind == "ball" else 0)
    with pytest.raises(NotInCarrier):
        invariance_check(g, outside, a)
