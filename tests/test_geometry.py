from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicdyn.errors import (
    InputError,
    InsufficientPrecision,
    NotInCarrier,
    NotOnSphere,
    OverlapDetected,
    PadicError,
    ResourceLimit,
)
from padicdyn.geometry import (
    Ball,
    CellIndex,
    Sphere,
    ball_inside,
    canonical_ball,
    cell_center,
    cell_count,
    cell_residues,
    clopen,
    contains,
    digits_index,
    embed,
    index_digits,
    locate_cell,
    sphere_cells,
    subdivide,
)
from padicdyn.padic import PAdic, from_rational

primes = st.sampled_from([2, 3, 5, 7])


def test_contains_sphere():
    s = Sphere(3, 0, Fraction(0))
    assert contains(s, from_rational(4, 3, 6))
    assert not contains(s, from_rational(3, 3, 6))
    assert not contains(s, PAdic.zero(3))


def test_contains_ball():
    b = canonical_ball(Fraction(2), -1, p=3)
    assert contains(b, from_rational(5, 3, 6))
    assert not contains(b, from_rational(1, 3, 6))
    assert contains(b, from_rational(2, 3, 6))


def test_contains_insufficient_window():
    x = from_rational(1 + 81, 3, 2)
    b = canonical_ball(Fraction(1), -3, p=3)
    with pytest.raises(InsufficientPrecision):
        contains(b, x)


def test_canonical_ball_examples():
    five = canonical_ball(from_rational(5, 3, 8), -1)
    two = canonical_ball(from_rational(2, 3, 8), -1)
    assert five == two and five.center == 2
    assert canonical_ball(Fraction(0), 3, p=5).center == 0
    again = canonical_ball(embed(five.center, 3, 10), -1)
    assert again == five


def test_canonical_ball_needs_window():
    x = from_rational(7, 3, 2)
    with pytest.raises(InsufficientPrecision):
        canonical_ball(x, -5)


def test_canonical_ball_refuses_a_center_of_another_prime():
    x = from_rational(7, 3, 6)
    with pytest.raises(InputError, match="mixed primes: 3 and 5"):
        canonical_ball(x, -1, p=5)
    assert canonical_ball(x, -1, p=3) == canonical_ball(x, -1)


def test_sphere_cells_q3():
    s = Sphere(3, 0, Fraction(0))
    lvl1 = sphere_cells(s, 1)
    assert [b.center for b in lvl1] == [1, 2]
    assert all(b.e == -1 for b in lvl1)
    lvl2 = sphere_cells(s, 2)
    assert [b.center for b in lvl2] == [1, 4, 7, 2, 5, 8]
    assert all(b.e == -2 for b in lvl2)


def test_sphere_cells_q2_single():
    s = Sphere(2, -1, Fraction(0))
    cells = sphere_cells(s, 1)
    assert len(cells) == 1 and cells[0] == canonical_ball(Fraction(2), -2, p=2)


def test_sphere_cells_cap():
    s = Sphere(3, 0, Fraction(0))
    with pytest.raises(ResourceLimit):
        sphere_cells(s, 3, cap=10)


def test_locate_cell_examples():
    s = Sphere(3, 0, Fraction(0))
    assert locate_cell(s, 2, from_rational(7, 3, 8)) == CellIndex(2, 2)
    assert locate_cell(s, 1, from_rational(1, 3, 8)) == CellIndex(1, 0)
    with pytest.raises(NotOnSphere):
        locate_cell(s, 1, from_rational(3, 3, 8))


def test_locate_cell_precision():
    s = Sphere(3, 0, Fraction(0))
    with pytest.raises(InsufficientPrecision):
        locate_cell(s, 4, from_rational(1, 3, 2))


def test_clopen_checks():
    s = Sphere(3, 0, Fraction(0))
    cells = sphere_cells(s, 2)
    assert clopen(s, cells).parent is s
    with pytest.raises(OverlapDetected):
        clopen(s, cells + [cells[0]])
    with pytest.raises(OverlapDetected):
        clopen(s, sphere_cells(s, 1) + [cells[3]])
    with pytest.raises(NotInCarrier):
        clopen(s, [canonical_ball(Fraction(3), -1, p=3)])


def test_subdivide_refines():
    b = canonical_ball(Fraction(1), -1, p=3)
    kids = subdivide(b)
    assert len(kids) == 3
    assert all(ball_inside(b, kid) for kid in kids)
    assert len({kid.center for kid in kids}) == 3


@st.composite
def small_spheres(draw):
    p = draw(primes)
    e = draw(st.integers(-3, 3))
    c = draw(st.integers(-20, 20))
    den = draw(st.sampled_from([1, 2, 3, 5]))
    return Sphere(p, e, Fraction(c, den))


@given(small_spheres(), st.integers(1, 3), st.data())
def test_partition(s, k, data):
    # every point of the sphere lies in exactly one level-k cell
    cells = sphere_cells(s, k)
    assert len(cells) == cell_count(s.p, k)
    u = data.draw(
        st.integers(1, s.p ** (k + 2) - 1).filter(lambda t: t % s.p != 0)
    )
    x = embed(s.center + Fraction(s.p) ** (-s.e) * u, s.p, 30 - s.e)
    assert contains(s, x)
    hits = [b for b in cells if contains(b, x)]
    assert len(hits) == 1
    assert hits[0] == cells[locate_cell(s, k, x).j]


@given(small_spheres(), st.integers(1, 3))
def test_locate_cell_identity_on_centers(s, k):
    for j in range(cell_count(s.p, k)):
        x = embed(cell_center(s, k, j), s.p, 30 - s.e)
        assert locate_cell(s, k, x) == CellIndex(k, j)


@given(primes, st.integers(1, 4))
def test_cell_residues_follow_the_index_order(p, k):
    residues = cell_residues(p, k)
    assert len(residues) == cell_count(p, k)
    for j, t in enumerate(residues):
        assert t == sum(d * p ** i for i, d in enumerate(index_digits(p, k, j)))


@given(small_spheres(), st.integers(1, 2))
def test_refinement(s, k):
    # each level-k cell is the disjoint union of exactly p level-(k+1) cells
    coarse = sphere_cells(s, k)
    fine = sphere_cells(s, k + 1)
    for b in coarse:
        kids = [f for f in fine if ball_inside(b, f)]
        assert len(kids) == s.p
        assert sorted(kids, key=lambda f: f.center) == sorted(
            subdivide(b), key=lambda f: f.center
        )
    for f in fine:
        assert sum(ball_inside(b, f) for b in coarse) == 1


@given(primes, st.integers(-3, 3), st.integers(-40, 40), st.integers(-40, 40))
def test_ball_equality_is_membership(p, e, c1, c2):
    b1 = canonical_ball(Fraction(c1), e, p=p)
    b2 = canonical_ball(Fraction(c2), e, p=p)
    same_members = True
    for t in range(p ** (max(-e, 0) + 1)):
        x = from_rational(Fraction(t), p, 12)
        if contains(b1, x) != contains(b2, x):
            same_members = False
            break
    assert (b1 == b2) == same_members


# Windowed references: contains, locate_cell and canonical_ball on a PAdic
# in windowed arithmetic, by embedding the center into x's window and
# subtracting.  The library reads a PAdic as the exact rational unit*p^v
# with a window end and runs its exact code; the property below holds it
# to the same answers and messages.
def _windowed_contains(region, x):
    if x.p != region.p:
        raise InputError(f"mixed primes: {x.p} and {region.p}")
    d = x - embed(region.center, region.p, x.known_mod)
    lo = -region.e
    if isinstance(region, Ball):
        if d.is_zero:
            return True
        if d.is_flagged:
            if d.v >= lo:
                return True
            raise InsufficientPrecision(
                f"|x - center| only bounded by p^{-d.v}, radius p^{region.e}"
            )
        return d.v >= lo
    if d.is_zero:
        return False
    if d.is_flagged:
        if d.v > lo:
            return False
        raise InsufficientPrecision(
            f"x - center ≡ 0 mod p^{d.v}: sphere membership undecidable"
        )
    return d.v == lo


def _windowed_locate_cell(s, k, x):
    if not _windowed_contains(s, x):
        raise NotOnSphere(f"point has |x - c| != p^{s.e}")
    d = x - embed(s.center, s.p, x.known_mod)
    if d.n < k:
        raise InsufficientPrecision(f"need {k} digits of x - center, have {d.n}")
    return CellIndex(k, digits_index(s.p, d.digits[:k]))


def _windowed_canonical_ball(c, e):
    p, lo = c.p, -e
    if c.is_zero:
        return Ball(p, e, Fraction(0))
    if c.known_mod < lo:
        raise InsufficientPrecision(f"center known mod p^{c.known_mod}, need p^{lo}")
    if c.is_flagged or c.v >= lo:
        return Ball(p, e, Fraction(0))
    return Ball(p, e, Fraction(c.unit % p ** (lo - c.v)) * Fraction(p) ** c.v)


@st.composite
def windowed_points(draw):
    """A sphere (center 0 or with a p-adic denominator) and a PAdic point:
    a 1-9 digit window near the center, an arbitrary window, a flagged
    zero, the exact zero, or a point over another prime."""
    p = draw(primes)
    e = draw(st.integers(-3, 3))
    center = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 2, 3, p, p * p])))
    s = Sphere(p, e, center)
    kind = draw(st.sampled_from(["near", "near", "near", "window", "flagged", "zero", "mixed"]))
    if kind == "zero":
        return s, PAdic.zero(p)
    if kind == "flagged":
        return s, PAdic.flagged_zero(p, draw(st.integers(-e - 4, -e + 6)))
    if kind == "mixed":
        return s, from_rational(1, 11 if p == 7 else 7, 4)
    n = draw(st.integers(1, 9))
    if kind == "window":
        unit = draw(st.integers(1, p ** n - 1).filter(lambda u: u % p != 0))
        return s, PAdic(p, draw(st.integers(-e - 4, -e + 6)), unit, n)
    step = Fraction(p) ** draw(st.integers(-e - 2, -e + 8))
    return s, from_rational(center + step * draw(st.integers(0, p ** 3)), p, n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PadicError as err:
        return type(err), str(err)


@settings(max_examples=400)
@given(windowed_points(), st.integers(1, 10))
def test_windowed_points_take_the_exact_path(case, k):
    s, x = case
    for region in (s, canonical_ball(s.center, s.e, p=s.p),
                   canonical_ball(s.center, s.e - k, p=s.p)):
        assert _outcome(contains, region, x) == _outcome(_windowed_contains, region, x)
    assert _outcome(locate_cell, s, k, x) == _outcome(_windowed_locate_cell, s, k, x)
    for e in (s.e, s.e - k, s.e + k):
        assert _outcome(canonical_ball, x, e) == _outcome(_windowed_canonical_ball, x, e)
