import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, strategies as st

from padicdyn import dynamics, selftest
from padicdyn.dynamics import (
    CycleStructure,
    certify_isometry,
    compute_rho,
    cycle_structure,
    derivative_norm,
    ergodicity_verdict,
    induced_cell_map,
    minimal_invariant_ball,
    orbit,
    verify_isometry,
)
from padicdyn.errors import (
    DivisionByZero,
    InputError,
    InvarianceFailed,
    NotPermutation,
    PadicError,
    PrecisionError,
    ResourceLimit,
)
from padicdyn.geometry import (
    Sphere,
    canonical_ball,
    cell_center,
    cell_count,
    clopen,
    digits_index,
    embed,
    index_digits,
    locate_cell,
    unit_residue,
)
from padicdyn.mapdsl import eval_map, make_map, parse_map
from padicdyn.measure import haar_clopen, haar_sphere
from padicdyn.padic import rational_valuation


def unit_sphere(p):
    return Sphere(p, 0, 0)


def test_isometry_check_translations_and_scalings():
    s = unit_sphere(2)
    assert verify_isometry(s, parse_map("x+2"), trials=60).passed
    assert verify_isometry(s, parse_map("3x"), trials=60).passed
    rep = verify_isometry(unit_sphere(3), parse_map("x^2"), trials=60)
    assert not rep.passed
    assert set(rep.witness) >= {"x", "y"}


def test_isometry_check_catches_escape():
    # 3x triples the valuation's complement on Q3 units: images land on S_{1/3}
    rep = verify_isometry(unit_sphere(3), parse_map("3x"), trials=20)
    assert not rep.passed
    assert "sphere" in rep.witness["note"]


def test_rho_survey():
    s2 = unit_sphere(2)
    r = compute_rho(s2, parse_map("x+2"), trials=40)
    assert (r.kind, r.rho_exp) == ("Constant", -1)
    r = compute_rho(s2, parse_map("x+4"), trials=40)
    assert (r.kind, r.rho_exp) == ("Constant", -2)
    r = compute_rho(unit_sphere(3), parse_map("3-x"), trials=40)
    assert (r.kind, r.rho_exp) == ("Constant", 0)


def test_rho_fixed_point_witness():
    r = compute_rho(unit_sphere(3), parse_map("1/x"), trials=40)
    assert r.kind == "ZeroSomewhere"
    assert r.witness["x"] == "3:0:1," + ",".join("0" * 31)


def test_rho_nonconstant_witness():
    # x^2 doubles some displacements on Q2 units: |x^2 - x| = |x - 1|
    r = compute_rho(unit_sphere(2), parse_map("x^2+2"), trials=60)
    assert r.kind == "NonConstant"
    assert set(r.witness) >= {"x", "y"}


def test_derivative_norm_is_one_for_isometries():
    s = unit_sphere(2)
    x = embed(5, 2)
    assert derivative_norm(parse_map("x+2"), x, 4) == 0
    assert derivative_norm(parse_map("3x"), x, 4) == 0
    assert derivative_norm(parse_map("x^2"), embed(1, 3), 5) == 0
    # stable across increments once past the stabilization threshold
    for h in (3, 7, 11):
        assert derivative_norm(parse_map("1/x"), embed(2, 3), h) == 0


def test_orbit_periodic():
    rec = orbit(parse_map("3-x"), embed(1, 3), 10)
    assert (rec.period, rec.offset) == (2, 0)
    assert str(rec.points[0]).startswith("3:0:1")
    assert str(rec.points[1]).startswith("3:0:2")
    assert rec.displacement_exps == (0, 0)


def test_orbit_translation_is_aperiodic():
    rec = orbit(parse_map("x+2"), embed(1, 2), 200)
    assert rec.period is None
    assert set(rec.displacement_exps) == {-1}
    assert len(rec.points) == 201


def test_induced_cell_map_values():
    s = unit_sphere(2)
    f = parse_map("3x")
    assert induced_cell_map(s, f, 1) == [0]
    assert induced_cell_map(s, f, 2) == [1, 0]
    assert induced_cell_map(s, f, 3) == [2, 3, 0, 1]
    # odometer step on centers 1,5,3,7: +2 sends 1->3, 5->7, 3->5, 7->1
    assert induced_cell_map(s, parse_map("x+2"), 3) == [2, 3, 1, 0]


def test_induced_cell_map_refuses_non_permutations():
    with pytest.raises(NotPermutation):
        induced_cell_map(unit_sphere(3), parse_map("x^2"), 1)
    with pytest.raises(NotPermutation):
        induced_cell_map(unit_sphere(3), parse_map("3x"), 1)
    with pytest.raises(ResourceLimit):
        induced_cell_map(unit_sphere(3), parse_map("x+3"), 9, cap=100)


def test_cycle_structure_shapes():
    cs = cycle_structure([2, 3, 0, 1], 3)
    assert cs == CycleStructure(3, (2, 2), ((0, 2), (1, 3)))
    cs = cycle_structure([1, 2, 3, 0], 3)
    assert cs.lengths == (4,)


def test_minimal_invariant_ball():
    s = unit_sphere(2)
    x0 = embed(1, 2)
    b = minimal_invariant_ball(s, parse_map("x+2"), -1, x0)
    assert b == canonical_ball(1, -1, p=2)
    b = minimal_invariant_ball(s, parse_map("x+4"), -2, x0)
    assert b == canonical_ball(1, -2, p=2)
    b = minimal_invariant_ball(unit_sphere(3), parse_map("4x"), -1, embed(1, 3))
    assert b == canonical_ball(1, -1, p=3)
    b = minimal_invariant_ball(unit_sphere(3), parse_map("3-x"), 0, embed(1, 3))
    assert b == canonical_ball(0, 0, p=3)
    with pytest.raises(InvarianceFailed):
        minimal_invariant_ball(s, parse_map("x+2"), -2, x0)


def test_no_finer_invariant_cell():
    # displacement 1/4 fixes the level-2 cell of 1 but no level-3 cell
    s = unit_sphere(2)
    f = parse_map("x+4")
    assert induced_cell_map(s, f, 2)[0] == 0
    assert induced_cell_map(s, f, 3)[0] != 0


def test_verdict_ergodic_translation():
    v = ergodicity_verdict(unit_sphere(2), parse_map("x+2"), max_level=12)
    assert v.verdict == "ErgodicUpToLevel"
    assert v.level == 12
    assert v.criterion == 1
    assert v.rho_exp == -1
    assert not v.rho_equals_radius
    d = v.as_dict()
    assert d == {
        "verdict": "ErgodicUpToLevel",
        "rho": "2^-1",
        "criterion_value": "1",
        "level": 12,
    }


def test_verdict_cycle_split():
    v = ergodicity_verdict(unit_sphere(2), parse_map("3x"), max_level=6)
    assert (v.verdict, v.reason, v.level) == ("NotErgodic", "CycleSplit", 3)
    assert v.cycles.cycles == ((0, 2), (1, 3))
    assert v.invariant_measure == Fraction(1, 2)
    assert v.as_dict()["cycles"] == [2, 2]


def test_cycle_split_materializes_invariant_set():
    s = unit_sphere(2)
    f = parse_map("3x")
    v = ergodicity_verdict(s, f, max_level=6)
    cyc = min(v.cycles.cycles, key=len)
    cells = [canonical_ball(Fraction(1 + sum(
        t * 2 ** i for i, t in enumerate(index_digits(2, v.level, j)[1:], start=1))),
        -v.level, p=2) for j in cyc]
    # exact rational check: 3*center stays in the union
    images = {canonical_ball(3 * b.center, b.e, p=2) for b in cells}
    assert images == set(cells)
    mu = haar_clopen(clopen(s, cells))
    assert 0 < mu < haar_sphere(s)


def test_verdict_measure_criterion():
    v = ergodicity_verdict(unit_sphere(2), parse_map("x+4"), max_level=4)
    assert (v.verdict, v.reason) == ("NotErgodic", "MeasureCriterion")
    assert v.criterion == Fraction(1, 2)
    v = ergodicity_verdict(unit_sphere(3), parse_map("x+3"), max_level=4)
    assert v.criterion == Fraction(1, 2)
    assert v.as_dict()["criterion_value"] == "1/2"


def test_verdict_radius_displacement():
    v = ergodicity_verdict(unit_sphere(3), parse_map("3-x"), max_level=4)
    assert (v.verdict, v.reason) == ("NotErgodic", "MeasureCriterion")
    assert v.criterion == Fraction(3, 2)
    assert v.rho_equals_radius


def test_verdict_rejects_non_isometry_and_fixed_points():
    v = ergodicity_verdict(unit_sphere(3), parse_map("x^2"), max_level=3)
    assert v.verdict == "NotIsometry"
    assert v.witness is not None
    v = ergodicity_verdict(unit_sphere(3), parse_map("1/x"), max_level=3)
    assert (v.verdict, v.reason) == ("AssumptionViolated", "ZeroSomewhere")


small_primes = st.sampled_from([2, 3, 5])


@st.composite
def translations(draw):
    p = draw(small_primes)
    m = draw(st.integers(min_value=1, max_value=3))
    u = draw(st.integers(min_value=1, max_value=p ** 3 - 1).filter(lambda t: t % p))
    return p, p ** m * u, m


@given(translations())
def test_translation_displacement_profile(tc):
    p, c, m = tc
    r = compute_rho(unit_sphere(p), make_map([Fraction(c), Fraction(1)]), trials=30)
    assert (r.kind, r.rho_exp) == ("Constant", -m)


@given(translations())
def test_translation_verdict_matches_formula(tc):
    p, c, m = tc
    v = ergodicity_verdict(unit_sphere(p), make_map([Fraction(c), Fraction(1)]),
                           max_level=4, trials=30)
    criterion = Fraction(p) ** (1 - m) / (p - 1)
    if criterion != 1:
        assert (v.verdict, v.reason) == ("NotErgodic", "MeasureCriterion")
        assert v.criterion == criterion
    else:
        assert v.verdict == "ErgodicUpToLevel"


@st.composite
def unit_scalings(draw):
    p = draw(small_primes)
    u = draw(st.integers(min_value=2, max_value=p ** 3 - 1).filter(lambda t: t % p))
    return p, u


@given(unit_scalings())
def test_quotient_compatibility(su):
    p, u = su
    s = unit_sphere(p)
    f = make_map([Fraction(0), Fraction(u)])
    k = 2
    fine = induced_cell_map(s, f, k + 1)
    coarse = induced_cell_map(s, f, k)

    def parent(j):
        return digits_index(p, index_digits(p, k + 1, j)[:k])

    for j, im in enumerate(fine):
        assert parent(im) == coarse[parent(j)]


@given(unit_scalings())
def test_scaling_orbit_displacements_constant(su):
    p, u = su
    rec = orbit(make_map([Fraction(0), Fraction(u)]), embed(1, p), 30)
    vals = [e for e in rec.displacement_exps if e is not None]
    assert len(set(vals)) <= 1


def test_trials_and_iterates_are_validated():
    s, f = unit_sphere(2), parse_map("x+2")
    for trials in (0, -5):
        with pytest.raises(InputError):
            verify_isometry(s, f, trials=trials)
        with pytest.raises(InputError):
            compute_rho(s, f, trials=trials)
        with pytest.raises(InputError):
            ergodicity_verdict(s, f, trials=trials)
    with pytest.raises(InputError):
        orbit(f, embed(1, 2), -3)
    assert orbit(f, embed(1, 2), 0).points == (embed(1, 2),)


def test_verdict_evaluates_each_sampled_point_once(monkeypatch):
    calls = []
    original = dynamics.eval_map

    def counting(f, x):
        calls.append(x)
        return original(f, x)

    monkeypatch.setattr(dynamics, "eval_map", counting)
    # x+4 is certified exactly; take the sampled path, which the
    # certificate leaves to maps it does not decide
    monkeypatch.setattr(dynamics, "certify_isometry", lambda s, f: None)
    v = ergodicity_verdict(Sphere(2, 0, 0), parse_map("x+4"), trials=40)
    assert (v.reason, v.level) == ("MeasureCriterion", None)
    # 40 trials of an (x, y) pair; the displacement survey reuses f(x)
    assert len(calls) == 80


@st.composite
def sphere_maps(draw):
    """An affine or Moebius map in sphere coordinates u = x - c:
    u -> (a u + b) / (1 + d u), with valuations around the isometry edges."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(min_value=-2, max_value=2))
    c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=p ** 2)
             .filter(lambda q: q != 0))
    unit = st.integers(min_value=1, max_value=p ** 2 - 1).filter(lambda t: t % p)

    def scaled(lo, hi):
        return draw(st.integers(min_value=-p, max_value=p)) * Fraction(p) ** draw(
            st.integers(min_value=lo, max_value=hi))

    a = draw(unit) * Fraction(p) ** draw(st.integers(min_value=0, max_value=1))
    b = scaled(-e - 1, -e + 3)
    d = scaled(e, e + 3) if draw(st.booleans()) else Fraction(0)
    num = [c - c * c * d - a * c + b, c * d + a]
    den = [1 - d * c, d]
    return Sphere(p, e, c), make_map(num, den)


@given(sphere_maps(), st.integers(min_value=0, max_value=3))
def test_verdict_reads_verify_then_rho_on_one_stream(case, seed):
    s, f = case
    iso = verify_isometry(s, f, trials=30, seed=seed)
    rho = compute_rho(s, f, trials=30, seed=seed) if iso.passed else None
    v = ergodicity_verdict(s, f, max_level=2, trials=30, seed=seed)
    if rho is None:
        assert (v.verdict, v.witness) == ("NotIsometry", iso.witness)
    elif rho.kind != "Constant":
        assert (v.verdict, v.reason, v.witness) == (
            "AssumptionViolated", rho.kind, rho.witness)
    else:
        assert v.rho_exp == rho.rho_exp
        assert v.verdict in ("NotErgodic", "ErgodicUpToLevel")


def test_pipeline_evaluates_only_exact_points(monkeypatch):
    seen = set()
    original = dynamics.eval_map

    def recording(f, x):
        seen.add(type(x))
        return original(f, x)

    monkeypatch.setattr(dynamics, "eval_map", recording)
    s, f = Sphere(3, -1, Fraction(1, 3)), parse_map("4x-1")
    verify_isometry(s, f, trials=30)
    compute_rho(s, f, trials=30)
    v = ergodicity_verdict(Sphere(2, 0, 0), parse_map("3x"), max_level=4, trials=30)
    assert v.reason == "CycleSplit"
    assert seen == {Fraction}


def test_cell_map_of_a_sphere_through_zero():
    # the level-1 cell center of S_1(-1) is -1 + 1 = 0, which the windowed
    # cell map evaluated with only the 8 guard digits and gave up at level 9
    v = ergodicity_verdict(Sphere(2, 0, -1), parse_map("x+2"), max_level=9)
    assert (v.verdict, v.level, v.rho_exp) == ("ErgodicUpToLevel", 9, -1)


def test_displacement_past_the_window_is_not_a_fixed_point():
    v = ergodicity_verdict(Sphere(2, 0, 0), parse_map("x+1099511627776"))
    assert (v.verdict, v.reason, v.rho_exp) == ("NotErgodic", "MeasureCriterion", -40)
    assert v.criterion == Fraction(1, 549755813888)


def _windowed_cell_map(s, f, k, guard=8):
    """Reference cell map in windowed arithmetic: each cell center embedded
    k + guard digits past the radius, f evaluated on the PAdic value, the
    image located by its known digits."""
    images = []
    for j in range(cell_count(s.p, k)):
        c = embed(cell_center(s, k, j), s.p, -s.e + k + guard)
        try:
            images.append(locate_cell(s, k, eval_map(f, c)).j)
        except InputError:
            raise NotPermutation("image of cell %d leaves the sphere" % j) from None
    if sorted(images) != list(range(len(images))):
        raise NotPermutation("level %d images are not a permutation" % k)
    return images


@given(sphere_maps(), st.integers(min_value=1, max_value=3))
def test_cell_map_matches_the_windowed_reference(case, k):
    s, f = case
    try:
        want = _windowed_cell_map(s, f, k)
    except (PrecisionError, DivisionByZero):
        return
    except NotPermutation:
        with pytest.raises(NotPermutation):
            induced_cell_map(s, f, k)
        return
    assert induced_cell_map(s, f, k) == want


def test_residue_oracle_reduces_rational_coefficients():
    f = parse_map("1/2*x")
    assert selftest._residue_cell_map(3, 2, f.num, f.den) == [4, 3, 5, 0, 2, 1]
    assert selftest._residue_cell_map(3, 2, f.num, f.den) == induced_cell_map(unit_sphere(3), f, 2)
    g = parse_map("x+3/2")
    with pytest.raises(ValueError):
        selftest._residue_cell_map(2, 2, g.num, g.den)


def test_minimal_ball_criterion_reads_every_cell(monkeypatch):
    real = selftest.criterion_minimal_ball()
    assert real.passed and real.detail == (
        "V[2^-2](1) fixed at level 2, no fixed level-3 cell")
    # x+4 on S_1(0) over Q_2: the level-2 map is the identity and no level-3
    # cell is fixed; a map that fixes only cell 1 at level 3 must be caught
    for maps in ({2: [0, 1], 3: [2, 1, 3, 0]}, {2: [1, 0], 3: [1, 2, 3, 0]}):
        monkeypatch.setattr(selftest, "induced_cell_map", lambda s, f, k, m=maps: m[k])
        assert not selftest.criterion_minimal_ball().passed, maps


def test_cell_map_reports_an_escape_before_a_collision():
    with pytest.raises(NotPermutation, match="cells 0 and 1 at level 1 share image cell 0"):
        induced_cell_map(unit_sphere(3), parse_map("x^2"), 1)
    # x^2+x over Q_5: cells 0 and 2 share image cell 1, and cell 3 leaves
    with pytest.raises(NotPermutation, match="image of cell 3 at level 1 leaves the sphere"):
        induced_cell_map(unit_sphere(5), parse_map("x^2+x"), 1)


def _fraction_cell_map(s, f, k):
    """Reference cell map on exact rationals: f evaluated on each cell
    center by eval_map, the image located by locate_cell; escapes are
    reported in cell order, then collisions."""
    images = []
    for j in range(cell_count(s.p, k)):
        fx = eval_map(f, cell_center(s, k, j))
        try:
            images.append(locate_cell(s, k, fx).j)
        except InputError as err:
            raise NotPermutation(
                "image of cell %d at level %d leaves the sphere" % (j, k)) from err
    hit = {}
    for j, im in enumerate(images):
        if im in hit:
            raise NotPermutation(
                "cells %d and %d at level %d share image cell %d" % (hit[im], j, k, im))
        hit[im] = j
    return images


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PadicError as err:
        return type(err), str(err)


# u -> u/(1 - u) in sphere coordinates u = x - 1/3 on S_1(1/3) over Q_3:
# the pole u = 1 is the center of cell 0 at every level
_POLE = (Sphere(3, 0, Fraction(1, 3)),
         make_map([Fraction(1, 9), Fraction(2, 3)], [Fraction(4, 3), -1]))


@example(_POLE, 2)
@given(sphere_maps(), st.integers(min_value=1, max_value=4))
def test_integer_kernel_matches_the_fraction_cell_map(case, k):
    s, f = case
    assert _outcome(induced_cell_map, s, f, k) == _outcome(_fraction_cell_map, s, f, k)


def test_integer_kernel_reports_a_pole_at_a_center():
    s, f = _POLE
    with pytest.raises(DivisionByZero, match="inverse of a value not certified nonzero"):
        induced_cell_map(s, f, 1)


def test_integer_kernel_on_a_deep_moebius_map():
    # T/(6T+1) with T = 4(x - 2), moved onto S_4(2) over Q_2: an
    # inversion-conjugate of T + 6, a single cycle at every level
    s, f = Sphere(2, 2, 2), make_map([-96, 49], [-47, 24])
    perm = induced_cell_map(s, f, 10)
    assert perm == _fraction_cell_map(s, f, 10)
    assert cycle_structure(perm, 10).lengths == (512,)


def test_cell_map_accepts_guard_and_refuses_level_zero():
    s, f = unit_sphere(2), parse_map("5x+2")
    assert induced_cell_map(s, f, 6, guard=16) == induced_cell_map(s, f, 6)
    with pytest.raises(InputError):
        induced_cell_map(s, f, 0)


def test_verdict_renders_no_displacement_profile(monkeypatch):
    rendered = []
    original = dynamics._witness

    def recording(s, depth, x):
        rendered.append(x)
        return original(s, depth, x)

    monkeypatch.setattr(dynamics, "_witness", recording)
    v = ergodicity_verdict(Sphere(2, 0, 0), parse_map("x+2"), max_level=4, trials=40)
    assert v.verdict == "ErgodicUpToLevel" and rendered == []
    r = compute_rho(Sphere(2, 0, 0), parse_map("x+2"), trials=40)
    assert len(r.profile) == len(rendered) == 40
    assert all(isinstance(x, str) for x, _ in r.profile)


def _sampled_verdict(s, f, max_level, trials=200, seed=0):
    """Reference verdict with sampled stages 1-2: verify_isometry's exact
    pairs decide the isometry, and the displacement is read from f(x) on
    the same pairs; the measure criterion and the cell levels follow."""
    if max_level < 1:
        raise InputError("max_level must be at least 1")
    top = cell_count(s.p, max_level)
    if top > 10 ** 6:
        raise ResourceLimit("level %d needs %d cells, cap is %d" % (max_level, top, 10 ** 6))
    iso = verify_isometry(s, f, trials=trials, seed=seed)
    if not iso.passed:
        return dynamics.ErgodicityVerdict("NotIsometry", s.p, reason="IsometryFailed",
                                          witness=iso.witness)
    rho = dynamics._displacements(s, iso.images, 32)
    if rho.kind != "Constant":
        return dynamics.ErgodicityVerdict("AssumptionViolated", s.p, reason=rho.kind,
                                          witness=rho.witness)
    flat = rho.rho_exp == s.e
    criterion = Fraction(s.p) ** (1 + rho.rho_exp - s.e) / (s.p - 1)
    if criterion != 1:
        return dynamics.ErgodicityVerdict("NotErgodic", s.p, reason="MeasureCriterion",
                                          rho_exp=rho.rho_exp, criterion=criterion,
                                          rho_equals_radius=flat)
    for k in range(1, max_level + 1):
        perm = induced_cell_map(s, f, k)
        cs = cycle_structure(perm, k)
        if len(cs.cycles) >= 2:
            mu = dynamics._cycle_invariant_measure(s, cs, perm)
            return dynamics.ErgodicityVerdict(
                "NotErgodic", s.p, reason="CycleSplit", rho_exp=rho.rho_exp,
                criterion=criterion, level=k, cycles=cs, rho_equals_radius=flat,
                invariant_measure=mu)
    return dynamics.ErgodicityVerdict("ErgodicUpToLevel", s.p, rho_exp=rho.rho_exp,
                                      criterion=criterion, level=max_level,
                                      rho_equals_radius=flat)


def _verdict_outcome(fn, *args, **kw):
    try:
        v = fn(*args, **kw)
    except PadicError as err:
        return type(err), str(err)
    return v.as_dict(), v.invariant_measure, v.rho_equals_radius


@st.composite
def polynomial_maps(draw):
    """A quadratic or cubic g in sphere coordinates t = p^e (x - c), moved
    onto S_{p^e}(c) with c != 0: f(x) = c + p^-e g(p^e (x - c)).  B = 1,
    so every such map has good reduction; the coefficients sit near the
    isometry edges (a1 a unit or not, a2 and a3 divisible by p or not)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(min_value=-2, max_value=2))
    c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=p ** 2)
             .filter(lambda q: q != 0))

    def coeff(lo):
        return draw(st.integers(min_value=-2 * p, max_value=2 * p)) * p ** draw(
            st.integers(min_value=lo, max_value=lo + 2))

    g = [coeff(0), draw(st.integers(min_value=1, max_value=p ** 2)), coeff(0), coeff(0)]
    g = g[:draw(st.sampled_from([3, 4]))]
    scale = Fraction(p) ** e
    num = [sum(a * scale ** i * math.comb(i, j) * (-c) ** (i - j)
               for i, a in enumerate(g) if i >= j) / scale for j in range(len(g))]
    num[0] += c
    return Sphere(p, e, c), make_map(num)


verdict_cases = st.one_of(sphere_maps(), polynomial_maps())


@given(verdict_cases, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
def test_certified_verdict_matches_the_sampled_stages(case, level, seed):
    s, f = case
    assert _verdict_outcome(ergodicity_verdict, s, f, max_level=level, trials=40, seed=seed) \
        == _verdict_outcome(_sampled_verdict, s, f, level, trials=40, seed=seed)


@example((unit_sphere(3), parse_map("x^3")))
@example((unit_sphere(3), parse_map("x^2")))
@example((unit_sphere(5), parse_map("x^2+x")))
@given(verdict_cases)
def test_certificate_agrees_with_sampling(case):
    # a map the certificate refutes that sampling passes would be a false
    # pass of the sampled stages; none is known
    s, f = case
    cert = certify_isometry(s, f)
    if cert is not None:
        assert verify_isometry(s, f).passed == cert


def _count_calls(monkeypatch):
    calls = {"eval_map": 0, "draw": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dynamics, name, counting)
    return calls


@pytest.mark.parametrize("s, f, want", [
    (unit_sphere(2), parse_map("x+2"), ("ErgodicUpToLevel", None)),
    (unit_sphere(2), parse_map("3x"), ("NotErgodic", "CycleSplit")),
    (Sphere(2, 2, 2), make_map([-96, 49], [-47, 24]), ("ErgodicUpToLevel", None)),
    (Sphere(3, -1, Fraction(1, 3)), parse_map("4x-1"), ("NotErgodic", "MeasureCriterion")),
    (unit_sphere(3), make_map([0, 3], [3, 9]), ("NotErgodic", "MeasureCriterion")),
])
def test_certified_verdict_samples_nothing(monkeypatch, s, f, want):
    calls = _count_calls(monkeypatch)
    v = ergodicity_verdict(s, f, max_level=6)
    assert (v.verdict, v.reason) == want
    assert calls == {"eval_map": 0, "draw": 0}


def test_certificate_reads_reduced_coordinates():
    # 3x/(3 + 9x) = x/(1 + 3x): A and B share the factor 3, and only the
    # reduced B = 1 + 3t is a unit at every unit residue
    s, f = unit_sphere(3), make_map([0, 3], [3, 9])
    assert dynamics._sphere_coordinates(s, f) == ([1, 0], [3, 1])
    assert certify_isometry(s, f) is True
    assert dynamics._certified_rho(s, f) == -1
    # x^3 over Q_3 is a bijection mod 3 with derivative 3x^2 = 0 mod 3
    assert certify_isometry(unit_sphere(3), parse_map("x^3")) is False
    assert not verify_isometry(unit_sphere(3), parse_map("x^3")).passed
    # 1/x: B = t is a unit on the units; x^2 over Q_3 is not injective mod 3;
    # x^2 + x over Q_5 sends the residue 4 to 0
    assert certify_isometry(unit_sphere(3), parse_map("1/x")) is True
    assert certify_isometry(unit_sphere(3), parse_map("x^2")) is False
    assert certify_isometry(unit_sphere(5), parse_map("x^2+x")) is False


def _ref_shift_poly(coeffs, c, h):
    return [h ** j * sum(a * math.comb(i, j) * c ** (i - j) for i, a in enumerate(coeffs[j:], j))
            for j in range(len(coeffs))]


def _ref_sphere_coordinates(s, f):
    """Reference A, B from Fraction Taylor shifts, cleared of denominators
    but not of their common content."""
    scale = Fraction(s.p) ** s.e
    num = _ref_shift_poly(f.num, s.center, 1 / scale)
    den = _ref_shift_poly(f.den, s.center, 1 / scale)
    top = [scale * (n - s.center * d) for n, d in zip_longest(num, den, fillvalue=0)]
    lcm = math.lcm(*(q.denominator for q in top + den))
    return ([q.numerator * (lcm // q.denominator) for q in reversed(top)],
            [q.numerator * (lcm // q.denominator) for q in reversed(den)])


def _ref_reduced_coordinates(s, f):
    p = s.p
    top, bottom = _ref_sphere_coordinates(s, f)
    while all(q % p == 0 for q in top + bottom):
        top, bottom = [q // p for q in top], [q // p for q in bottom]
    return top, bottom


def _ref_good_reduction(s, f):
    """The reference pair with its common p-content divided out, when B(t)
    is a unit at every unit residue t mod p; None otherwise."""
    top, bottom = _ref_reduced_coordinates(s, f)
    if any(dynamics._horner(bottom, t) % s.p == 0 for t in range(1, s.p)):
        return None
    return top, bottom


def _ref_certify_isometry(s, f):
    coords = _ref_good_reduction(s, f)
    if coords is None:
        return None
    p, (top, bottom) = s.p, coords
    horner = dynamics._horner
    d_top, d_bottom = dynamics._derivative(top), dynamics._derivative(bottom)
    images = set()
    for t in range(1, p):
        a, b = horner(top, t), horner(bottom, t)
        if a % p == 0 or (horner(d_top, t) * b - a * horner(d_bottom, t)) % p == 0:
            return False
        images.add(unit_residue(a, b, p))
    return len(images) == p - 1


def _ref_certified_rho(s, coords):
    top, bottom = coords
    h = [a - b for a, b in zip_longest(top[::-1], [0, *bottom[::-1]], fillvalue=0)]
    v = dynamics._unit_valuation(h, s.p)
    return None if v is None else s.e - v


@st.composite
def coordinate_cases(draw):
    """A sphere with e in [-3, 3] and a center of denominator 1, 3, p, p^2
    or 7p^3, and a map N/D with deg N <= 4, deg D <= 2 whose coefficients
    have denominators p^k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(min_value=-3, max_value=3))
    c = Fraction(draw(st.integers(min_value=-40, max_value=40)),
                 draw(st.sampled_from([1, 3, p, p ** 2, 7 * p ** 3])))
    coeff = st.builds(lambda n, k: Fraction(n, p ** k),
                      st.integers(min_value=-2 * p ** 2, max_value=2 * p ** 2),
                      st.integers(min_value=0, max_value=2))
    num = draw(st.lists(coeff, min_size=1, max_size=5))
    den = draw(st.lists(coeff, min_size=1, max_size=3).filter(any))
    return Sphere(p, e, c), make_map(num, den)


@example((unit_sphere(3), make_map([0, 3], [3, 9])))
@example((Sphere(2, 1, Fraction(1, 3)), parse_map("3x")))
@example((Sphere(2, 2, 2), make_map([-96, 49], [-47, 24])))
@given(coordinate_cases())
def test_integer_coordinates_match_the_fraction_reference(case):
    s, f = case
    top, bottom = dynamics._sphere_coordinates(s, f)
    ref_top, ref_bottom = _ref_reduced_coordinates(s, f)
    assert all(type(q) is int for q in top + bottom)
    # the same pair up to a p-unit scalar, so A B_ref = A_ref B
    scale = next(Fraction(b, r) for b, r in zip(bottom, ref_bottom) if r)
    assert rational_valuation(scale, s.p) == 0
    assert ([scale * q for q in ref_top], [scale * q for q in ref_bottom]) == (top, bottom)
    assert certify_isometry(s, f) is _ref_certify_isometry(s, f)
    coords = _ref_good_reduction(s, f)
    if coords is not None:
        assert dynamics._certified_rho(s, f) == _ref_certified_rho(s, coords)


def test_integer_coordinates_on_an_offset_sphere():
    # 3x on S_2(1/3) over Q_2: x = 1/3 + t/2, so 2 (f(x) - 1/3) = 4/3 + 3t;
    # the construction gives A = 24 + 54t, B = 18, whose content 6 goes
    s, f = Sphere(2, 1, Fraction(1, 3)), parse_map("3x")
    assert dynamics._sphere_coordinates(s, f) == ([9, 4], [3])
    # A(1) = 13 and A' B = 27 are odd; h = A - tB = 2 (3t + 2), so
    # |f(x) - x| = 2 |2 (3t + 2)| = 1
    assert certify_isometry(s, f) is True
    assert dynamics._certified_rho(s, f) == 0


_FALLBACKS = [
    # B = 1 + t vanishes mod 2 at t = 1: no good reduction (3x with a
    # removable pole at -1, which no finite digit sum reaches)
    (unit_sphere(2), make_map([0, 3, 3], [1, 1]), None, None,
     {"verdict": "NotErgodic", "reason": "CycleSplit", "rho": "2^-1",
      "criterion_value": "1", "level": 3, "cycles": [2, 2]}),
    # an isometry with the unit fixed points 1 and -1
    (unit_sphere(3), parse_map("1/x"), True, None,
     {"verdict": "AssumptionViolated", "reason": "ZeroSomewhere",
      "witness": {"x": "3:0:" + ",".join(["1"] + ["0"] * 31)}}),
    # (p+1)x + p: |f(x) - x| = |p(x + 1)| is 3^-1 off x = 2 mod 3 and
    # smaller on it, down to the fixed point -1, where the descent stops
    (unit_sphere(3), parse_map("4x+3"), True, None,
     {"verdict": "AssumptionViolated", "reason": "NonConstant", "witness": {
         "x": "3:0:" + ",".join(["1"] + ["0"] * 31),
         "y": "3:0:" + ",".join(["2"] + ["0"] * 31),
         "note": "displacements p^-1 and p^-2"}}),
    (unit_sphere(2), parse_map("3x+2"), True, None, None),
    # h = 3(t^2 + t + 1) has no root in Z_3; its classes settle at 3^-2 on
    # x = 1 mod 3 and at 3^-1 on x = 2 mod 3
    (unit_sphere(3), parse_map("3x^2+4x+3"), True, None,
     {"verdict": "AssumptionViolated", "reason": "NonConstant", "witness": {
         "x": "3:0:" + ",".join(["1"] + ["0"] * 31),
         "y": "3:0:" + ",".join(["2"] + ["0"] * 31),
         "note": "displacements p^-2 and p^-1"}}),
    # the fixed points +-sqrt(17) are units of Z_2: the descent reaches its cap
    (unit_sphere(2), parse_map("x^2+x-17"), True, None, None),
    (unit_sphere(3), parse_map("x^2"), False, None,
     {"verdict": "NotIsometry", "reason": "IsometryFailed", "witness": {
         "x": "3:0:" + ",".join(["1"] + ["0"] * 31),
         "y": "3:0:2,1,0,1,2,1,1,1,1,1,2,0,2,0,1,0,0,2,1,2,2,2,0,1,0,2,0,2,1,1,2,0",
         "note": "distance p^0 mapped to p^-1"}}),
]


@pytest.mark.parametrize("s, f, cert, rho, frozen", _FALLBACKS)
def test_undecided_maps_keep_the_sampled_verdict(s, f, cert, rho, frozen):
    assert certify_isometry(s, f) is cert
    if cert:
        assert dynamics._certified_rho(s, f) is rho
    got = _verdict_outcome(ergodicity_verdict, s, f, max_level=5)
    assert got == _verdict_outcome(_sampled_verdict, s, f, 5)
    if frozen is not None:
        assert got[0] == frozen


@pytest.mark.parametrize("s, f", [
    (unit_sphere(3), parse_map("4x+3")),
    (unit_sphere(3), parse_map("1/x")),
    # (p+1)x + p off the unit sphere: -1 lies on S_{3^-1}(2) and on S_5(1/5)
    (Sphere(3, -1, 2), parse_map("4x+3")),
    (Sphere(5, 1, Fraction(1, 5)), parse_map("6x+5")),
])
def test_certified_isometry_reads_the_witness_lazily(monkeypatch, s, f):
    # the certificate proves the isometry and leaves the displacement open:
    # the verdict skips verify_isometry and evaluates f on the x stream of
    # the survey only up to the displacement witness
    assert certify_isometry(s, f) is True
    assert dynamics._certified_rho(s, f) is None
    want = _verdict_outcome(_sampled_verdict, s, f, 5)
    xs = [dynamics._witness(s, 32, x) for x, _ in dynamics._survey(s, 200, 0, 32)]

    def refuse(*args, **kwargs):
        raise AssertionError("verify_isometry runs on a certified isometry")

    monkeypatch.setattr(dynamics, "verify_isometry", refuse)
    calls = _count_calls(monkeypatch)
    got = _verdict_outcome(ergodicity_verdict, s, f, max_level=5)
    assert got == want
    verdict = got[0]
    assert verdict["verdict"] == "AssumptionViolated"
    last = verdict["witness"]["y" if verdict["reason"] == "NonConstant" else "x"]
    assert calls["eval_map"] == xs.index(last) + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_displacement_descent_settles_each_class_at_its_valuation(p):
    # h = p t + p^2 (t - 1)^2 has valuation 1 at every unit, beyond the
    # content p of its coefficients; p (t + 1) has the unit root -1
    assert dynamics._unit_valuation([p ** 2, p - 2 * p ** 2, p ** 2], p) == 1
    assert dynamics._unit_valuation([p, p], p) is None
    assert dynamics._unit_valuation([p ** 3], p) == 3


def test_displacement_descent_refuses_classes_of_different_valuation():
    # t^2 + t + 1 has no root in Z_3; both classes settle at depth 1, at
    # valuation 1 on t = 1 mod 3 and 0 on t = 2 mod 3
    assert dynamics._unit_valuation([1, 1, 1], 3) is None
    assert dynamics._unit_valuation([3, 3, 3], 3) is None
