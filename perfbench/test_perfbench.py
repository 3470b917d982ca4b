"""Tests of the benchmark itself: oracle, request lists, failure accounting.

    python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def _lib():
    """The library as the runner sees it, without the runner's fresh re-import
    (which would swap padicdyn's modules under the other tests of the same run)."""
    return SimpleNamespace(**{m: importlib.import_module("padicdyn." + m) for m in run.MODULES})


def _unit_sphere_map(p, num, den=(1,)):
    return oracle.SphereMap(p, 0, 0, num, den)


# ------------------------------------------------------------ oracle

def test_translation_by_two_is_one_cycle_at_every_level():
    m = _unit_sphere_map(2, [2, 1])
    for k in range(1, 9):
        assert oracle.cycle_lengths(m.cell_perm(k)) == (2 ** (k - 1),)
    assert oracle.expected_verdict(m, 8) == [
        {"verdict": "ErgodicUpToLevel", "rho": "2^-1", "criterion_value": "1",
         "level": 8, "witness": False}]


def test_three_x_splits_two_two_at_level_three():
    m = _unit_sphere_map(2, [0, 3])
    assert oracle.cycle_lengths(m.cell_perm(2)) == (2,)
    assert oracle.cycle_lengths(m.cell_perm(3)) == (2, 2)
    (want,) = oracle.expected_verdict(m, 6)
    assert (want["reason"], want["level"], want["cycles"]) == ("CycleSplit", 3, [2, 2])
    assert want["invariant_measure"] == "1/2"


def test_inversion_on_q3_has_fixed_point_one():
    m = _unit_sphere_map(3, [1], [0, 1])
    assert F(1) in m.fixed_points()
    reasons = {v["reason"] for v in oracle.expected_verdict(m, 4)}
    assert "ZeroSomewhere" in reasons


def test_affine_criterion_and_displacement():
    # x + 2^40 on S_1(0): rho = 2^-40, criterion 2^-39 (ROADMAP item 4)
    m = _unit_sphere_map(2, [2 ** 40, 1])
    assert m.displacement() == ("constant", -40)
    (want,) = oracle.expected_verdict(m, 4)
    assert want["reason"] == "MeasureCriterion"
    assert want["criterion_value"] == str(F(1, 2 ** 39))
    # x + 3 over Q_3: criterion 1/(p-1)
    (want,) = oracle.expected_verdict(_unit_sphere_map(3, [3, 1]), 4)
    assert want["criterion_value"] == "1/2"
    # (p+1)x + p fixes -1, so its displacement is not constant
    assert _unit_sphere_map(5, [5, 6]).displacement() == ("nonconstant", True)


def test_conjugation_moves_a_verdict_onto_a_shifted_sphere():
    # x + 4 on S_{1/2}(1): the conjugate of x + 2 on S_1(0)
    num, den = workloads.conjugate(2, -1, 1, [2, 1], [1])
    assert (num, den) == ((F(4), F(1)), (F(1),))
    m = oracle.SphereMap(2, -1, 1, num, den)
    (want,) = oracle.expected_verdict(m, 6)
    assert (want["verdict"], want["rho"]) == ("ErgodicUpToLevel", "2^-2")
    # Moebius conjugates stay ergodic and keep their cycle structure
    num, den = workloads.conjugate(2, 2, F(5, 3), [0, 1], [1, 2])
    m = oracle.SphereMap(2, 2, F(5, 3), num, den)
    for k in range(1, 7):
        assert oracle.cycle_lengths(m.cell_perm(k)) == (2 ** (k - 1),)


def test_cell_permutations_match_the_library_cell_by_cell():
    lib = _lib()
    reqs = workloads.generate("verdict_deep", 4)[0] + [
        r for r in workloads.generate("verdict_sweep", 4)[0] if r.p == 2 and r.op == "ergodic"]
    for req in reqs:
        m = workloads._sphere_map(req)
        if not m.is_isometry() or m.displacement()[0] != "constant":
            continue
        s = lib.geometry.Sphere(req.p, req.e, req.c)
        f = lib.mapdsl.parse_map(req.map_text)
        for k in range(1, 6):
            assert m.cell_perm(k) == lib.dynamics.induced_cell_map(s, f, k), req.describe()


def test_square_is_an_isometry_only_where_x_plus_y_stays_a_unit():
    assert not _unit_sphere_map(3, [0, 0, 1]).is_isometry()
    assert not _unit_sphere_map(2, [0, 0, 1]).is_isometry()
    # on S_{1/3}(1) over Q_3, x + y = 2 + 3(...) is a unit
    assert oracle.SphereMap(3, -1, 1, [0, 0, 1], [1]).is_isometry()
    assert _unit_sphere_map(3, [1], [0, 1]).is_isometry()
    assert not oracle.SphereMap(3, 1, 0, [1], [0, 1]).is_isometry()


def test_group_laws_and_measure_by_hand():
    assert oracle.ball_combine(2, 5, 8) == 11
    assert oracle.sphere_inverse(2, -1, 0, 6) == F(2, 3)
    e = F(2) ** 1  # identity of S_{1/2}(0) is 1/r = 2
    assert oracle.sphere_combine(2, -1, 0, 6, e) == 6
    assert oracle.iso_value(3, 0, 0, -1, 0, 1) == 3
    assert oracle.cells_normalized(3, 1, 1) == F(1, 2)
    assert oracle.cells_haar(2, 0, 3, 4) == F(1, 2)


def test_literals_are_compared_digit_by_digit():
    assert oracle.literal_holds("3:0:2,1,1,1", F(1, 2), 3)
    assert not oracle.literal_holds("3:0:2,1,1,1", F(1, 4), 3)
    assert not oracle.literal_holds("3:0:2,1,1,2", F(1, 2), 3)
    assert not oracle.literal_holds("3:1:2,1,1,1", F(1, 2), 3)
    assert oracle.literal_holds("2:inf:", 0, 2)
    assert oracle.literal_value("2:1:1,1") == 6


def test_oracle_imports_only_int_and_fraction_helpers():
    tree = ast.parse((HERE / "oracle.py").read_text())
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert modules <= {"__future__", "fractions", "math", "re"}


# ---------------------------------------------------------- requests

def test_seed_fixes_the_request_list():
    for name in run.WORKLOADS:
        a = workloads.request_hash(workloads.generate(name, 11))
        assert a == workloads.request_hash(workloads.generate(name, 11))
        assert a != workloads.request_hash(workloads.generate(name, 12))


def test_rounds_keep_their_composition():
    for name in run.WORKLOADS:
        shapes = set()
        for seed in (1, 2, 3):
            for rnd in workloads.generate(name, seed):
                shape = tuple((r.op, r.family, r.level if name == "verdict_deep" else r.p)
                              for r in rnd)
                if name == "verdict_sweep":  # orbit and past-window primes are drawn
                    shape = shape[:-6]
                shapes.add(shape)
        assert len(shapes) == 1, name


def test_map_text_parses_back_to_the_same_map():
    lib = _lib()
    for name in ("verdict_deep", "verdict_sweep"):
        for req in workloads.generate(name, 3)[0]:
            assert lib.mapdsl.parse_map(req.map_text) == lib.mapdsl.make_map(req.num, req.den)


def test_known_defects_are_the_window_translations():
    rnd = workloads.generate("verdict_sweep", 5)[0]
    past = [r for r in rnd if r.family == "translation" and r.vt >= workloads.WINDOW_DIGITS]
    assert len(past) == 2 and all(workloads.known_defect(r) for r in past)
    near = workloads.Request("orbit", "translation", 3, 0, F(1), (F(3) ** 31, F(1)),
                             vt=31, extra=(F(3), 2000))
    assert workloads.known_defect(near)  # 3 * 3^31 vanishes in the window
    assert workloads.known_defect(dataclasses.replace(near, vt=20)) is None
    assert all(workloads.known_defect(r) is None
               for r in workloads.generate("carrier_algebra", 5)[0])
    # 3x + 2 from 0 on S_1(-1) over Q_2: a false period 64 (seen at seed 208)
    from_zero = workloads.Request("orbit", "scaling", 2, 0, F(-1), (F(2), F(3)),
                                  extra=(F(0), 2000))
    assert workloads.known_defect(from_zero)


# ---------------------------------------------------------- harness

class _Verdict:
    def __init__(self, d, measure=None):
        self._d, self.invariant_measure = d, measure

    def as_dict(self):
        return dict(self._d)


def test_wrong_answers_and_exceptions_are_failures_not_aborts():
    reqs = workloads.generate("verdict_deep", 1)[0][:3]
    right = [dict(oracle.expected_verdict(workloads._sphere_map(r), r.level)[0]) for r in reqs]
    calls = []

    def fake(s, f, max_level, seed):
        calls.append(max_level)
        if len(calls) % 3 == 1:
            raise RuntimeError("boom")
        want = dict(right[(len(calls) - 1) % 3])
        want.pop("witness")
        measure = want.pop("invariant_measure", None)
        if len(calls) % 3 == 2:
            want["verdict"] = "Ergodic"
        return _Verdict(want, measure and F(measure))

    lib = SimpleNamespace(dynamics=SimpleNamespace(ergodicity_verdict=fake))
    inputs = {r: (None, None) for r in reqs}
    tally = run.Tally()
    samples, n_rounds, _, _ = run.timed_run(lib, inputs, [reqs], 1e-9, workloads.Checker(), tally)
    assert n_rounds == 1 and sorted(map(len, samples.values())) == [1, 1, 1]
    assert tally.attempted == 3
    assert tally.failed == 2
    assert not tally.correct
    text = "\n".join(tally.lines())
    assert "raised RuntimeError: boom" in text and "UNEXPECTED" in text


def test_known_defect_failures_keep_the_run_correct():
    tally = run.Tally()
    req = workloads.generate("verdict_sweep", 1)[0][28]
    assert workloads.known_defect(req)
    tally.record(req, False, "got ZeroSomewhere")
    assert tally.failed == 1 and tally.correct


def test_sweep_json_bytes_repeat():
    lib = _lib()
    for req in workloads.generate("verdict_sweep", 4)[0][:6]:
        assert workloads.cli_call(lib, req.argv()) == workloads.cli_call(lib, req.argv())


def test_self_time_is_duration_minus_children():
    tr = tracing.Tracer()

    def inner():
        return sum(range(2000))

    inner_w = tr.wrap(inner, "inner")

    def outer():
        return inner_w() + inner_w()

    tr.wrap(outer, "outer", coarse=True)()
    calls, incl, self_ns, _ = tr.stats["outer"]
    assert calls == 1 and tr.calls("inner") == 2
    assert self_ns == incl - tr.stats["inner"][1]
    assert tr.spans and tr.spans[0][3] == "outer"


def test_replay_matches_ergodicity_verdict():
    lib = _lib()
    for req in workloads.generate("verdict_sweep", 2)[0][:7]:
        s = lib.geometry.Sphere(req.p, req.e, req.c)
        f = lib.mapdsl.parse_map(req.map_text)
        got = tracing.replay_verdict(lib, tracing.Tracer(), s, f, req.level, seed=req.seed)
        want = lib.dynamics.ergodicity_verdict(s, f, max_level=req.level, seed=req.seed)
        assert got == want


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {**{m[0]: m[1] for m in tracing.PER_LAYER}, "trace.overhead_pct": "%"}
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == ["setup_s", "requests_per_s", "latency_ms_p50", "latency_ms_tail",
                   "success_rate", "peak_rss_mb"]
    meta = json.loads((HERE / "workloads.json").read_text())
    assert sorted(meta["workloads"]) == sorted(run.WORKLOADS)
