import json

import pytest

from padicdyn import cli, selftest
from padicdyn.errors import NotPermutation


def run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_num_add_example(capsys):
    code, out, _ = run(capsys, "num", "add", "--p", "3", "--prec", "4", "1/2", "1/2")
    assert code == 0
    assert out == "3:0:1,0,0,0\n"


def test_num_ops(capsys):
    code, out, _ = run(capsys, "num", "inv", "--p", "3", "--prec", "4", "2")
    assert (code, out) == (0, "3:0:2,1,1,1\n")
    code, out, _ = run(capsys, "num", "mul", "--p", "2", "--prec", "5", "3", "5")
    assert (code, out) == (0, "2:0:1,1,1,1,0\n")
    code, out, _ = run(capsys, "num", "parse", "--p", "2", "2:inf:")
    assert (code, out) == (0, "2:inf:\n")


def test_measure_example(capsys):
    code, out, _ = run(capsys, "measure", "--p", "3", "--sphere-center", "0",
                       "--sphere-exp", "0", "--set", "V[-1](1)")
    assert code == 0
    assert out == "haar: 1/3\nnormalized: 1/2\n"


def test_measure_sphere_literal_and_full_radius_form(capsys):
    code, out, _ = run(capsys, "measure", "--sphere", "S[3^0](0)",
                       "--set", "V[3^-1](1), V[3^-1](2)", "--json")
    assert code == 0
    assert json.loads(out) == {"haar": "2/3", "normalized": "1"}


def test_group_examples(capsys):
    code, out, _ = run(capsys, "group", "oplus", "--p", "3", "--center", "2",
                       "--exp", "-1", "--prec", "8", "5", "8")
    assert code == 0
    assert out.startswith("3:0:2,0,1")
    code, out, _ = run(capsys, "group", "odot", "--p", "2", "--center", "0",
                       "--exp", "-1", "--prec", "8", "2", "6")
    assert out.startswith("2:1:1,1,0")
    code, out, _ = run(capsys, "group", "inv", "--p", "2", "--kind", "sphere",
                       "--center", "0", "--exp", "-1", "--prec", "8", "6")
    # 1/(r^2 x) = 2/3
    assert out.startswith("2:1:1,1,0,1,0,1")
    code, out, _ = run(capsys, "group", "iso", "--p", "2", "--kind", "sphere",
                       "--center", "0", "--exp", "0",
                       "--to-center", "0", "--to-exp", "-1", "--prec", "8", "3")
    assert out.startswith("2:1:1,1,0,0")


def test_group_check_json(capsys):
    code, out, _ = run(capsys, "group", "check", "--p", "3", "--kind", "sphere",
                       "--center", "0", "--exp", "0", "--trials", "40", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["carrier"] == "S[3^0](0)"
    assert [r["law"] for r in payload["laws"]] == [
        "commutativity", "associativity", "identity", "inverse"]
    assert all(r["failures"] == [] for r in payload["laws"])


def test_dyn_ergodic_example(capsys):
    code, out, _ = run(capsys, "dyn", "ergodic", "--p", "2", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+2", "--levels", "12", "--json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "ErgodicUpToLevel", "rho": "2^-1",
        "criterion_value": "1", "level": 12,
    }


def test_dyn_reports(capsys):
    code, out, _ = run(capsys, "dyn", "rho", "--p", "2", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+4", "--json")
    assert json.loads(out) == {"kind": "Constant", "rho": "2^-2"}
    code, out, _ = run(capsys, "dyn", "verify", "--p", "3", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "witness"
    assert set(payload["witness"]) >= {"x", "y"}
    code, out, _ = run(capsys, "dyn", "orbit", "--p", "3", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "3-x", "--start", "1",
                       "--iters", "6", "--json")
    payload = json.loads(out)
    assert (payload["period"], payload["offset"]) == (2, 0)
    assert payload["displacements"] == ["3^0", "3^0"]


def test_json_determinism(capsys):
    argv = ["dyn", "ergodic", "--p", "2", "--sphere-center", "0", "--sphere-exp", "0",
            "--map", "3x", "--levels", "6", "--seed", "7", "--json"]
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["cycles"] == [2, 2]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_survives_errors_and_help(capsys):
    # the parser is shared by every run in a process: an argparse error and
    # --help in between must not change the bytes of the same request
    argv = ["dyn", "ergodic", "--p", "3", "--sphere-center", "0", "--sphere-exp", "0",
            "--map", "4x+3", "--seed", "5"]
    first = run(capsys, *argv)
    assert first[0] == 0
    assert first[1].startswith("verdict: AssumptionViolated\nreason: NonConstant\n")
    code, out, err = run(capsys, "dyn", "ergodic", "--p", "three", *argv[3:])
    assert (code, out) == (2, "")
    assert "invalid int value: 'three'" in err
    code, out, _ = run(capsys, "dyn", "--help")
    assert code == 0
    assert out.startswith("usage: padicdyn dyn")
    assert run(capsys, *argv) == first


def test_exit_code_matrix(capsys):
    # 0: an answer, even a negative one
    code, out, _ = run(capsys, "dyn", "ergodic", "--p", "3", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+3", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "NotErgodic"
    # 2: input errors
    for argv in (
        ["num", "add", "--p", "4", "--prec", "4", "1", "2"],
        ["num", "inv", "--p", "3", "--prec", "4", "0"],
        ["measure", "--p", "3", "--sphere-exp", "0", "--set", "V[-1](1), V[-1](1)"],
        ["dyn", "orbit", "--p", "3", "--sphere-center", "0", "--sphere-exp", "0",
         "--map", "3-x", "--start", "3/2"],
        ["dyn", "ergodic", "--p", "2", "--sphere-center", "0", "--sphere-exp", "0",
         "--map", "x+2", "--prec", "4"],
        ["group", "odot", "--p", "2", "--center", "0", "--exp", "-1", "1", "6"],
        ["nonsense"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
    # 3: precision and resource exhaustion
    code, _, err = run(capsys, "num", "add", "--p", "3", "--prec", "4", "--",
                       "1/2", "-1/2")
    assert code == 3
    assert "3^4" in err
    code, _, err = run(capsys, "dyn", "ergodic", "--p", "2", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+2", "--levels", "25")
    assert code == 3


def test_exit_code_refutation(capsys, monkeypatch):
    # exit 1 is reserved for raised refutations; no honest input reaches it,
    # so patch the pipeline to prove the dispatcher maps the class correctly
    def boom(*a, **k):
        raise NotPermutation("two cells collide")
    monkeypatch.setattr(cli.dynamics, "ergodicity_verdict", boom)
    code, _, err = run(capsys, "dyn", "ergodic", "--p", "2", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+2")
    assert code == 1
    assert "refuted" in err


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("PADICDYN_PREC", "4")
    code, _, err = run(capsys, "dyn", "rho", "--p", "2", "--sphere-center", "0",
                       "--sphere-exp", "0", "--map", "x+2")
    assert code == 2
    monkeypatch.setenv("PADICDYN_PREC", "12")
    code, out, _ = run(capsys, "num", "add", "--p", "3", "1/2", "1/2")
    assert code == 0
    assert out == "3:0:1," + ",".join(["0"] * 11) + "\n"


def test_selftest_exits_zero(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 9
    assert all(ln.startswith("PASS") for ln in lines)


def test_selftest_json_reports_each_criterion(capsys, monkeypatch):
    results = [selftest.CriterionResult(1, "one", True, "fine", 0.25),
               selftest.CriterionResult(2, "two", False, "broken", 0.5)]
    monkeypatch.setattr(selftest, "CRITERIA", [lambda r=r: r for r in results])
    code, out, err = run(capsys, "selftest", "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload == {"passed": False, "criteria": [
        {"number": 1, "title": "one", "passed": True, "detail": "fine", "seconds": 0.25},
        {"number": 2, "title": "two", "passed": False, "detail": "broken", "seconds": 0.5},
    ]}
    code, out, _ = run(capsys, "selftest")
    assert (code, out) == (1, "PASS criterion 1 (one): fine [0.25s]\n"
                              "FAIL criterion 2 (two): broken [0.50s]\n")
    monkeypatch.setattr(selftest, "CRITERIA", [lambda: results[0]])
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_nonpositive_trials_and_negative_iters_are_input_errors(capsys):
    sphere = ["--p", "2", "--sphere-center", "0", "--sphere-exp", "0"]
    for op, fmap, trials in (("ergodic", "x+2", "0"), ("ergodic", "x+2", "-5"),
                             ("verify", "x^2", "0"), ("rho", "x+2", "0")):
        code, out, err = run(capsys, "dyn", op, *sphere, "--map", fmap,
                             "--trials", trials, "--json")
        assert (code, out) == (2, ""), (op, trials)
        assert "trials" in err
    code, out, err = run(capsys, "dyn", "orbit", *sphere, "--map", "x+2",
                         "--start", "1", "--iters", "-3")
    assert (code, out) == (2, "")
    assert "iterate" in err


def test_translation_past_the_old_window_answers(capsys):
    code, out, _ = run(capsys, "dyn", "ergodic", "--p", "5", "--sphere-center=5",
                       "--sphere-exp=1", "--map=582076609134674072265625+1*x", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["reason"]) == ("NotErgodic", "MeasureCriterion")
    assert payload["rho"] == "5^-34"


def test_malformed_region_radius_is_an_input_error(capsys):
    for argv in (["measure", "--sphere", "S[2^x](0)", "--set", "V[2^-1](1)"],
                 ["measure", "--p", "3", "--sphere-exp", "0", "--set", "V[y](1)"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "region" in err


EXACT_COMMANDS = (
    ["measure", "--p", "3", "--sphere-exp", "0", "--set", "V[-1](1)"],
    ["group", "check", "--p", "3", "--center", "0", "--exp", "0", "--kind", "ball",
     "--trials", "5"],
    ["dyn", "ergodic", "--p", "3", "--sphere-center", "0", "--sphere-exp", "0",
     "--map", "x+3", "--levels", "3", "--trials", "20"],
)


def test_exact_commands_ignore_the_precision_variable(capsys, monkeypatch):
    for argv in EXACT_COMMANDS:
        monkeypatch.delenv("PADICDYN_PREC", raising=False)
        code, want, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        for value in ("4", "64", "digits"):
            monkeypatch.setenv("PADICDYN_PREC", value)
            assert run(capsys, *argv, "--json") == (0, want, ""), (argv, value)


def test_explicit_precision_on_an_exact_command_is_an_input_error(capsys):
    for argv in EXACT_COMMANDS + (["selftest"],):
        code, out, err = run(capsys, *argv, "--prec", "64")
        assert (code, out) == (2, ""), argv
        assert "--prec" in err
