"""Command line front end.

Exit codes: 0 for answers (including negative verdicts), 1 for
mathematical refutations, 2 for input errors, 3 for precision or
resource exhaustion.  JSON output is deterministic: keys sorted, all
fractional quantities rendered as strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import dynamics, selftest
from .errors import (
    DivisionByZero,
    InputError,
    PrecisionError,
    Refutation,
    ResourceLimit,
)
from .geometry import Sphere, canonical_ball, clopen, contains, embed
from .groups import BallGroup, SphereGroup, check_group_axioms, iso
from .mapdsl import parse_map
from .measure import haar_clopen, normalized_measure
from .padic import DEFAULT_PRECISION, PAdic, parse, parse_rational

PREC_ENV = "PADICDYN_PREC"
DEFAULT_SEED = 0
MIN_WORKING_PRECISION = 8


@dataclass(frozen=True)
class RunConfig:
    precision: int | None
    seed: int
    json_out: bool


def _env_precision() -> int:
    raw = os.environ.get(PREC_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        return int(raw)
    except ValueError:
        raise InputError("%s must be an integer, got %r" % (PREC_ENV, raw))


def build_config(ns, floor: int | None = MIN_WORKING_PRECISION) -> RunConfig:
    """Working precision from --prec, else PADICDYN_PREC, at least `floor`.

    floor None marks a command that computes exactly: it reads neither,
    and an explicit --prec is an input error.
    """
    if floor is None:
        if ns.prec is not None:
            raise InputError("this command computes exactly and takes no --prec")
        prec = None
    else:
        prec = ns.prec if ns.prec is not None else _env_precision()
        if prec < floor:
            raise InputError("precision must be at least %d, got %d" % (floor, prec))
    return RunConfig(prec, getattr(ns, "seed", DEFAULT_SEED),
                     bool(getattr(ns, "json", False)))


def _operand(tok: str, p: int, end: int, prec: int) -> PAdic:
    """Literal when it contains a colon, rational otherwise."""
    if ":" in tok:
        x = parse(tok)
        if x.p != p:
            raise InputError("literal %s is %d-adic, expected p=%d" % (tok, x.p, p))
        return x
    return embed(parse_rational(tok), p, end + prec)


_REGION = re.compile(r"([VS])\[\s*(?:(\d+)\s*\^\s*)?([+-]?\d+)\s*\]\(([^()]*)\)\Z")


def _parse_region(tok: str, p: int | None):
    """V[p^e](c) or V[e](c); returns (kind, p, e, center)."""
    m = _REGION.match(tok.strip())
    if m is None:
        raise InputError("cannot read region %r; expected V[p^e](center)" % tok)
    kind, base, exp, center = m.groups()
    if base is not None:
        rp = int(base)
        if p is not None and rp != p:
            raise InputError("region %r names p=%d, expected %d" % (tok, rp, p))
        p = rp
    elif p is None:
        raise InputError("region %r has no prime and --p was not given" % tok)
    return kind, p, int(exp), parse_rational(center)


def _parse_ball_set(text: str, p: int) -> list:
    balls = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        kind, _, e, c = _parse_region(tok, p)
        if kind != "V":
            raise InputError("a clopen set is a list of balls, got %r" % tok.strip())
        balls.append(canonical_ball(c, e, p=p))
    if not balls:
        raise InputError("empty --set")
    return balls


def _human(value) -> str:
    if isinstance(value, dict):
        return ", ".join("%s=%s" % kv for kv in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _emit(report: dict, cfg: RunConfig, order: tuple = ()) -> None:
    if cfg.json_out:
        print(json.dumps(report, sort_keys=True))
        return
    keys = [k for k in order if k in report]
    keys += sorted(k for k in report if k not in keys)
    for k in keys:
        print("%s: %s" % (k, _human(report[k])))


def cmd_num(ns) -> int:
    cfg = build_config(ns, floor=1)
    p, prec = ns.p, cfg.precision
    xs = [_operand(tok, p, 0, prec) for tok in ns.operands]
    if ns.op in ("inv", "parse") and len(xs) != 1:
        raise InputError("num %s takes exactly one operand" % ns.op)
    if ns.op in ("add", "mul") and len(xs) < 2:
        raise InputError("num %s takes at least two operands" % ns.op)
    if ns.op == "parse":
        out = xs[0]
    elif ns.op == "inv":
        out = xs[0].inv()
    else:
        out = xs[0]
        for x in xs[1:]:
            out = out + x if ns.op == "add" else out * x
    value = out.render() if out.is_zero else out.truncate(prec).render()
    if cfg.json_out:
        _emit({"value": value}, cfg)
    else:
        print(value)
    return 0


def _group_for(kind: str, p: int, e: int, a: Fraction):
    return BallGroup(p, e, a) if kind == "ball" else SphereGroup(p, e, a)


def cmd_group(ns) -> int:
    cfg = build_config(ns, floor=None if ns.op == "check" else MIN_WORKING_PRECISION)
    kind = {"oplus": "ball", "odot": "sphere"}.get(ns.op) or ns.kind
    g = _group_for(kind, ns.p, ns.exp, parse_rational(ns.center))
    xs = [_operand(tok, ns.p, -ns.exp, cfg.precision) for tok in ns.operands]
    if len(xs) != ns.expects:
        raise InputError("group %s takes exactly %d operand(s), got %d"
                         % (ns.op, ns.expects, len(xs)))
    if ns.op == "check":
        reports = check_group_axioms(g, trials=ns.trials, seed=cfg.seed)
        payload = {"carrier": str(g.carrier), "laws": [r.as_dict() for r in reports]}
        if cfg.json_out:
            print(json.dumps(payload, sort_keys=True))
        else:
            for r in reports:
                print("%s: %s (%d trials)" % (
                    r.law, "pass" if r.passed else "FAIL", r.trials))
        return 0
    if ns.op in ("oplus", "odot"):
        out = g.combine(xs[0], xs[1])
    elif ns.op == "inv":
        out = g.inverse(xs[0])
    else:
        h = _group_for(kind, ns.p, ns.to_exp, parse_rational(ns.to_center))
        out = iso(g, h, xs[0])
    value = out.truncate(cfg.precision).render()
    if cfg.json_out:
        _emit({"value": value}, cfg)
    else:
        print(value)
    return 0


def cmd_measure(ns) -> int:
    cfg = build_config(ns, floor=None)
    p = ns.p
    if ns.sphere is not None:
        kind, p, e, c = _parse_region(ns.sphere, p)
        if kind != "S":
            raise InputError("--sphere expects S[p^e](center)")
        s = Sphere(p, e, c)
    elif p is not None and ns.sphere_exp is not None:
        s = Sphere(p, ns.sphere_exp, parse_rational(ns.sphere_center))
    else:
        raise InputError("give --sphere or all of --p/--sphere-center/--sphere-exp")
    region = clopen(s, _parse_ball_set(ns.set, p))
    report = {
        "haar": str(haar_clopen(region)),
        "normalized": str(normalized_measure(s, region)),
    }
    _emit(report, cfg, order=("haar", "normalized"))
    return 0


def _dyn_sphere(ns) -> Sphere:
    return Sphere(ns.p, ns.sphere_exp, parse_rational(ns.sphere_center))


def cmd_dyn(ns) -> int:
    cfg = build_config(ns, floor=None if ns.op == "ergodic" else MIN_WORKING_PRECISION)
    s = _dyn_sphere(ns)
    f = parse_map(ns.map)
    if ns.op == "verify":
        rep = dynamics.verify_isometry(s, f, trials=ns.trials, seed=cfg.seed,
                                       depth=cfg.precision)
        report: dict = {"result": "pass" if rep.passed else "witness",
                        "trials": rep.trials}
        if rep.witness is not None:
            report["witness"] = rep.witness
        _emit(report, cfg, order=("result", "trials", "witness"))
    elif ns.op == "rho":
        rho = dynamics.compute_rho(s, f, trials=ns.trials, seed=cfg.seed,
                                   depth=cfg.precision)
        report = {"kind": rho.kind}
        if rho.rho_exp is not None:
            report["rho"] = "%d^%d" % (s.p, rho.rho_exp)
        if rho.witness is not None:
            report["witness"] = rho.witness
        _emit(report, cfg, order=("kind", "rho", "witness"))
    elif ns.op == "orbit":
        if ns.start is None:
            raise InputError("dyn orbit needs --start")
        x0 = _operand(ns.start, s.p, -s.e, cfg.precision)
        if not contains(s, x0):
            raise InputError("start %s is not on %s" % (ns.start, s))
        rec = dynamics.orbit(f, x0, ns.iters)
        report = {
            "points": [str(x) for x in rec.points],
            "displacements": ["-" if a is None else "%d^%d" % (s.p, a)
                              for a in rec.displacement_exps],
        }
        if rec.period is not None:
            report["period"] = rec.period
            report["offset"] = rec.offset
        _emit(report, cfg, order=("period", "offset"))
    else:
        v = dynamics.ergodicity_verdict(s, f, max_level=ns.levels,
                                        trials=ns.trials, seed=cfg.seed)
        _emit(v.as_dict(), cfg, order=("verdict", "reason", "rho",
                                       "criterion_value", "level", "cycles"))
    return 0


def cmd_selftest(ns) -> int:
    if not ns.json:
        return 0 if selftest.run_all(lambda res: print(res.line)) else 1
    results = []
    passed = selftest.run_all(results.append)
    print(json.dumps({"criteria": [asdict(r) for r in results], "passed": passed},
                     sort_keys=True))
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at the first run.

    The tree binds each subcommand to its cmd_* function at that build,
    so a later rebinding of a cmd_* name is not seen.  Its defaults read
    no environment, and parsing does not mutate it.
    """
    top = argparse.ArgumentParser(
        prog="padicdyn",
        description="Exact arithmetic for ball and sphere groups over the "
                    "p-adic numbers, their Haar measure, and isometry dynamics.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p_, seed=False):
        p_.add_argument("--prec", type=int, default=None,
                        help="working digits (default %d, env %s); measure, group "
                             "check and dyn ergodic are exact and refuse it"
                             % (DEFAULT_PRECISION, PREC_ENV))
        p_.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p_.add_argument("--seed", type=int, default=DEFAULT_SEED)

    num = sub.add_parser("num", help="p-adic arithmetic on literals or rationals")
    num.add_argument("op", choices=["parse", "add", "mul", "inv"])
    num.add_argument("--p", type=int, required=True)
    num.add_argument("operands", nargs="+")
    common(num)
    num.set_defaults(fn=cmd_num)

    grp = sub.add_parser("group", help="ball and sphere group operations")
    gsub = grp.add_subparsers(dest="op", required=True)
    for name, takes in (("oplus", 2), ("odot", 2), ("inv", 1), ("iso", 1), ("check", 0)):
        sp = gsub.add_parser(name)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--center", required=True, help="group base point (rational)")
        sp.add_argument("--exp", type=int, required=True,
                        help="radius exponent e, radius p^e")
        if name in ("inv", "iso", "check"):
            sp.add_argument("--kind", choices=["ball", "sphere"], required=True)
        if name == "iso":
            sp.add_argument("--to-center", required=True, help="target base point")
            sp.add_argument("--to-exp", type=int, required=True,
                            help="target radius exponent")
        if name == "check":
            sp.add_argument("--trials", type=int, default=200)
            sp.set_defaults(operands=[])
        else:
            sp.add_argument("operands", nargs="+")
        common(sp, seed=True)
        sp.set_defaults(fn=cmd_group, expects=takes)

    mea = sub.add_parser("measure", help="Haar and normalized measure of a ball union")
    mea.add_argument("--p", type=int, default=None)
    mea.add_argument("--sphere-center", default="0")
    mea.add_argument("--sphere-exp", type=int, default=None)
    mea.add_argument("--sphere", default=None, help="S[p^e](center) literal")
    mea.add_argument("--set", required=True, help="comma-separated V[p^e](center) balls")
    common(mea)
    mea.set_defaults(fn=cmd_measure)

    dyn = sub.add_parser("dyn", help="isometry dynamics on an invariant sphere")
    dyn.add_argument("op", choices=["verify", "rho", "orbit", "ergodic"])
    dyn.add_argument("--p", type=int, required=True)
    dyn.add_argument("--sphere-center", required=True)
    dyn.add_argument("--sphere-exp", type=int, required=True)
    dyn.add_argument("--map", required=True, help="rational map, e.g. \"x+2\" or \"1/x\"")
    dyn.add_argument("--start", default=None, help="orbit start point (rational or literal)")
    dyn.add_argument("--iters", type=int, default=10)
    dyn.add_argument("--levels", type=int, default=8)
    dyn.add_argument("--trials", type=int, default=200,
                     help="sampled point pairs of verify and rho; ergodic samples "
                          "only where its exact certificate does not decide, and "
                          "on a certified isometry stops at the displacement witness")
    common(dyn, seed=True)
    dyn.set_defaults(fn=cmd_dyn)

    st = sub.add_parser("selftest", help="run the embedded acceptance suite")
    st.add_argument("--json", action="store_true")
    st.set_defaults(fn=cmd_selftest)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return ns.fn(ns)
    except Refutation as err:
        print("refuted: %s" % err, file=sys.stderr)
        return 1
    except (InputError, DivisionByZero) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (PrecisionError, ResourceLimit) as err:
        print("error: %s" % err, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
