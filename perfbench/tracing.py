"""Per-layer tracing for the traced run, recorded from the benchmark's side.

The library is not edited.  While a traced request runs, the public
functions at each layer boundary are replaced, in the namespaces their
callers look them up in, by wrappers that record a span; the originals are
put back afterwards.  A span's self time is its duration minus the time
its child spans cover.  Stage spans (dynamics, cli, group law checks,
invariance checks) are kept in memory as full records and written out when
the run ends; spans of the hot per-call functions are aggregated per name.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter, perf_counter_ns

from workloads import cli_call


class Tracer:
    def __init__(self):
        self.stack: list = []          # frames: [name, start_ns, child_ns, span_id]
        self.stats: dict = {}          # name -> [calls, incl_ns, self_ns, work]
        self.edges: dict = {}          # (parent, child) -> [calls, incl_ns]
        self.spans: list = []          # (id, parent_id, request, name, start_ns, end_ns)
        self.request = 0
        self.request_level = None
        self.top_cells = 0
        self.retries = 0
        self._ids = 0
        self._saved: list = []

    # ---------------------------------------------------------- recording
    def _push(self, name: str, coarse: bool) -> list:
        span_id = 0
        if coarse:
            self._ids += 1
            span_id = self._ids
        frame = [name, 0, 0, span_id]
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _pop(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        name, start, child, span_id = frame
        d = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += d
        st[2] += d - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += d
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[(parent[0], name)] = [0, 0]
            edge[0] += 1
            edge[1] += d
        if span_id:
            parent_id = next((f[3] for f in reversed(self.stack) if f[3]), 0)
            self.spans.append((span_id, parent_id, self.request, name, start, end))

    def add_work(self, name: str, n: int) -> None:
        self.stats.setdefault(name, [0, 0, 0, 0])[3] += n

    @contextmanager
    def span(self, name: str):
        """A stage span opened by the benchmark itself."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(self, fn, name, coarse: bool = False, work=None):
        """name is a string, or a function of the call's arguments."""
        push, pop = self._push, self._pop

        def wrapper(*args, **kwargs):
            frame = push(name if isinstance(name, str) else name(args), coarse)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if work is not None:
                work(self, frame[0], args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------- installation
    def install(self, lib) -> None:
        for owner, attr, name, coarse, work in _targets(lib):
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, coarse, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, lib):
        self.install(lib)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ reading
    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def incl_us(self, name: str) -> float | None:
        st = self.stats.get(name)
        return st[1] / st[0] / 1e3 if st and st[0] else None

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def work(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0, 0))[3]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
            for name, (calls, incl, self_ns, work) in sorted(self.stats.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "incl_ns": incl,
                                     "self_ns": self_ns, "work": work}) + "\n")


# ------------------------------------------------------------ targets

def _cells(tr: Tracer, name, args, kwargs, result) -> None:
    tr.add_work(name, len(result))
    k = args[2] if len(args) > 2 else kwargs.get("k")
    if k == tr.request_level:
        tr.top_cells += len(result)


def _len_result(tr, name, args, kwargs, result) -> None:
    tr.add_work(name, len(result))


def _len_balls(tr, name, args, kwargs, result) -> None:
    tr.add_work(name, len(result.balls))


def _iterates(tr, name, args, kwargs, result) -> None:
    tr.add_work(name, len(result.points) - 1)


def _eval_name(args) -> str:
    return "mapdsl.eval_map_poly" if args[0].is_polynomial else "mapdsl.eval_map_rational"


def _targets(lib) -> list:
    """(owner, attribute, span name, stage span?, work counter) per boundary.

    A function is wrapped in every module namespace its callers read it
    from, so calls from inside the library are seen too.
    """
    cli, dyn, geo, grp, mea, mds, pad = (lib.cli, lib.dynamics, lib.geometry, lib.groups,
                                         lib.measure, lib.mapdsl, lib.padic)
    out = [
        (cli, "run", "cli.run", True, None),
        (cli, "build_parser", "cli.build_parser", False, None),
        (cli, "parse_map", "mapdsl.parse_map", False, None),
        (cli, "contains", "geometry.contains", False, None),
        (cli, "embed", "geometry.embed", False, None),
        (mds, "parse_map", "mapdsl.parse_map", False, None),
        (dyn, "ergodicity_verdict", "dynamics.ergodicity_verdict", True, None),
        (dyn, "_verdict_once", "dynamics.verdict_attempt", True, None),
        (dyn, "verify_isometry", "dynamics.verify_isometry", True, None),
        (dyn, "compute_rho", "dynamics.compute_rho", True, None),
        (dyn, "induced_cell_map", "dynamics.induced_cell_map", True, _cells),
        (dyn, "cycle_structure", "dynamics.cycle_structure", True, None),
        (dyn, "_cycle_invariant_measure", "dynamics.invariant_set", True, None),
        (dyn, "orbit", "dynamics.orbit", True, _iterates),
        (dyn, "eval_map", _eval_name, False, None),
        (dyn, "locate_cell", "geometry.locate_cell", False, None),
        (dyn, "cell_center", "geometry.cell_center", False, None),
        (dyn, "embed", "geometry.embed", False, None),
        (dyn, "contains", "geometry.contains", False, None),
        (dyn, "sphere_cells", "geometry.sphere_cells", False, _len_result),
        (dyn, "clopen", "geometry.clopen", False, _len_balls),
        (dyn, "normalized_measure", "measure.normalized_measure", False, None),
        (mds, "eval_map", _eval_name, False, None),
        (mds, "embed", "geometry.embed", False, None),
        (geo, "embed", "geometry.embed", False, None),
        (geo, "contains", "geometry.contains", False, None),
        (geo, "locate_cell", "geometry.locate_cell", False, None),
        (geo, "sphere_cells", "geometry.sphere_cells", False, _len_result),
        (geo, "clopen", "geometry.clopen", False, _len_balls),
        (geo, "from_rational", "padic.from_rational", False, None),
        (grp, "contains", "geometry.contains", False, None),
        (grp, "embed", "geometry.embed", False, None),
        (grp, "iso", "groups.iso", False, None),
        (grp, "check_group_axioms", "groups.law_check", True, None),
        (mea, "clopen", "geometry.clopen", False, _len_balls),
        (mea, "contains", "geometry.contains", False, None),
        (mea, "embed", "geometry.embed", False, None),
        (mea, "normalize_clopen", "measure.normalize_clopen", False, _len_balls),
        (mea, "haar_clopen", "measure.haar_clopen", False, None),
        (mea, "normalized_measure", "measure.normalized_measure", False, None),
        (mea, "invariance_check", "measure.invariance_check", True, None),
        (pad.PAdic, "__add__", "padic.add", False, None),
        (pad.PAdic, "__sub__", "padic.sub", False, None),
        (pad.PAdic, "__mul__", "padic.mul", False, None),
        (pad.PAdic, "inv", "padic.inv", False, None),
    ]
    for cls in (grp.BallGroup, grp.SphereGroup):
        out += [(cls, "sample", "groups.sample", False, None),
                (cls, "combine", "groups.combine", False, None),
                (cls, "inverse", "groups.inverse", False, None)]
    return out


# ------------------------------------------------------ verdict replay

def replay_verdict(lib, tr: Tracer, s, f, max_level: int, trials: int = 200, seed: int = 0):
    """ergodicity_verdict rebuilt stage by stage from public functions.

    Mirrors the pipeline, including its single retry at doubled precision
    with a doubled guard; the traced run asserts that the result equals
    ergodicity_verdict's on every verdict request.
    """
    prec = lib.padic.DEFAULT_PRECISION
    try:
        return _replay_once(lib, tr, s, f, max_level, trials, seed, prec, 8)
    except lib.errors.PrecisionError:
        tr.retries += 1
        return _replay_once(lib, tr, s, f, max_level, trials, seed, 2 * prec, 16)


def _replay_once(lib, tr, s, f, max_level, trials, seed, depth, guard):
    dyn, geo = lib.dynamics, lib.geometry
    verdict = dyn.ErgodicityVerdict
    top = geo.cell_count(s.p, max_level)
    if top > geo.DEFAULT_CELL_CAP:
        raise lib.errors.ResourceLimit("level %d needs %d cells" % (max_level, top))
    iso = dyn.verify_isometry(s, f, trials=trials, seed=seed, depth=depth)
    if not iso.passed:
        return verdict("NotIsometry", s.p, reason="IsometryFailed", witness=iso.witness)
    rho = dyn.compute_rho(s, f, trials=trials, seed=seed, depth=depth)
    if rho.kind != "Constant":
        return verdict("AssumptionViolated", s.p, reason=rho.kind, witness=rho.witness)
    flat = rho.rho_exp == s.e
    criterion = Fraction(s.p) ** (1 + rho.rho_exp - s.e) / (s.p - 1)
    if criterion != 1:
        return verdict("NotErgodic", s.p, reason="MeasureCriterion", rho_exp=rho.rho_exp,
                       criterion=criterion, rho_equals_radius=flat)
    for k in range(1, max_level + 1):
        perm = dyn.induced_cell_map(s, f, k, guard=guard)
        cs = dyn.cycle_structure(perm, k)
        if len(cs.cycles) >= 2:
            with tr.span("dynamics.invariant_set"):
                cyc = min(cs.cycles, key=len)
                if {perm[j] for j in cyc} != set(cyc):
                    raise lib.errors.InvarianceFailed("cycle %s is not invariant" % (cyc,))
                balls = geo.sphere_cells(s, k)
                mu = lib.measure.normalized_measure(s, geo.clopen(s, [balls[j] for j in cyc]))
            return verdict("NotErgodic", s.p, reason="CycleSplit", rho_exp=rho.rho_exp,
                           criterion=criterion, level=k, cycles=cs, rho_equals_radius=flat,
                           invariant_measure=mu)
    return verdict("ErgodicUpToLevel", s.p, rho_exp=rho.rho_exp, criterion=criterion,
                   level=max_level, rho_equals_radius=flat)


# --------------------------------------------------------------- probe

def layer_probe(lib, tr: Tracer, p: int, e: int, c) -> None:
    """A small pass through every layer on one carrier of the workload.

    Per-layer figures for a layer the workload itself never calls are read
    from this probe, so that every per-layer metric is measured on every
    workload; the report marks them.
    """
    dyn, geo, grp, mea, mds = lib.dynamics, lib.geometry, lib.groups, lib.measure, lib.mapdsl
    c = Fraction(c)
    s = geo.Sphere(p, e, c)
    step = Fraction(p) ** (1 - e)
    translate = mds.parse_map("%s+1*x" % step)
    rational = mds.parse_map("%s+1*x/1+%s*x" % (c, Fraction(p) ** (2 - e)))
    x = geo.embed(c + Fraction(p) ** (-e), p, -e + 32)
    mds.eval_map(translate, x)
    mds.eval_map(rational, x)
    tr.request_level = 3
    replay_verdict(lib, tr, s, translate, 3, trials=20, seed=1)
    for k in (1, 2, 3):
        dyn.cycle_structure(dyn.induced_cell_map(s, translate, k), k)
    with tr.span("dynamics.invariant_set"):
        cells = geo.sphere_cells(s, 2)
        mea.normalized_measure(s, geo.clopen(s, cells[: max(1, len(cells) // 2)]))
    dyn.orbit(translate, x, 200)
    cli_call(lib, ["dyn", "ergodic", "--p", str(p), "--sphere-center=%s" % c,
                   "--sphere-exp=%d" % e, "--map=%s+1*x" % step, "--levels", "3", "--json"])
    rng = Random(1)
    for cls in (grp.BallGroup, grp.SphereGroup):
        g, h = cls(p, e, c), cls(p, e - 1, c + 1)
        for _ in range(8):
            a, b = g.sample(rng), g.sample(rng)
            g.combine(a, b)
            g.inverse(a)
            grp.iso(h, g, grp.iso(g, h, a))
        grp.check_group_axioms(g, trials=2, seed=1)
    g = grp.SphereGroup(p, e, c)
    region = geo.clopen(s, geo.sphere_cells(s, 2)[:1])
    mea.normalize_clopen(region)
    mea.haar_clopen(region)
    mea.invariance_check(g, g.sample(rng), region)


# ------------------------------------------------------------- metrics

def _incl_per_work(name):
    def fn(tr):
        work = tr.work(name)
        return tr.stats[name][1] / work / 1e3 if work else None
    return fn


def _sample_evals(tr):
    return sum(calls for (parent, child), (calls, _) in tr.edges.items()
               if parent in ("dynamics.verify_isometry", "dynamics.compute_rho")
               and child.startswith("mapdsl.eval_map"))


def _retries(tr):
    return tr.retries + max(0, tr.calls("dynamics.verdict_attempt")
                            - tr.calls("dynamics.ergodicity_verdict"))


def _cli_overhead(tr):
    calls = tr.calls("cli.run")
    if not calls:
        return None
    library = sum(incl for (parent, child), (_, incl) in tr.edges.items()
                  if parent == "cli.run" and not child.startswith("cli."))
    return (tr.stats["cli.run"][1] - library) / calls / 1e6


def _us(name):
    return name + ".us", "us", "lower", name, lambda tr: tr.incl_us(name)


def _self_ms(name):
    return name + ".self_ms", "ms", "lower", name, lambda tr: tr.self_s(name) * 1e3


# (metric, unit, better, span whose calls it needs, value from a Tracer).
# Stage self times are totals over the traced round; *.us are mean
# inclusive microseconds per call.
PER_LAYER = [
    ("dynamics.induced_cell_map.self_s", "s", "lower", "dynamics.induced_cell_map",
     lambda tr: tr.self_s("dynamics.induced_cell_map")),
    ("dynamics.induced_cell_map.us_per_cell", "us", "lower", "dynamics.induced_cell_map",
     _incl_per_work("dynamics.induced_cell_map")),
    ("dynamics.cells_evaluated", "count", "lower", "dynamics.induced_cell_map",
     lambda tr: tr.work("dynamics.induced_cell_map")),
    ("dynamics.top_level_cell_share", "ratio", "higher", "dynamics.induced_cell_map",
     lambda tr: tr.top_cells / tr.work("dynamics.induced_cell_map")),
    _self_ms("dynamics.cycle_structure"),
    _self_ms("dynamics.invariant_set"),
    _self_ms("dynamics.verify_isometry"),
    _self_ms("dynamics.compute_rho"),
    ("dynamics.sample_evals", "count", "lower", "dynamics.verify_isometry", _sample_evals),
    ("dynamics.precision_retries", "count", "lower", "dynamics.verify_isometry", _retries),
    ("dynamics.orbit.us_per_iterate", "us", "lower", "dynamics.orbit",
     _incl_per_work("dynamics.orbit")),
    ("cli.run.overhead_ms", "ms", "lower", "cli.run", _cli_overhead),
    _us("mapdsl.eval_map_poly"),
    _us("mapdsl.eval_map_rational"),
    _us("mapdsl.parse_map"),
    _us("geometry.locate_cell"),
    _us("geometry.cell_center"),
    _us("geometry.embed"),
    _us("geometry.contains"),
    ("geometry.clopen.us_per_ball", "us", "lower", "geometry.clopen",
     _incl_per_work("geometry.clopen")),
    ("geometry.sphere_cells.us_per_cell", "us", "lower", "geometry.sphere_cells",
     _incl_per_work("geometry.sphere_cells")),
    _us("groups.sample"),
    _us("groups.combine"),
    _us("groups.inverse"),
    _us("groups.iso"),
    _self_ms("groups.law_check"),
    ("measure.normalize_clopen.us_per_ball", "us", "lower", "measure.normalize_clopen",
     _incl_per_work("measure.normalize_clopen")),
    _us("measure.haar_clopen"),
    _self_ms("measure.invariance_check"),
    _us("padic.add"),
    _us("padic.mul"),
    _us("padic.inv"),
    _us("padic.from_rational"),
]


def per_layer(tr: Tracer, probe: Tracer) -> dict:
    """metric -> (value, unit, source); source is "probe" when the workload
    never called the function the metric is about."""
    out = {}
    for name, unit, _, base, fn in PER_LAYER:
        src, source = (tr, "workload") if tr.calls(base) else (probe, "probe")
        value = fn(src) if src.calls(base) else None
        out[name] = (0 if value is None else value, unit, source)
    return out


# re-anchor figures from ROADMAP item 1, measured on another machine
ROADMAP_FIGURES = {
    "padic.add.us": 4.8, "padic.mul.us": 3.5, "padic.from_rational.us": 7.2,
    "geometry.contains.us": 5.7, "geometry.locate_cell.us": 20.0,
    "groups.sample.us": 47.0, "groups.combine.us": 38.0,
    "dynamics.induced_cell_map.us_per_cell": 65.0,
}


def reanchor(lib, batches: int = 5) -> dict:
    """Untraced per-call cost in the settings ROADMAP item 1 was measured in.

    S_1(0) over Q_2, 32-digit operands, locate_cell at k = 8, x + 2 for the
    cell map (at k = 12 instead of 2^15 cells); median of `batches` timings.
    """
    geo, grp, dyn, pad = lib.geometry, lib.groups, lib.dynamics, lib.padic
    s = geo.Sphere(2, 0, 0)
    g = grp.SphereGroup(2, 0, 0)
    rng = Random(7)
    x, y = g.sample(rng), g.sample(rng)
    shift = lib.mapdsl.parse_map("x+2")
    cases = {
        "padic.add.us": (2000, lambda: x + y),
        "padic.mul.us": (2000, lambda: x * y),
        "padic.from_rational.us": (2000, lambda: pad.from_rational(Fraction(5, 7), 2, 32)),
        "geometry.contains.us": (1000, lambda: geo.contains(s, x)),
        "geometry.locate_cell.us": (500, lambda: geo.locate_cell(s, 8, x)),
        "groups.sample.us": (300, lambda: g.sample(rng)),
        "groups.combine.us": (300, lambda: g.combine(x, y)),
        "dynamics.induced_cell_map.us_per_cell": (
            geo.cell_count(2, 12), lambda: dyn.induced_cell_map(s, shift, 12), True),
    }
    out = {}
    for name, (n, fn, *once) in cases.items():
        reps = 1 if once else n
        times = []
        for _ in range(batches):
            t0 = perf_counter()
            for _ in range(reps):
                fn()
            times.append((perf_counter() - t0) / n * 1e6)
        times.sort()
        out[name] = times[len(times) // 2]
    return out
