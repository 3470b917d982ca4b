"""Seeded request lists for the three workloads, how to run each request,
and how to check its answer against the oracle.

A workload is a list of rounds; every round has the same composition (the
same slots, in the same order), and the seed only draws the parameters
inside each slot: centers, radius exponents, map coefficients, sampling
seeds.  Runs stop at a round boundary, so every run measures the same mix
whatever the seed, and latency percentiles stay comparable across seeds.

Request generation does not touch padicdyn (it borrows the oracle's
polynomial helpers).  `build` turns requests into library inputs (that is
the measured set-up), `execute` is the timed call, and `check` compares its
answer with the oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import oracle
from oracle import padd, pcompose_linear, pscale

# The library's default working window, in digits past the sphere radius.
# verdict_sweep draws translation offsets on both sides of it (ROADMAP item 4).
WINDOW_DIGITS = 32
ORBIT_ITERS = 2000
ROUNDS = 1


@dataclass(frozen=True)
class Request:
    """One request.  num/den are the map's coefficients in x, ascending.

    vt is the valuation of a translation offset in sphere coordinates
    (x + p^m on S_{p^e}(c) has vt = m + e); extra holds per-operation
    parameters (orbit start and length, batch sizes, chosen cells, ...).
    """

    op: str
    family: str
    p: int
    e: int
    c: Fraction
    num: tuple = ()
    den: tuple = (Fraction(1),)
    level: int = 0
    seed: int = 0
    vt: int = 0
    extra: tuple = ()

    @property
    def map_text(self) -> str:
        return map_text(self.num, self.den)

    def argv(self) -> list:
        """padicdyn CLI arguments for verdict_sweep requests."""
        base = ["dyn", self.op, "--p", str(self.p), "--sphere-center=%s" % self.c,
                "--sphere-exp=%d" % self.e, "--map=%s" % self.map_text]
        if self.op == "orbit":
            return base + ["--start=%s" % self.extra[0], "--iters", str(self.extra[1]), "--json"]
        return base + ["--levels", str(self.level), "--seed", str(self.seed), "--json"]

    def describe(self) -> str:
        if self.op in ("ergodic", "orbit"):
            return "padicdyn " + " ".join(self.argv())
        if self.op == "verdict":
            return "ergodicity_verdict(Sphere(%d, %d, %s), %r, max_level=%d, seed=%d)" % (
                self.p, self.e, self.c, self.map_text, self.level, self.seed)
        return "%s %s(p=%d, e=%d, a=%s) seed=%d extra=%s" % (
            self.op, self.family, self.p, self.e, self.c, self.seed, self.extra)


# ------------------------------------------------------------- map text

def _poly_text(coeffs, end_with_x: bool) -> str:
    terms = []
    for d, c in enumerate(coeffs):
        c = Fraction(c)
        if c != 0:
            mono = "" if d == 0 else ("*x" if d == 1 else "*x^%d" % d)
            terms.append((c < 0, "%s%s" % (abs(c), mono)))
    if end_with_x and (not terms or "x" not in terms[-1][1]):
        # "1/x" and "1/2*x" both start with an integer followed by '/';
        # ending the numerator with an x-term keeps its '/' a division
        terms.append((False, "0*x"))
    if not terms:
        terms = [(False, "0")]
    text = ("-" if terms[0][0] else "") + terms[0][1]
    return text + "".join(("-" if neg else "+") + t for neg, t in terms[1:])


def map_text(num, den) -> str:
    """DSL text for num/den; the map DSL parses it back to the same map."""
    if tuple(den) == (Fraction(1),):
        return _poly_text(num, False)
    return _poly_text(num, True) + "/" + _poly_text(den, False)


def conjugate(p: int, e: int, c, g_num, g_den) -> tuple:
    """f(x) = c + p^-e g(p^e (x - c)): g on S_1(0) moved onto S_{p^e}(c)."""
    c = Fraction(c)
    pe = Fraction(p) ** e
    gn = pcompose_linear(g_num, -pe * c, pe)
    gd = pcompose_linear(g_den, -pe * c, pe)
    num = padd(pscale(gd, c), pscale(gn, 1 / pe))
    if len(gd) == 1:
        return tuple(pscale(num, 1 / gd[0])), (Fraction(1),)
    return tuple(num), tuple(gd)


# ------------------------------------------------------------ generators

def _center(rng: Random, p: int) -> Fraction:
    return rng.choice([Fraction(1), Fraction(-1), Fraction(3), Fraction(p + 1),
                       Fraction(1, p), Fraction(5, 3) if p != 3 else Fraction(7, 2),
                       Fraction(p), Fraction(-2 * p - 1)])


def _pick(rng: Random, values):
    return Fraction(rng.choice(values))


def _deep_round(rng: Random) -> list:
    """verdict_deep: Q_2, max_level 10-16, affine and Moebius, ergodic or split.

    Each slot fixes its family, its level and whether its sphere is S_1(0)
    or has c != 0 and e != 0 (re-embedding a nonzero center costs time), so
    that the cost of a round barely depends on the seed.
    """
    out = []
    slots = [("ergodic-affine", 10, True), ("ergodic-affine", 11, False),
             ("ergodic-affine", 11, True), ("ergodic-affine", 12, True),
             ("ergodic-affine", 13, False), ("ergodic-mobius", 10, False),
             ("ergodic-mobius", 11, False),
             ("ergodic-mobius", 12, True), ("ergodic-mobius", 13, True),
             ("split-affine", 14, True), ("split-affine", 16, False),
             ("split-mobius", 15, True), ("split-mobius", 16, False)]
    for family, level, shifted in slots:
        e, c = (rng.choice([-2, -1, 1, 2]), _center(rng, 2)) if shifted else (0, Fraction(0))
        if family == "ergodic-affine":
            # a = 1 mod 4, b = 2 mod 4: ergodic on Z_2^x up to every level
            g = ([_pick(rng, [2, 6, 10, -2, -6, 14]), _pick(rng, [1, 5, 9, 13, -3, -7])], [1])
        elif family == "split-affine":
            # a = 3 mod 4, b = 0 mod 4: constant displacement 2, split at level 3
            g = ([_pick(rng, [0, 4, 8, -4, 12]), _pick(rng, [3, 7, 11, -1, -5])], [1])
        elif family == "ergodic-mobius":
            # T/(2uT+1), u odd: inversion-conjugate of T + 2u
            g = ([0, 1], [1, 2 * _pick(rng, [1, 3, 5, -1, -3])])
        else:
            # T/(a+bT): inversion-conjugate of the split affine aS + b
            g = ([0, 1], [_pick(rng, [3, 7, 11, -1, -5]), _pick(rng, [4, 8, -4, 12])])
        num, den = conjugate(2, e, c, *g)
        out.append(Request("verdict", family, 2, e, c, num, den, level,
                           seed=rng.randrange(1 << 16)))
    return out


def _translation(rng: Random, p: int, e: int, c: Fraction, vt: int, op: str, **kw) -> Request:
    num = (Fraction(p) ** (vt - e), Fraction(1))
    return Request(op, "translation", p, e, c, num, vt=vt, seed=rng.randrange(1 << 16), **kw)


def _sweep_round(rng: Random) -> list:
    """verdict_sweep: shallow CLI requests over p in {2,3,5,7}, about 15% orbits."""
    out = []
    for p in (2, 3, 5, 7):
        for family in ("translation", "translation", "scaling", "reflection",
                       "nonconstant", "inversion", "square"):
            e = rng.randint(-1, 1)
            c = Fraction(0) if rng.random() < 0.3 else _center(rng, p)
            level = rng.randint(2, 6)
            if family == "translation":
                out.append(_translation(rng, p, e, c, rng.randint(1, WINDOW_DIGITS - 1),
                                        "ergodic", level=level))
                continue
            if family == "inversion":
                # 1/x maps S_1(c) onto itself when |c| < 1; fixed points +-1
                e, c = 0, Fraction(p * rng.choice([0, 1, -1, 2]))
                num, den = (Fraction(1),), (Fraction(0), Fraction(1))
            elif family == "square":
                num, den = (Fraction(0), Fraction(0), Fraction(1)), (Fraction(1),)
            else:
                g = {"scaling": [0, p + 1], "reflection": [p, -1],
                     "nonconstant": [p, p + 1]}[family]
                num, den = conjugate(p, e, c, g, [1])
            out.append(Request("ergodic", family, p, e, c, num, den, level,
                               seed=rng.randrange(1 << 16)))
    # translation offsets past the working window: 2 of the round's 12
    # translations, one verdict and one orbit (ROADMAP item 4)
    p = rng.choice((2, 3, 5, 7))
    e = rng.randint(-1, 1)
    out.append(_translation(rng, p, e, _center(rng, p),
                            rng.randint(WINDOW_DIGITS, WINDOW_DIGITS + 8), "ergodic",
                            level=rng.randint(2, 6)))
    orbit_slots = [("translation", False), ("translation", False), ("scaling", False),
                   ("scaling", False), ("translation", True)]
    for family, past in orbit_slots:
        p = rng.choice((2, 3, 5, 7))
        e = rng.randint(-1, 1)
        c = _center(rng, p)
        x0 = c + Fraction(p) ** (-e) * rng.choice([t for t in range(1, p * p) if t % p])
        extra = (x0, ORBIT_ITERS)
        if family == "translation":
            # below 17 no gap (i - j) p^m with i - j <= 2000 reaches the
            # window, so exactly one orbit per round meets ROADMAP item 4
            vt = rng.randint(WINDOW_DIGITS, WINDOW_DIGITS + 8) if past else rng.randint(1, 16)
            out.append(_translation(rng, p, e, c, vt, "orbit", extra=extra))
        else:
            num, den = conjugate(p, e, c, [0, 1 + p * rng.choice([1, 2, -1])], [1])
            out.append(Request("orbit", "scaling", p, e, c, num, den, extra=extra))
    return out


_LEVELS = {2: 4, 3: 3, 5: 2, 7: 2}
_BALL_LEVELS = {2: 3, 3: 2, 5: 1, 7: 1}


def _carrier_pool(rng: Random) -> list:
    """Six carriers per prime: three balls, three spheres, nonzero centers.

    A ball's center is drawn outside V_{p^e}(0), so that its canonical
    center is never 0: every ball then pays for its center the way a
    sphere does, and a round costs the same whatever the seed.
    """
    pool = []
    for p in (2, 3, 5, 7):
        for kind in ("ball", "sphere") * 3:
            e = rng.randint(-2, 2)
            if kind == "ball":
                unit = Fraction(rng.choice([1, -1, p + 1, 2 * p + 1, -2 * p - 1]))
                pool.append((kind, p, e, unit * Fraction(p) ** (-e - 1)))
            else:
                pool.append((kind, p, e, _center(rng, p)))
    return pool


def _subset(rng: Random, n: int) -> tuple:
    """Half of n cells (at least one), so each request's size is fixed."""
    return tuple(sorted(rng.sample(range(n), max(1, n // 2))))


def _carrier_round(rng: Random, pool: list) -> list:
    """carrier_algebra: group laws, iso round trips and Haar requests."""
    out = []
    for i, p in enumerate((2, 3, 5, 7)):
        mine = [c for c in pool if c[1] == p]
        balls = [c for c in mine if c[0] == "ball"]
        spheres = [c for c in mine if c[0] == "sphere"]
        for op, kinds in (("law", balls), ("law", spheres), ("combine", balls),
                          ("combine", spheres), ("iso", balls), ("iso", spheres)):
            (kind, _, e, c), (_, _, e2, c2) = rng.sample(kinds, 2)
            seed = rng.randrange(1 << 16)
            if op == "law":
                extra = (6,)
            elif op == "combine":
                extra = (12,)
            else:
                extra = (e2, c2, 12)
            out.append(Request(op, kind, p, e, c, seed=seed, extra=extra))
        _, _, e, c = rng.choice(spheres)
        k = _LEVELS[p]
        out.append(Request("haar", "sphere", p, e, c, level=k,
                           extra=_subset(rng, oracle.cell_count(p, k))))
        kind, _, e, c = rng.choice(spheres if i % 2 == 0 else balls)
        k = _LEVELS[p] if kind == "sphere" else _BALL_LEVELS[p]
        n = oracle.cell_count(p, k) if kind == "sphere" else p ** k
        out.append(Request("invariance", kind, p, e, c, level=k,
                           seed=rng.randrange(1 << 16), extra=_subset(rng, n)))
    return out


def generate(name: str, seed: int) -> list:
    """The workload's rounds for this seed: a list of lists of Requests."""
    rng = Random("%s/%d" % (name, seed))
    if name == "verdict_deep":
        return [_deep_round(rng) for _ in range(ROUNDS)]
    if name == "verdict_sweep":
        return [_sweep_round(rng) for _ in range(ROUNDS)]
    if name == "carrier_algebra":
        pool = _carrier_pool(rng)
        return [_carrier_round(rng, pool) for _ in range(ROUNDS)]
    raise KeyError(name)


def request_hash(rounds: list) -> str:
    h = hashlib.sha256()
    for rnd in rounds:
        for req in rnd:
            h.update(req.describe().encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- run

@dataclass
class Outcome:
    """What one request returned, or the exception it raised."""

    value: object = None
    error: BaseException | None = None
    text: str = ""


def cli_call(lib, argv: list) -> tuple:
    """padicdyn.cli.run in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def build(lib, rounds: list) -> dict:
    """Library inputs for every distinct request (the measured set-up)."""
    inputs = {}
    for rnd in rounds:
        for req in rnd:
            if req in inputs:
                continue
            if req.op == "verdict":
                inputs[req] = (lib.geometry.Sphere(req.p, req.e, req.c),
                               lib.mapdsl.parse_map(req.map_text))
            elif req.op in ("ergodic", "orbit"):
                inputs[req] = req.argv()
            else:
                inputs[req] = _carrier_inputs(lib, req)
    return inputs


def _group(lib, kind: str, p: int, e: int, c):
    cls = lib.groups.BallGroup if kind == "ball" else lib.groups.SphereGroup
    return cls(p, e, c)


def _carrier_inputs(lib, req: Request):
    g = _group(lib, req.family, req.p, req.e, req.c)
    if req.op == "iso":
        return g, _group(lib, req.family, req.p, req.extra[0], req.extra[1])
    if req.op in ("haar", "invariance") and req.family == "ball":
        step = Fraction(req.p) ** (-req.e)
        subs = [lib.geometry.canonical_ball(req.c + i * step, req.e - req.level, p=req.p)
                for i in range(req.p ** req.level)]
        return g, [subs[j] for j in req.extra]
    return g, None


def execute(lib, req: Request, inp) -> object:
    """The timed part of a request.  Calls go through module attributes."""
    if req.op == "verdict":
        s, f = inp
        return lib.dynamics.ergodicity_verdict(s, f, max_level=req.level, seed=req.seed)
    if req.op in ("ergodic", "orbit"):
        return cli_call(lib, inp)
    g, extra = inp
    rng = Random(req.seed)
    if req.op == "law":
        return lib.groups.check_group_axioms(g, trials=req.extra[0], seed=req.seed)
    if req.op == "combine":
        out = []
        for _ in range(req.extra[0]):
            x, y = g.sample(rng), g.sample(rng)
            out.append((x, y, g.combine(x, y), g.inverse(x)))
        return out
    if req.op == "iso":
        h = extra
        out = []
        for _ in range(req.extra[2]):
            x = g.sample(rng)
            y = lib.groups.iso(g, h, x)
            out.append((x, y, lib.groups.iso(h, g, y)))
        return out
    if req.op == "haar":
        s = g.carrier
        cells = lib.geometry.sphere_cells(s, req.level)
        region = lib.geometry.clopen(s, [cells[j] for j in req.extra])
        merged = lib.measure.normalize_clopen(region)
        return (lib.measure.haar_clopen(region), lib.measure.normalized_measure(s, region),
                [(b.p, b.e) for b in merged.balls])
    parent = g.carrier
    if req.family == "sphere":
        cells = lib.geometry.sphere_cells(parent, req.level)
        chosen = [cells[j] for j in req.extra]
    else:
        chosen = extra
    region = lib.geometry.clopen(parent, chosen)
    return lib.measure.invariance_check(g, g.sample(rng), region)


# --------------------------------------------------------------- checks

@dataclass
class Checker:
    """Oracle answers, computed once per distinct request."""

    cache: dict = field(default_factory=dict)

    def expected(self, req: Request):
        if req not in self.cache:
            self.cache[req] = _expected(req)
        return self.cache[req]

    def check(self, req: Request, outcome: Outcome) -> tuple:
        """(ok, detail).  A raised exception is a failure, never an abort."""
        try:
            want = self.expected(req)
        except (oracle.OracleUndecided, oracle.OracleNotPermutation) as err:
            return False, "the oracle cannot decide this request: %s" % err
        if outcome.error is not None:
            return False, "raised %s: %s; oracle %s" % (
                type(outcome.error).__name__, outcome.error, _short(want))
        got = render(req, outcome.value)
        outcome.text = got if isinstance(got, str) else json.dumps(got, sort_keys=True, default=str)
        try:
            ok = _agrees(req, got, want)
        except Exception as err:  # an answer the oracle cannot read is a failure
            return False, "unreadable answer (%s: %s): %s" % (type(err).__name__, err, _short(got))
        return ok, "" if ok else "got %s; oracle %s" % (_short(got), _short(want))


def _short(x, limit: int = 400) -> str:
    text = x if isinstance(x, str) else json.dumps(x, sort_keys=True, default=str)
    return text if len(text) <= limit else text[:limit] + "..."


def _sphere_map(req: Request) -> oracle.SphereMap:
    return oracle.SphereMap(req.p, req.e, req.c, req.num, req.den)


def _expected(req: Request):
    if req.op in ("verdict", "ergodic"):
        return oracle.expected_verdict(_sphere_map(req), req.level)
    if req.op == "orbit":
        want = oracle.expected_orbit(_sphere_map(req), req.extra[0], req.extra[1])
        return dict(want, points=[str(q) for q in want["points"]])
    if req.op == "law":
        return [[law, req.extra[0], True] for law in
                ("commutativity", "associativity", "identity", "inverse")]
    if req.op == "haar":
        n = len(req.extra)
        return {"haar": str(oracle.cells_haar(req.p, req.e, req.level, n)),
                "normalized": str(oracle.cells_normalized(req.p, req.level, n))}
    if req.op == "invariance":
        n = len(req.extra)
        mass = oracle.cells_haar(req.p, req.e, req.level, n) if req.family == "sphere" \
            else n * Fraction(req.p) ** (req.e - req.level)
        return {"preserved": True, "before": str(mass), "after": str(mass)}
    return "the exact %s of every sampled element" % req.op


def render(req: Request, value):
    """Library answer as plain data (untimed): strings, numbers, lists."""
    if req.op == "verdict":
        return dict(value.as_dict(), invariant_measure=None if value.invariant_measure is None
                    else str(value.invariant_measure))
    if req.op in ("ergodic", "orbit"):
        rc, out, err = value
        return {"exit": rc, "stdout": out, "stderr": err}
    if req.op == "law":
        return [[r.law, r.trials, r.passed] for r in value]
    if req.op in ("combine", "iso"):
        return [[x.render() for x in row] for row in value]
    if req.op == "haar":
        haar, normalized, merged = value
        return {"haar": str(haar), "normalized": str(normalized),
                "merged_mass": str(sum(Fraction(p) ** e for p, e in merged))}
    return {"preserved": value.preserved, "before": str(value.before),
            "after": str(value.after)}


def _agrees(req: Request, got, want) -> bool:
    p = req.p
    if req.op == "verdict":
        got = dict(got)
        measure = got.pop("invariant_measure")
        return oracle.verdict_matches(got, want, measure)
    if req.op in ("ergodic", "orbit"):
        if got["exit"] != 0:
            return False
        answer = json.loads(got["stdout"])
        if req.op == "ergodic":
            return oracle.verdict_matches(answer, want)
        want = dict(want, points=[Fraction(q) for q in want["points"]])
        return oracle.orbit_matches(answer, want, p)
    if req.op == "law":
        return got == want
    if req.op == "haar":
        return got["haar"] == want["haar"] == got["merged_mass"] \
            and got["normalized"] == want["normalized"]
    if req.op == "invariance":
        return got == want
    if req.op == "combine":
        kind, e, a = req.family, req.e, req.c
        for x_t, y_t, z_t, w_t in got:
            x, y = oracle.literal_value(x_t), oracle.literal_value(y_t)
            if not (oracle.in_carrier(kind, p, e, a, x) and oracle.in_carrier(kind, p, e, a, y)):
                return False
            if kind == "ball":
                z, w = oracle.ball_combine(a, x, y), oracle.ball_inverse(a, x)
            else:
                z, w = oracle.sphere_combine(p, e, a, x, y), oracle.sphere_inverse(p, e, a, x)
            if not (oracle.literal_holds(z_t, z, p) and oracle.literal_holds(w_t, w, p)):
                return False
        return True
    e2, a2, _ = req.extra
    for x_t, y_t, back_t in got:
        x = oracle.literal_value(x_t)
        if not oracle.literal_holds(y_t, oracle.iso_value(p, req.e, req.c, e2, a2, x), p):
            return False
        if not oracle.literal_holds(back_t, x, p):
            return False
    return True


def known_defect(req: Request) -> str | None:
    """The ROADMAP item a failing request is already filed under, if any.

    ROADMAP item 4: a difference that vanishes through the working window
    is taken for zero.  For x + p^m that happens once the offset, or for an
    orbit the gap (i - j) p^m between two iterates, reaches the window.  An
    orbit that starts at 0 meets it for any map: the exact zero carries no
    window, the first iterate gets only the 8 guard digits of the map's
    coefficients, and the repeat test then certifies a false period.
    """
    if req.op == "orbit" and req.extra[0] == 0:
        return "ROADMAP item 4: orbit from 0 keeps an 8-digit window and a false period"
    if req.family != "translation":
        return None
    reach = req.vt
    if req.op == "orbit":
        n = req.extra[1]
        while n >= req.p:
            n //= req.p
            reach += 1
    if reach >= WINDOW_DIGITS:
        return "ROADMAP item 4: translation difference past the %d-digit window" % WINDOW_DIGITS
    return None
