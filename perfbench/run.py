#!/usr/bin/env python3
"""padicdyn benchmark: one client in a closed loop, every answer checked.

    python3 perfbench/run.py --workload verdict_deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a checkout; the library is imported from its `src`.
The seed fixes the request list, one round of fixed composition.  With
--trace 0 the round repeats until --seconds of request time has been
spent, each request timed alone, and the last line reports the end-to-end
metrics over the quickest FASTEST executions of each request.  With --trace 1
the round runs once untraced and once traced (see tracing.py) and the last
line reports the per-layer metrics.

Every answer is compared with the oracle in oracle.py, outside the timed
region.  `failed` counts requests that raised or disagreed with the oracle;
each is listed above the last line.  `correct` is false when a failure is
not one of the known defects that workloads.known_defect names, or when a
determinism check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verdict_deep", "verdict_sweep", "carrier_algebra")
MODULES = ("errors", "padic", "geometry", "groups", "measure", "mapdsl", "dynamics", "cli")
# set-up is measured again every SETUP_EVERY_S seconds of request time, so
# that its median spans the whole run rather than one moment of it
SETUP_EVERY_S = 2.0
# metrics use each request's FASTEST quickest executions (all of them in a
# shorter run); tail latency is the highest of LADDER with at least ten of
# those samples beyond it
FASTEST = 4
LADDER = (99.9, 99, 95, 90, 75, 50)
WALL_LIMIT_S = 120.0


def load_library() -> SimpleNamespace:
    """A fresh import of padicdyn from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "padicdyn" or m.startswith("padicdyn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("padicdyn")
    if Path(pkg.__file__).resolve().parent != (ROOT / "src" / "padicdyn").resolve():
        raise ImportError("padicdyn was imported from %s, not this checkout" % pkg.__file__)
    return SimpleNamespace(**{m: importlib.import_module("padicdyn." + m) for m in MODULES})


def setup(rounds: list):
    """Import the library and build the inputs; (lib, inputs, seconds)."""
    t0 = perf_counter()
    lib = load_library()
    inputs = workloads.build(lib, rounds)
    return lib, inputs, perf_counter() - t0


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list) -> tuple:
    n = len(sorted_values)
    for q in LADDER:
        if n * (100 - q) / 100 >= 10:
            return q, percentile(sorted_values, q)
    return 50, percentile(sorted_values, 50)


def run_one(lib, req, inp) -> workloads.Outcome:
    try:
        return workloads.Outcome(workloads.execute(lib, req, inp))
    except Exception as exc:  # a request that raises is a failure, not an abort
        return workloads.Outcome(error=exc)


class Tally:
    """Attempts and failures; failures keep the request and the oracle's answer."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict = {}
        self.problems: list = []

    def record(self, req, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            entry = self.failures.setdefault(req, [0, detail])
            entry[0] += 1

    @property
    def failed(self) -> int:
        return sum(n for n, _ in self.failures.values())

    @property
    def correct(self) -> bool:
        unexpected = [r for r in self.failures if workloads.known_defect(r) is None]
        return not unexpected and not self.problems

    def lines(self) -> list:
        out = ["problem: " + p for p in self.problems]
        for req, (n, detail) in self.failures.items():
            tag = workloads.known_defect(req) or "UNEXPECTED"
            out.append("failure x%d [%s] %s -> %s" % (n, tag, req.describe(), detail))
        return out


def timed_run(lib, inputs, rounds, seconds, checker, tally, setup_times=None):
    """Whole rounds until `seconds` of request time; oracle time excluded.

    Returns (latencies per request, rounds run, texts of round 1, peak RSS
    in MB).  Between rounds a fresh import and input build is timed every
    SETUP_EVERY_S seconds (appended to setup_times); the requests keep
    using `lib`.
    """
    samples: dict = {}
    first_texts = {}
    spent = 0.0
    next_setup = SETUP_EVERY_S
    n_rounds = 0
    wall0 = perf_counter()
    while spent < seconds and perf_counter() - wall0 < WALL_LIMIT_S:
        for req in rounds[n_rounds % len(rounds)]:
            t0 = perf_counter()
            outcome = run_one(lib, req, inputs[req])
            dt = perf_counter() - t0
            samples.setdefault(req, []).append(dt)
            spent += dt
            tally.record(req, *checker.check(req, outcome))
            if n_rounds == 0:
                first_texts[req] = outcome.text
        n_rounds += 1
        if setup_times is not None and spent >= next_setup:
            setup_times.append(setup(rounds)[2])
            next_setup += SETUP_EVERY_S
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return samples, n_rounds, first_texts, peak_kb / 1024


def fastest(samples: dict) -> list:
    """The FASTEST quickest executions of every request.

    A request repeats with the same inputs in every round, so its
    executions differ only in how much other load the machine carried.  On
    a shared machine that load slows whole stretches of a run by up to 40%;
    a request's quickest executions follow the program's own speed, and a
    fixed number per request keeps the sample count, and so the tail
    percentile, the same in every run.
    """
    kept = []
    for lats in samples.values():
        kept += sorted(lats)[:FASTEST]
    return kept


def output_digest(rounds: list, texts: dict) -> str:
    h = hashlib.sha256()
    for req in rounds[0]:
        h.update(texts[req].encode())
    return h.hexdigest()[:16]


def end_to_end(name, lib, inputs, rounds, seconds, setup_s, tally, report):
    checker = workloads.Checker()
    setup_times = [setup_s]
    samples, n_rounds, texts, rss = timed_run(lib, inputs, rounds, seconds, checker, tally,
                                              setup_times)
    if name == "verdict_sweep":
        again = {}
        for req in rounds[0]:
            outcome = run_one(lib, req, inputs[req])
            checker.check(req, outcome)
            again[req] = outcome.text
        same = again == texts
        if not same:
            tally.problems.append("verdict_sweep JSON output differs on a repeated run")
        report.append("output bytes of round 1: sha256 %s, identical when re-run: %s"
                      % (output_digest(rounds, texts), "yes" if same else "NO"))
    kept = fastest(samples)
    spent = sum(kept)
    lat_ms = sorted(x * 1e3 for x in kept)
    q, tail_ms = tail(lat_ms)
    n = len(lat_ms)
    all_n = sum(len(lats) for lats in samples.values())
    all_s = sum(sum(lats) for lats in samples.values())
    error_rate = tally.failed / tally.attempted
    report.append("loop: closed, 1 client, %d rounds of %d requests, %d requests in %.2f s "
                  "(%.4g requests/s over all of them); metrics below use the %d quickest "
                  "executions of each request" % (n_rounds, len(rounds[0]), all_n, all_s,
                                                   all_n / all_s, FASTEST))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    "median of %d imports and input builds" % len(setup_times)),
        "requests_per_s": (n / spent, "1/s", "%d requests in %.2f s" % (n, spent)),
        "latency_ms_p50": (percentile(lat_ms, 50), "ms", "%d samples" % n),
        "latency_ms_tail": (tail_ms, "ms", "p%g of %d samples" % (q, n)),
        "success_rate": (1 - error_rate, "ratio", "1 - error_rate"),
        "peak_rss_mb": (rss, "MB", "ru_maxrss"),
    }
    report.append("%-40s %.6g ratio (%d failed of %d attempted)"
                  % ("error_rate", error_rate, tally.failed, tally.attempted))
    return metrics


def traced_run(name, lib, inputs, rounds, seed, tally, report):
    """The first round, untraced then traced; per-layer metrics."""
    checker = workloads.Checker()
    tr = tracing.Tracer()
    untraced_ns = traced_ns = 0
    replays = 0
    for i, req in enumerate(rounds[0]):
        inp = inputs[req]
        tr.request = i + 1
        tr.request_level = req.level if req.op in ("verdict", "ergodic") else None
        t0 = perf_counter_ns()
        ref = run_one(lib, req, inp)
        untraced_ns += perf_counter_ns() - t0
        tally.record(req, *checker.check(req, ref))
        t0 = perf_counter_ns()
        try:
            with tr.active(lib):
                if req.op == "verdict":
                    got = tracing.replay_verdict(lib, tr, inp[0], inp[1], req.level, seed=req.seed)
                else:
                    got = workloads.execute(lib, req, inp)
        except Exception as exc:
            got = exc
        traced_ns += perf_counter_ns() - t0
        if ref.error is not None or isinstance(got, Exception):
            if type(ref.error) is not type(got):
                tally.problems.append("traced run raised %r, untraced %r: %s"
                                      % (got, ref.error, req.describe()))
            continue
        if req.op == "verdict":
            same = (got.as_dict(), got.invariant_measure) == \
                (ref.value.as_dict(), ref.value.invariant_measure)
        else:
            same = workloads.render(req, got) == workloads.render(req, ref.value)
        if req.op == "ergodic":
            s = lib.geometry.Sphere(req.p, req.e, req.c)
            f = lib.mapdsl.parse_map(req.map_text)
            replayed = tracing.replay_verdict(lib, tracing.Tracer(), s, f, req.level, seed=req.seed)
            stdout = ref.value[1]
            same = same and json.loads(stdout) == json.loads(json.dumps(replayed.as_dict()))
        replays += req.op in ("verdict", "ergodic")
        if not same:
            tally.problems.append("traced or replayed answer differs from the untraced one: "
                                  + req.describe())
    probe = tracing.Tracer()
    first = rounds[0][0]
    with probe.active(lib):
        tracing.layer_probe(lib, probe, first.p, first.e, first.c)
    out = tracing.per_layer(tr, probe)
    out["trace.overhead_pct"] = ((traced_ns - untraced_ns) / untraced_ns * 100, "%", "workload")
    tr.write(HERE / "out" / ("spans-%s-seed%d.jsonl" % (name, seed)))
    report.append("traced round: %d requests, %d verdicts replayed stage by stage and matched; "
                  "untraced %.3f s, traced %.3f s" % (len(rounds[0]), replays,
                                                      untraced_ns / 1e9, traced_ns / 1e9))
    same_setting = tracing.reanchor(lib)

    def ratio(value, figure):
        r = value / figure
        return "%7.2f us = %.2fx%s" % (value, r, " GAP>2x" if r > 2 or r < 0.5 else "")
    for metric, figure in tracing.ROADMAP_FIGURES.items():
        report.append("re-anchor %-38s ROADMAP %5.1f us | same setting %s | traced here %s"
                      % (metric, figure, ratio(same_setting[metric], figure),
                         ratio(out[metric][0], figure)))
    return {k: (v, unit, "" if src == "workload" else "from the layer probe")
            for k, (v, unit, src) in out.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    rounds = workloads.generate(name, seed)
    digest = workloads.request_hash(rounds)
    tally = Tally()
    if workloads.request_hash(workloads.generate(name, seed)) != digest:
        tally.problems.append("the same seed gave a different request list")
    if workloads.request_hash(workloads.generate(name, seed + 1)) == digest:
        tally.problems.append("a different seed gave the same request list")
    lib, inputs, setup_s = setup(rounds)
    report = ["workload %s seed %d seconds %d trace %d" % (name, seed, seconds, trace),
              "request list: %d rounds of %d, sha256 %s" % (len(rounds), len(rounds[0]), digest)]
    if trace:
        metrics = traced_run(name, lib, inputs, rounds, seed, tally, report)
    else:
        metrics = end_to_end(name, lib, inputs, rounds, seconds, setup_s, tally, report)
    for key, (value, unit, note) in metrics.items():
        report.append("%-40s %.6g %s%s" % (key, value, unit, "  (%s)" % note if note else ""))
    report += tally.lines()
    print("\n".join(report))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, in turn; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = val
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "padicdyn" / "__init__.py").is_file():
        print("error: no padicdyn sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
