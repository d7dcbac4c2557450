"""supcalc benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload audit-corpus --seed 0 --seconds 20 --trace 0

A run sets the workload up (fresh import, reference answers, instance
generation), then runs whole passes over the workload's corpus, each on
freshly generated instances so cached conjugates and generators start
cold, until the timed ops add up to at least ``--seconds``.  Every
answer is checked against ``reference.json`` after its pass, outside
the timer.  Set-up is timed a few times before the first pass and then
again between instances throughout the run, outside the op timer, and
reported as the mean of these timings.  The host has slow spells of a
few seconds; like the op throughput, a mean over the whole run takes in
the slow share of the run evenly, where a median or a minimum of the
set-ups jumped between runs with whether a slow spell was caught.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` one untraced pass gives the throughput against which
tracing overhead is measured, then traced passes give per-layer values
per pass.  Earlier stdout lines carry an environment stamp and a
readable summary, including the failure ratio and the p50 and p90
latencies.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
import workloads

SETUP_REPEATS = 3  # set-ups timed before the first pass
SETUP_EVERY_S = 1.0  # then one more after each this many seconds of timed ops
P90_MIN_OPS = 100
MAX_LISTED_FAILURES = 20

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_iqm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def set_up(workload: str, seed: int):
    """One set-up: fresh import, reference answers, the workload's instances."""
    t0 = perf_counter()
    S = workloads.import_supcalc()
    reference = workloads.load_reference(workload)
    units = workloads.WORKLOADS[workload](S, seed)
    return S, reference, units, perf_counter() - t0


def setup_sample(workload: str, seed: int) -> float:
    """Time one more set-up, then give the running ops back their own modules."""
    kept = {n: m for n, m in sys.modules.items() if workloads.is_supcalc(n)}
    try:
        return set_up(workload, seed)[3]
    finally:
        workloads.drop_supcalc()
        sys.modules.update(kept)
        gc.collect()


def _environment(S) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "load_1min_start": os.getloadavg()[0],
        "supcalc_dd_cap": S.polyhedron.dd_dimension_cap(),
        "supcalc_dd_cap_env": os.environ.get("SUPCALC_DD_CAP"),
        "commit": _commit(),
    }


class Run:
    """Ops, latencies and answer checks accumulated over passes."""

    def __init__(self, S, build, reference, seed: int, sample_setup=None) -> None:
        self.S = S
        self.build = build
        self.reference = reference
        self.seed = seed
        self.sample_setup = sample_setup
        self.setup_times: list[float] = []
        self.pass_latencies: list[list[float]] = []
        self.elapsed = 0.0
        self.sampled_at = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def passes(self, seconds: float, tracer=None) -> int:
        """Whole passes on fresh instances until the timed ops reach ``seconds``.

        Returns the number of passes.  Each pass's instances are dropped
        before the next are built, so peak memory does not grow with
        the number of passes.
        """
        count = 0
        while True:
            if tracer is not None:
                tracer.phase = "setup"
            units = self.build(self.S, self.seed)
            if tracer is not None:
                tracer.new_pass()
                tracer.phase = "ops"
            self.one_pass(units)
            del units
            if tracer is not None:
                tracer.phase = None
            count += 1
            if self.elapsed >= seconds:
                return count

    def one_pass(self, units) -> None:
        engine_error = self.S.errors.SupcalcError
        results = []
        lat = []
        for unit in units:
            start = perf_counter()
            for op in unit:
                t0 = perf_counter()
                try:
                    raw, error = op.fn(), None
                except engine_error as exc:
                    raw, error = None, exc
                lat.append(perf_counter() - t0)
                results.append((op, raw, error))
            self.elapsed += perf_counter() - start
            if self.sample_setup and self.elapsed - self.sampled_at >= SETUP_EVERY_S:
                self.setup_times.append(self.sample_setup())
                self.sampled_at = self.elapsed
        self.pass_latencies.append(lat)
        for op, raw, error in results:
            self.check(op, raw, error)

    def check(self, op, raw, error) -> None:
        self.attempted += 1
        if error is not None:
            problems = [(op.name, type(error).__name__, str(error)[:200])]
        else:
            got = op.encode(raw)
            want = self.reference.get(str(op.seed), {}).get(op.name, {})
            problems = [
                (op.name if op.name != "fuzz" else key, "mismatch",
                 f"{key}: got {got.get(key)!r}, want {want.get(key)!r}")
                for key in sorted(set(got) | set(want))
                if got.get(key) != want.get(key)
            ]
        if problems:
            self.failed += 1
            for ident, kind, detail in problems:
                if len(self.failures) < MAX_LISTED_FAILURES:
                    self.failures.append(
                        {"seed": op.seed, "identity": ident, "kind": kind, "detail": detail})

    @property
    def latencies(self) -> list[float]:
        return [t for lat in self.pass_latencies for t in lat]

    def end_to_end(self) -> dict[str, float]:
        return {
            "ops_per_s": len(self.latencies) / self.elapsed,
            "op_iqm_ms": _iqm_ms(self.latencies),
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _iqm_ms(latencies: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the latencies.

    The median of a pass is set by the one or two ops that land in the
    middle, so it follows the host's speed during those few milliseconds.
    The middle half measures the same typical op over half of all ops,
    and repeats between runs about as closely as the throughput does.
    """
    lat = sorted(latencies)
    cut = len(lat) // 4
    return statistics.fmean(lat[cut:len(lat) - cut]) * 1000


def _p90_ms(latencies: list[float]) -> float | None:
    if len(latencies) < P90_MIN_OPS:
        return None
    return statistics.quantiles(latencies, n=10)[-1] * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    build = workloads.WORKLOADS[args.workload]

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            S, reference, _, seconds = set_up(args.workload, args.seed)
            setup_times.append(seconds)
        env = _environment(S)
        if args.trace:
            run = Run(S, build, reference, args.seed)
            run.passes(0.0)
            timed = Run(S, build, reference, args.seed)
            tracer = tracing.Tracer()
            tracer.install()
            passes = timed.passes(args.seconds, tracer)
            tracer.verify()
            overhead = timed.end_to_end()["ops_per_s"] / run.end_to_end()["ops_per_s"]
            values = tracer.metrics(passes, overhead)
            wanted = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
            checked = [run, timed]
        else:
            run = Run(S, build, reference, args.seed,
                      sample_setup=lambda: setup_sample(args.workload, args.seed))
            passes = run.passes(args.seconds)
            setup_times += run.setup_times
            values = run.end_to_end()
            values["setup_s"] = statistics.fmean(setup_times)
            values["peak_rss_mb"] = _peak_rss_mb()
            wanted = list(END_TO_END_UNITS.items())
            timed, checked = run, [run]
    except (workloads.SetupError, tracing.TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env["load_1min_end"] = os.getloadavg()[0]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    failures = [f for r in checked for f in r.failures][:MAX_LISTED_FAILURES]
    ops = len(timed.latencies)
    p90 = _p90_ms(timed.latencies)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops": ops,
        "timed_s": timed.elapsed,
        "pass_ops_per_s": [len(lat) / sum(lat) for lat in timed.pass_latencies],
        "op_fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "op_p50_ms": {"value": statistics.median(timed.latencies) * 1000, "unit": "ms",
                      "samples": ops},
        "op_p90_ms": None if p90 is None else {"value": p90, "unit": "ms", "samples": ops},
        "setup_runs_s": setup_times,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    if failures:
        print(json.dumps({"failures": failures}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
