"""Wall-clock benchmark of the IronSafe reproduction.

    python3 perfbench/run.py --workload tpch_scs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped; wall
times are scaled to a reference machine speed (see ``perfbench/probe.py``).
``--trace 1`` runs every pass untraced on one build and traced on a
second, alternately, checks that tracing changed no rows and no simulated
time, and reports the per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object.  The exit code is non-zero when any answer is
wrong, a request raises, or a traced-run self-check fails.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fewest requests in a timed phase, so ten samples lie beyond p90.
MIN_REQUESTS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "req/s"),
    ("sim_ms_per_request", "sim-ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(samples: list[float], fraction: float) -> float:
    """Percentile by the exclusive method of :func:`statistics.quantiles`."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    cuts = statistics.quantiles(samples, n=100)
    return cuts[round(fraction * 100) - 1]


class Phase:
    """Requests of one phase in order, with what each returned."""

    def __init__(self) -> None:
        self.requests: list = []
        self.outcomes: list = []  # None where the request raised
        self.errors: list[str] = []
        #: Wall seconds of the phase's passes, summed.
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def pairs(self) -> list:
        """(request, outcome) of every request that returned."""
        return [(r, o) for r, o in zip(self.requests, self.outcomes) if o is not None]


def run_requests(workload, target, requests, phase: Phase, recorder=None,
                 probed: bool = False) -> None:
    """Run *requests* on *target* in order, one in flight; append to *phase*.

    When *probed* (the untraced timed phase), the speed probe runs after
    every request, each outcome gets the scale factor of the probe's mean
    over the call, and its rows are packed until the checks.
    """
    clock = time.perf_counter
    samples: list[float] = []
    first = phase.attempted
    begin = clock()
    for request in requests:
        outcome = None
        if recorder is not None:
            span = recorder.begin_request(phase.attempted)
        try:
            start = clock()
            outcome = workload.execute(target, request)
            outcome.wall_s = clock() - start
        except Exception:  # a failing request is counted, not fatal
            phase.errors.append(f"{request.kind} {request.label}: {traceback.format_exc()}")
        finally:
            if recorder is not None:
                recorder.end(span)
        phase.requests.append(request)
        phase.outcomes.append(outcome)
        if probed:
            if outcome is not None:
                outcome.pack()
            samples.extend(probe.sample(probe.PER_REQUEST))
    phase.wall_s += clock() - begin
    if probed:
        factor = probe.scale(samples)
        for outcome in phase.outcomes[first:]:
            if outcome is not None:
                outcome.scale = factor


def timed_passes(workload, seconds: float, phase: Phase, min_requests: int = 1):
    """Yield the workload's next pass until another would end after *seconds*.

    The first pass is always yielded, and passes keep coming until *phase*
    holds at least *min_requests* requests.
    """
    begin = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - begin
        if passes and phase.attempted >= min_requests and elapsed + elapsed / passes > seconds:
            return
        yield workload.next_pass()
        passes += 1


def timed_setups(workload, repeats: int):
    """Build the deployment *repeats* times; keep the last.

    Returns the build and, per set-up, its wall seconds and its wall
    seconds scaled by the speed probe run just before and just after it.
    """
    times, scaled = [], []
    target = None
    for _ in range(repeats):
        target = None
        gc.collect()
        samples = probe.sample(probe.PER_SETUP)
        start = time.perf_counter()
        target = workload.build()
        times.append(time.perf_counter() - start)
        samples += probe.sample(probe.PER_SETUP)
        scaled.append(times[-1] * probe.scale(samples))
    return target, times, scaled


def warm_up(workload, target) -> Phase:
    """Untimed requests that load lazy code paths; checked with the rest."""
    phase = Phase()
    run_requests(workload, target, workload.warmup_requests(), phase)
    return phase


def device_bytes(devices) -> int:
    total = 0
    for device in devices:
        snapshot = device.snapshot()
        total += len(snapshot["pages"]) * device.page_size
        total += sum(len(value) for value in snapshot["meta"].values())
    return total


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _show(name: str, value: str, unit: str, note: str) -> None:
    print(f"{name:<22} {value:>12} {unit:<8} ({note})")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload, seconds: float) -> tuple[dict, int, list[str], Phase]:
    """Set up, warm up, run the timed phase, check it; every end-to-end metric.

    Memory and device size are read before the checks, which build the
    reference answers (TPC-H) or the replayed baseline (GDPR), so neither
    counts in ``peak_rss_mb``.
    """
    target, setup_wall, setup_times = timed_setups(workload, SETUP_REPEATS)
    warm = warm_up(workload, target)
    phase = Phase()
    gc.collect()
    for requests in timed_passes(workload, seconds, phase, MIN_REQUESTS):
        run_requests(workload, target, requests, phase, probed=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    secure_bytes = device_bytes(workload.devices(target, secure_only=True))

    workload.prepare()
    for _, outcome in phase.pairs:
        outcome.unpack()
    failures, _ = workload.check(target, warm.pairs + phase.pairs)
    problems = warm.errors + phase.errors + failures

    latencies = [outcome.scaled_s * 1000 for _, outcome in phase.pairs]
    writes = [outcome.scaled_s * 1000 for request, outcome in phase.pairs if request.is_write]
    raw = [outcome.wall_s * 1000 for _, outcome in phase.pairs]
    sims = [outcome.sim_ms for _, outcome in phase.pairs]
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 0.9),
        "throughput_qps": n / sum(latencies) * 1000 if latencies else 0.0,
        "sim_ms_per_request": statistics.fmean(sims) if sims else 0.0,
        "space_amp": secure_bytes / workload.logical_bytes(target),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = warm.attempted + phase.attempted
    print(f"setup runs: {', '.join(f'{t:.3f}' for t in setup_times)} s at reference speed; "
          f"{', '.join(f'{t:.3f}' for t in setup_wall)} s wall")
    print(f"timed phase: {n} requests in {phase.wall_s:.3f} s wall, "
          f"{sum(raw) / 1000:.3f} s of it in requests, "
          f"{sum(latencies) / 1000:.3f} s at reference speed")
    if raw:
        print(f"unscaled wall: latency_p50_ms {_fmt(statistics.median(raw))}, "
              f"latency_p90_ms {_fmt(percentile(raw, 0.9))}, "
              f"throughput_qps {_fmt(n / sum(raw) * 1000)}")
    notes = {"setup_s": f"median of {len(setup_times)}", "peak_rss_mb": "ru_maxrss"}
    for name, unit in END_TO_END:
        _show(name, _fmt(metrics[name]), unit, notes.get(name, f"n={n}"))
    for name, fraction in (("write_p50_ms", 0.5), ("write_p90_ms", 0.9)):
        if writes:
            _show(name, _fmt(percentile(writes, fraction)), "ms", f"n={len(writes)}")
        else:
            _show(name, "-", "ms", "no writes in this workload")
    _show("error_rate", _fmt(len(problems) / attempted), "fraction",
         f"{len(problems)} of {attempted}")
    print("per request kind: mean sim ms, mean wall ms, share of request wall time")
    total_wall = sum(latencies)
    for kind in sorted({request.kind for request, _ in phase.pairs}):
        rows = [o for r, o in phase.pairs if r.kind == kind]
        wall = sum(o.scaled_s * 1000 for o in rows)
        print(f"  {kind:<20} sim {_fmt(statistics.fmean(o.sim_ms for o in rows)):>9}"
              f"   wall {_fmt(wall / len(rows)):>9}   share {wall / total_wall * 100:5.1f}%"
              f"   (n={len(rows)})")
    return metrics, attempted, problems, phase


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def measure_traced(workload, seconds: float) -> tuple[dict, int, list[str]]:
    """Each pass untraced on one build and traced on a second, alternately.

    Both builds see the same passes in the same order, so the traced
    requests can be compared one by one with the untraced ones; which of
    the two runs a pass first alternates, so machine drift during the run
    falls on both alike.
    """
    import layers
    import tracing

    plain_target = workload.build()
    traced_target = workload.build()
    plain_warm = warm_up(workload, plain_target)
    traced_warm = warm_up(workload, traced_target)
    devices = workload.devices(traced_target, secure_only=False)
    before = [(d.meter.pages_read, d.meter.pages_written) for d in devices]
    recorder = tracing.SpanRecorder()
    plain, traced = Phase(), Phase()
    builds = ((plain_target, plain, None), (traced_target, traced, recorder))
    for number, requests in enumerate(timed_passes(workload, seconds, plain)):
        for target, phase, spans in builds[::-1] if number % 2 else builds:
            uninstall = tracing.install(spans) if spans else lambda: None
            try:
                run_requests(workload, target, requests, phase, spans)
            finally:
                uninstall()
    bytes_read = sum((d.meter.pages_read - r) * d.page_size for d, (r, _) in zip(devices, before))
    bytes_written = sum(
        (d.meter.pages_written - w) * d.page_size for d, (_, w) in zip(devices, before)
    )

    workload.prepare()
    failures, _ = workload.check(plain_target, plain_warm.pairs + plain.pairs)
    problems = plain_warm.errors + plain.errors + failures
    failures, logical_written = workload.check(traced_target, traced_warm.pairs + traced.pairs)
    problems += traced_warm.errors + traced.errors + failures

    metrics = layers.layer_metrics(
        recorder, traced,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        logical_written=logical_written,
        overhead=traced.wall_s / plain.wall_s - 1,
    )
    problems += layers.self_check(workload.name, plain, traced, recorder, metrics)
    print(f"untraced: {plain.attempted} requests in {plain.wall_s:.3f} s; "
          f"traced: {traced.attempted} in {traced.wall_s:.3f} s "
          f"({len(recorder.spans)} spans)")
    for name, unit in layers.PER_LAYER:
        print(f"{name:<30} {_fmt(metrics[name]):>12} {unit}")
    print("self-time shares of traced request wall:")
    for name, share in layers.layer_shares(recorder):
        print(f"  {name:<26} {share * 100:6.2f}%")
    attempted = plain_warm.attempted + traced_warm.attempted + plain.attempted + traced.attempted
    return metrics, attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from layers import PER_LAYER
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = make_workload(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics, attempted, problems = measure_traced(workload, args.seconds)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, problems, _ = measure(workload, args.seconds)
        units = dict(END_TO_END)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
