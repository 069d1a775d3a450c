"""Benchmark of nilaffine's certified decisions.

Run from the repository root:

    python3 perfbench/run.py --workload obstruct-refute --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload with ``--trace 0`` and ``--trace 1``,
each in its own process, and prints all of their metrics.

Workloads (see workloads.py): ``obstruct-refute``, ``obstruct-scaling``
and ``check-rep``. The package is imported from ``src/`` next to this
directory; the run fails with exit code 2 when it is not there.

Load is a closed loop: one client, one process, one thread, one decision
at a time. The inputs of one pass are decided in order, and whole passes
are repeated, at least MIN_PASSES times and otherwise as often as fills
``--seconds`` of decision time most closely. Each pass is checked by the
gate in decide.py after its timer stops; a decision that raises or
disagrees with the reference counts as failed, and ``failed_ratio`` (failed
over attempted) is printed with the metrics.

Timing. The machines this runs on change speed by 10-30 % for seconds at
a time. Two measures keep the figures steady. A fixed Fraction kernel
(``calibrate``) is timed about every CALIBRATE_EVERY_S, and each decision
time is rescaled to the reference machine's speed by the samples taken
just before and after it. And each input's time is the median over the
passes of its rescaled times, so a repeat that a slow phase hit drops out.

``--trace 0`` prints the end-to-end metrics, over those per-input times:

  setup_s          median rescaled wall time of SETUP_PROBES fresh
                   processes that import nilaffine and write the inputs
  decisions_per_s  inputs per pass divided by the time of a pass
  decision_ms.p50  median over the inputs
  decision_ms.p90  90th percentile over the inputs
  peak_rss_mb      peak resident memory of this process (ru_maxrss)

``--trace 1`` spends half of the time untraced and half traced, both in
whole passes with no minimum count, and prints the per-layer metrics of tracing.py as averages
per decision, with ``trace.overhead_ratio`` the traced over the untraced
time of a pass. The scalar micro-kernel and the count of Scalar objects
built per decision are taken afterwards, apart from any timing. Spans are
written to ``.bench_work/<workload>-<seed>/spans.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = (4, 3)     # fresh processes before and after the timed passes
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.1   # wall time between two calibration samples
# Median seconds of calibrate() on the machine the baseline was taken on
# (2-core Intel Xeon sandbox); times are reported as if on that machine.
CALIBRATION_REFERENCE_S = 0.0062

END_TO_END_UNITS = {"setup_s": "s", "decisions_per_s": "1/s",
                    "decision_ms.p50": "ms", "decision_ms.p90": "ms",
                    "peak_rss_mb": "MB"}


def import_package():
    """Import nilaffine from ``src/``, and from nowhere else."""
    if not (SRC / "nilaffine" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nilaffine
    if Path(nilaffine.__file__).resolve().parent != SRC / "nilaffine":
        print(f"perfbench: nilaffine was imported from {nilaffine.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return nilaffine


def calibrate() -> float:
    """Seconds one run of a fixed Fraction kernel takes at this moment.

    The machines this runs on slow down and speed up by 10-30 % for
    seconds at a time. The kernel does the kind of work decisions do
    (Fraction arithmetic, small objects), so the ratio of its reference
    time to its current time rescales a decision time to the reference
    machine's speed; a change to nilaffine does not affect the kernel.
    """
    start = perf_counter()
    parity = 0
    for i in range(1, 1000):
        f = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
        parity ^= f.numerator & 1
    return perf_counter() - start


class Clock:
    """Times work and rescales it by calibration samples taken around it."""

    def __init__(self):
        self.samples = [calibrate()]
        self.last = perf_counter()

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, index of the calibration sample before)."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.last = perf_counter()
        before = len(self.samples) - 1
        start = perf_counter()
        result = fn(*args, **kwargs)
        return result, perf_counter() - start, before

    def scaled(self, timed: list[tuple[float, int]]) -> list[float]:
        """Raw (seconds, sample) pairs as seconds on the reference machine.

        Each time is scaled by the mean of the samples just before and
        just after it, so a sample is taken here to close the series.
        """
        self.samples.append(calibrate())
        self.last = perf_counter()
        return [raw * CALIBRATION_REFERENCE_S
                / ((self.samples[k] + self.samples[k + 1]) / 2)
                for raw, k in timed]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Decides passes over one workload's inputs and gates every decision."""

    def __init__(self, items, work: Path, reference: dict):
        import decide
        self.decide = decide
        self.items = items
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def one(self, item):
        try:
            return self.decide.decide(item, self.work)
        except Exception:
            traceback.print_exc()
            return None

    def passes(self, seconds: float, clock: Clock, tracer=None,
               min_passes: int = MIN_PASSES) -> tuple[float, list[float]]:
        """Decide whole passes: at least ``min_passes``, else as many as
        come closest to ``seconds`` of decision time.

        Returns the raw decision time spent and, per input, the median of
        its rescaled times over the passes. The median drops the repeats
        that a slow phase of the machine hit. The gate runs after each
        pass, outside the timing.
        """
        timed: list[tuple[float, int]] = []
        elapsed, passes = 0.0, 0
        while passes < min_passes or elapsed + elapsed / passes / 2 < seconds:
            results = []
            for item in self.items:
                if tracer is None:
                    result, raw, k = clock.time(self.one, item)
                else:
                    result, raw, k = clock.time(
                        tracer.run, self.attempted + len(results), "decision",
                        self.one, item)
                timed.append((raw, k))
                elapsed += raw
                results.append((item, result))
            self.gate(results)
            passes += 1
        scaled = clock.scaled(timed)
        n = len(self.items)
        return elapsed, [statistics.median(scaled[i::n]) for i in range(n)]

    def gate(self, results) -> None:
        for item, result in results:
            self.attempted += 1
            problems = (["decision raised"] if result is None
                        else self.decide.check(result, self.reference))
            if problems:
                self.failed += 1
                print(f"perfbench: FAILED {item.key}: {'; '.join(problems)}",
                      file=sys.stderr)

    def untimed_pass(self) -> None:
        for item in self.items:
            self.one(item)


def setup_probes(args, count: int, clock: Clock) -> list[float]:
    """Rescaled wall times of ``count`` fresh processes that set up the run."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0"]
    timed = []
    for _ in range(count):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        _, raw, k = clock.time(subprocess.run, command, check=True, cwd=ROOT)
        timed.append((raw, k))
    return clock.scaled(timed)


def end_to_end(runner: Runner, args) -> dict[str, float]:
    clock = Clock()
    setup = setup_probes(args, SETUP_PROBES[0], clock)
    wall, times = runner.passes(args.seconds, clock)
    setup += setup_probes(args, SETUP_PROBES[1], clock)
    ms = [t * 1000 for t in times]
    print(f"{runner.attempted} decisions in {wall:.3f} s; {len(ms)} inputs; "
          f"{len(setup)} setup runs")
    return {
        "setup_s": statistics.median(setup),
        "decisions_per_s": len(times) / sum(times),
        "decision_ms.p50": statistics.median(ms),
        "decision_ms.p90": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, args, work: Path) -> dict[str, float]:
    import tracing
    clock = Clock()
    _, untraced = runner.passes(args.seconds / 2, clock, min_passes=1)
    tracer = tracing.Tracer()
    tracer.install()
    decided = runner.attempted
    try:
        _, traced = runner.passes(args.seconds / 2, clock, tracer, min_passes=1)
    finally:
        tracer.uninstall()
    per_pass = len(runner.items)
    metrics = tracing.layer_metrics(tracer, runner.attempted - decided)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    metrics.update(tracing.scalar_kernel())
    metrics["scalars.constructed"] = (
        tracing.count_constructions(runner.untimed_pass) / per_pass)
    tracer.write(work / "spans.jsonl")
    print(f"{decided} decisions untraced, {runner.attempted - decided} "
          f"traced; {len(tracer.spans)} spans")
    return metrics


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process.

    Each run prints its metrics; the last line sums the runs' counts and
    holds every metric as "<workload>:<trace>:<name>".
    """
    import workloads
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload}, --trace {trace}", flush=True)
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
            lines = out.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}:{trace}:{name}": value
                            for name, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nilaffine = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}"
    data_dir = Path(nilaffine.__file__).resolve().parent / "data"
    items = workloads.prepare(args.workload, args.seed, work / "inputs",
                              data_dir)
    if args.setup_probe:
        return 0

    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())
    runner = Runner(items, work, reference[args.workload])
    if args.trace:
        import tracing
        measured, units = per_layer(runner, args, work), tracing.UNITS
    else:
        measured, units = end_to_end(runner, args), END_TO_END_UNITS
    metrics = {name: measured[name] for name in units}
    failed_ratio = runner.failed / runner.attempted
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(f"{'failed_ratio':40s} {failed_ratio:14.6f} ratio")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
