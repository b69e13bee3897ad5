"""Fixed-seed benchmark of the uncstat command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload wide --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

One client runs studies back to back in a closed loop, in this process and
thread, calling ``uncstat.cli.main`` with the inputs drawn for ``--seed``.
After each study it reloads the structured report with ``parse_report`` and
checks every output (see check.py).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates plain and traced rounds and reports the
per-layer metrics from the traced ones (see spans.py).  A human-readable
summary comes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process.

End-to-end times are scaled to a nominal host speed (see ``HostSpeed``);
the summary also prints their unscaled medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import inputs
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("bundled", "wide", "tall")

# Rounds a measurement runs at least, whatever --seconds says: eleven
# give study_s.tail a percentile with ten samples beyond it.
MIN_ROUNDS = 11
MIN_TRACED_ROUNDS = 3
SETUP_REPEATS = 15
# Untimed rounds before measuring: the first studies of a process pay for
# cold caches and lazily built state, and made up most of the tail on bundled.
WARMUP_S = 1.0
# The reference kernel runs after every BLOCK_S of measuring; REFERENCE_S is
# about its median time on the machine that took the first numbers
# (bench/BENCH_seed.json).
BLOCK_S = 0.75
REFERENCE_S = 0.05

# name -> (unit, which direction is better)
END_TO_END = {
    "study_s": ("s", "lower"),
    "study_s.tail": ("s", "lower"),
    "studies_per_s": ("1/s", "higher"),
    "reload_s": ("s", "lower"),
    "report_bytes": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# name -> (unit, which direction is better, the end-to-end metric and
# workloads it should move).  Counts of data properties (graph edges,
# cliques, rows) should not move at all; "lower" is nominal for them.
PER_LAYER = {
    "udist.fit_moments.calls": ("count", "lower", "study_s on tall"),
    "udist.fit_moments.s": ("s", "lower", "study_s on tall"),
    "testing.fit_and_verify.calls": ("count", "lower", "study_s on tall and wide"),
    "testing.fit_and_verify.s": ("s", "lower", "study_s on tall and wide"),
    "testing.fit_and_verify.useful_ratio": ("ratio", "higher", "study_s on tall and wide"),
    "testing.acceptance_interval.calls": ("count", "lower", "study_s on wide"),
    "testing.acceptance_interval.s": ("s", "lower", "study_s on wide"),
    "testing.count_outliers.calls": ("count", "lower", "study_s on wide, not on bundled"),
    "testing.count_outliers.points": ("count", "lower", "study_s on wide, not on bundled"),
    "testing.count_outliers.s": ("s", "lower", "study_s on wide, not on bundled"),
    "multi.pairwise_test.calls": ("count", "lower", "study_s on wide"),
    "multi.pairwise_test.s": ("s", "lower", "study_s on wide"),
    "multi.homogeneity_test.s": ("s", "lower", "study_s on wide"),
    "multi.homogeneity_test.self_s": ("s", "lower", "study_s on wide"),
    "multi.homogeneous_groups.s": ("s", "lower", "study_s on wide"),
    "multi.graph_edges": ("count", "lower", "study_s on wide"),
    "multi.cliques": ("count", "lower", "study_s on wide"),
    "pooling.common_test.s": ("s", "lower", "study_s on tall"),
    "pooling.merged_points": ("count", "lower", "study_s on tall"),
    "pipeline.ingest.s": ("s", "lower", "study_s on tall"),
    "pipeline.ingest.rows": ("count", "lower", "study_s on tall"),
    "pipeline.run_pipeline.s": ("s", "lower", "study_s on every workload"),
    "pipeline.run_pipeline.self_s": ("s", "lower", "study_s on every workload"),
    "pipeline.emit_report.structured.s": ("s", "lower", "study_s and peak_rss_mb on wide and tall"),
    "pipeline.emit_report.structured.bytes": ("bytes", "lower", "report_bytes on every workload"),
    "pipeline.emit_report.text.bytes": ("bytes", "lower", "studies_per_s on bundled"),
    "pipeline.parse_report.s": ("s", "lower", "reload_s on wide and tall"),
    "pipeline.emit_plot_data.rows": ("count", "lower", "studies_per_s on bundled"),
    "cli.main.s": ("s", "lower", "studies_per_s on bundled"),
    "cli.main.self_s": ("s", "lower", "studies_per_s on bundled"),
    "trace.overhead_frac": ("ratio", "lower", "none: a property of the benchmark"),
}
# Layers that only the bundled workload runs.  Their busy times are printed
# in the summary but kept out of the JSON metrics: a time that reads 0 on
# every run of a workload is not a measurement.
BUNDLED_ONLY = {
    "pipeline.emit_report.text.s": ("s", "lower", "studies_per_s on bundled"),
    "pipeline.emit_plot_data.s": ("s", "lower", "studies_per_s on bundled"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest input sizes and one measured round, for testing",
    )
    return parser.parse_args(argv)


def setup_time() -> float:
    """Wall seconds for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    code = "import uncstat.cli; uncstat.cli.build_parser()"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def reference_kernel() -> int:
    """A fixed pure-Python mix of the program's kinds of work: float math,
    sorting, building records and a JSON round trip.  It works in chunks so
    that it adds little to the peak memory of the smallest workload."""
    xs = [10.0 + 0.55 * math.log((i % 99991 + 1) / 99992.0) for i in range(15_000)]
    xs.sort()
    n = 0
    for lo in range(0, len(xs), 1500):
        rows = [{"value": x, "rank": i} for i, x in enumerate(xs[lo:lo + 1500], lo)]
        n += len(json.loads(json.dumps(rows)))
    return n


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall times to a nominal host speed.

    The CPU of a shared host runs at speeds a third apart for tens of
    seconds at a time, so the median of one run moved as much as a real
    change would.  The reference kernel does not touch the program and
    slows with the host: every BLOCK_S it is timed again, and each time
    recorded in between is multiplied by REFERENCE_S over the mean of the
    kernel's two timings around it.  Over ten 35-second runs of ``tall`` on
    a 2-vCPU shared host, the median study time spread 0.38 (quartile
    distance over median) unscaled and 0.07 scaled.
    """

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.kernel_s = [time_kernel()]
        self.pending: list[tuple[str, float]] = []
        self.since = time.perf_counter()

    def record(self, name: str, seconds: float) -> None:
        self.raw[name].append(seconds)
        self.pending.append((name, seconds))

    def settle(self, force: bool = False) -> None:
        """Scale the pending times once BLOCK_S has passed, or now if forced."""
        if not self.pending or not force and time.perf_counter() - self.since < BLOCK_S:
            return
        self.kernel_s.append(time_kernel())
        factor = REFERENCE_S / statistics.fmean(self.kernel_s[-2:])
        for name, seconds in self.pending:
            self.scaled[name].append(seconds * factor)
        self.pending.clear()
        self.since = time.perf_counter()


def make_studies(workload, seed, workdir, smoke, uncstat):
    if workload == "bundled":
        return inputs.bundled(seed, uncstat.dataset_paths)
    return getattr(inputs, workload)(seed, workdir, smoke)


def make_checker(studies, workload, uncstat):
    references, values = {}, {}
    for study in studies:
        samples, config = uncstat.ingest(study.data, study.config)
        references[study.name] = check.verdicts(uncstat.run_pipeline(samples, config))
        values[study.name] = check.read_values(study.data)
    return check.Checker(references, values, pinned=workload == "bundled")


class Loop:
    """The closed-loop client: runs studies, times them and counts failures."""

    def __init__(self, studies, checker, workdir, seed, uncstat):
        self.studies = studies
        self.checker = checker
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.cli = uncstat.cli
        self.pipeline = uncstat.pipeline
        self.attempted = self.failed = 0
        self.report_bytes: dict[str, int] = {}

    def study(self, study) -> tuple[float, float] | None:
        """Run one study; return its wall and reload seconds, or None if it failed."""
        # Each study writes new files.  Rewriting the previous study's files
        # makes ext4 flush them on close, which made study times spiky.
        self.attempted += 1
        out = self.workdir / f"out-{self.attempted}"
        out.mkdir()
        argvs = [
            ["--data", str(study.data), "--config", str(study.config)]
            + [flag.format(out=out) for flag in run]
            for run in study.runs
        ]
        outputs = [Path(a[a.index("--report") + 1]) for a in argvs]
        outputs += [Path(a[a.index("--plot-data") + 1]) for a in argvs if "--plot-data" in a]
        gc.collect()
        try:
            start = time.perf_counter()
            codes = [self.cli.main(argv) for argv in argvs]
            study_s = time.perf_counter() - start
            document = outputs[0].read_text(encoding="utf-8")
            start = time.perf_counter()
            report = self.pipeline.parse_report(document)
            reload_s = time.perf_counter() - start
            self.report_bytes[study.name] = len(document.encode("utf-8"))
            del document
            problems = [f"{study.name}: exit code {c}" for c in codes if c != 0]
            problems += self.checker.problems(study.name, outputs, report, self.rng)
        except (Exception, SystemExit) as exc:  # a failed study must not end the run
            problems = [f"{study.name}: {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out)
        if problems:
            self.failed += 1
            print("FAILED " + "; ".join(problems[:5]), file=sys.stderr)
            return None
        return study_s, reload_s

    def round(self) -> tuple[float, list[float]] | None:
        """Run every study once; return the seconds the studies took together
        and each one's reload seconds, or None if any study failed."""
        times = [self.study(s) for s in self.studies]
        if None in times:
            return None
        return math.fsum(s for s, _ in times), [r for _, r in times]

    def warm_up(self) -> None:
        """Run at least one round, untimed, and keep going for WARMUP_S."""
        end = time.perf_counter() + WARMUP_S
        self.round()
        while time.perf_counter() < end:
            self.round()


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it."""
    xs = sorted(times)
    pct = max(0, math.floor(100 * (len(xs) - 10) / len(xs)))
    return xs[max(0, math.ceil(pct * len(xs) / 100) - 1)], pct


def measure(loop, seconds, smoke) -> tuple[dict, list[str], bool]:
    loop.warm_up()
    warm = loop.attempted
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while loop.attempted == warm or not smoke and (
        time.perf_counter() < deadline or loop.attempted - warm < MIN_ROUNDS * len(loop.studies)
    ):
        # Set-up probes go between rounds so they sample the whole run.
        if len(speed.raw["setup_s"]) < SETUP_REPEATS:
            speed.record("setup_s", setup_time())
        timed = loop.round()
        if timed is not None:
            speed.record("study_s", timed[0])
            for reload_s in timed[1]:
                speed.record("reload_s", reload_s)
        speed.settle()
    while len(speed.raw["setup_s"]) < SETUP_REPEATS:
        speed.record("setup_s", setup_time())
    speed.settle(force=True)
    rounds, reload, setup = (speed.scaled[k] for k in ("study_s", "reload_s", "setup_s"))
    if not rounds:
        return {}, ["every round had a failed study"], False
    # The tail is scaled by the run's overall factor, not round by round:
    # the noise of single kernel timings would otherwise pick the tail.
    tail_s, pct = tail(speed.raw["study_s"])
    study_s = statistics.median(rounds)
    metrics = {
        "study_s": study_s,
        "study_s.tail": tail_s * study_s / statistics.median(speed.raw["study_s"]),
        "studies_per_s": len(reload) / math.fsum(rounds),
        "reload_s": statistics.median(reload),
        "report_bytes": statistics.fmean(loop.report_bytes.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    unscaled = ", ".join(
        f"{k} {statistics.median(speed.raw[k]):.6g} s" for k in ("study_s", "reload_s", "setup_s")
    )
    notes = [f"study_s.tail is p{pct} of {len(rounds)} rounds of {len(loop.studies)} studies; "
             f"setup_s is the median of {len(setup)}",
             f"times are scaled to a reference kernel time of {REFERENCE_S * 1e3:g} ms; it took "
             f"{statistics.median(speed.kernel_s) * 1e3:.4g} ms (median of {len(speed.kernel_s)})",
             f"unscaled medians: {unscaled}"]
    return {name: (metrics[name], unit) for name, (unit, _) in END_TO_END.items()}, notes, True


def layer_values(recorder: Recorder) -> dict[str, float]:
    calls, busy, own, work = recorder.totals()
    values = dict(work)
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = busy[name]
        values[f"{name}.self_s"] = own[name]
    values["testing.fit_and_verify.useful_ratio"] = (
        work["pipeline.populations"] / calls["testing.fit_and_verify"]
    )
    return values


def _median_round(rounds) -> float:
    passed = [r[0] for r in rounds if r is not None]
    return statistics.median(passed) if passed else math.nan


def measure_traced(loop, seconds, smoke, spans_path) -> tuple[dict, list[str], bool]:
    loop.warm_up()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not layers or not smoke and (
        time.perf_counter() < deadline or len(layers) < MIN_TRACED_ROUNDS
    ):
        plain.append(loop.round())
        recorder = Recorder()
        with recorder.installed():
            traced.append(loop.round())
        layers.append(layer_values(recorder))
    recorder.write(spans_path)
    notes = [f"{len(layers)} traced rounds alternating with plain ones; "
             f"spans of the last in {spans_path.relative_to(ROOT)}"]
    wanted = {**PER_LAYER, **BUNDLED_ONLY}
    counted = [k for k, (unit, *_) in wanted.items() if unit != "s" and k != "trace.overhead_frac"]
    counts = [{k: v.get(k, 0) for k in counted} for v in layers]
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        notes.append("work counts differ between traced rounds")
    metrics = {}
    for name, (unit, *_) in wanted.items():
        if name == "trace.overhead_frac":
            value = _median_round(traced) / _median_round(plain) - 1
        elif unit == "s":
            value = statistics.median(v.get(name, 0.0) for v in layers)
        else:
            value = counts[0][name]
        metrics[name] = (value, unit)
    return metrics, notes, repeatable


def run_all(args) -> int:
    """Run every workload, each in its own process so peak RSS is its own."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv + ["--smoke"] * args.smoke).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uncstat" / "__init__.py").is_file():
        print(f"bench: no uncstat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import uncstat
    import uncstat.cli

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        studies = make_studies(args.workload, args.seed, workdir, args.smoke, uncstat)
        checker = make_checker(studies, args.workload, uncstat)
        loop = Loop(studies, checker, workdir, args.seed, uncstat)
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}.jsonl"
            metrics, notes, ok = measure_traced(loop, args.seconds, args.smoke, spans)
        else:
            metrics, notes, ok = measure(loop, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    described = {**PER_LAYER, **BUNDLED_ONLY} if args.trace else {}
    for name, (value, unit) in metrics.items():
        moves = f"  -> {described[name][2]}" if name in described else ""
        print(f"  {name:40s} {value:14.6g} {unit}{moves}")
    print(f"  {'error_rate':40s} {loop.failed / loop.attempted:14.6g} "
          f"({loop.failed} of {loop.attempted} studies failed)")
    for note in notes:
        print(f"  note: {note}")
    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": ok and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if name in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
