"""Seeded study inputs for the benchmark workloads.

Every workload is a list of studies.  A study names a data file, a config
file and the CLI invocations that make up one complete run of it.  The
synthetic workloads draw their data here from ``--seed``; the bundled
workload uses the four shipped studies and lets the seed fix their order.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi

BUNDLED = ("toothmarks", "example1", "example2", "example3")

# (populations, points per population) at full and at smoke size.
WIDE_SHAPE = {False: (120, 200), True: (8, 40)}
TALL_SHAPE = {False: (6, 25_000), True: (6, 400)}

# Planted location clusters of the wide workload: neighbours are close
# enough that cross-tests between them often pass, so maximal cliques
# overlap instead of partitioning the populations.
WIDE_CLUSTERS = 8
WIDE_SPACING = 0.1


@dataclass(frozen=True)
class Study:
    """One study: its input files and the CLI runs that make it complete.

    ``runs`` lists the output flags of each ``cli.main`` call; ``{out}`` in a
    flag is replaced by the study's output directory.  The first call writes
    the structured report that the benchmark reloads and checks.
    """

    name: str
    data: Path
    config: Path
    runs: tuple[tuple[str, ...], ...]


STRUCTURED = ("--format", "structured", "--report", "{out}/report.json")
WITH_PLOT = STRUCTURED + ("--plot-data", "{out}/plot.csv")
TEXT = ("--format", "text", "--report", "{out}/report.txt")


def logistic(rng: random.Random, e: float, sigma: float) -> float:
    """Draw from the normal uncertainty distribution by inverting its belief function."""
    p = rng.random()
    while p == 0.0:
        p = rng.random()
    return e + sigma * _SQRT3_OVER_PI * math.log(p / (1.0 - p))


def _write_study(
    name: str,
    workdir: Path,
    columns: list[tuple[str, list[float]]],
    config: dict,
) -> Study:
    data = workdir / f"{name}.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["population", "value"])
        for pid, values in columns:
            writer.writerows((pid, repr(v)) for v in values)
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return Study(name, data, cfg, (STRUCTURED,))


def wide(seed: int, workdir: Path, smoke: bool = False) -> list[Study]:
    """Many populations of moderate size, both parameters unknown."""
    n, m = WIDE_SHAPE[smoke]
    rng = random.Random(seed)
    columns = []
    for i in range(n):
        e = 10.0 + WIDE_SPACING * (i % WIDE_CLUSTERS) + rng.gauss(0.0, 0.03)
        sigma = 1.0 + rng.gauss(0.0, 0.05)
        columns.append((f"p{i:03d}", [logistic(rng, e, sigma) for _ in range(m)]))
    # The largest homogeneous group is often tied, so the pooled group is
    # named: the first planted cluster.
    group = [pid for pid, _ in columns[::WIDE_CLUSTERS]]
    config = {"alpha": 0.05, "group_selection": group}
    return [_write_study("wide", workdir, columns, config)]


def tall(seed: int, workdir: Path, smoke: bool = False) -> list[Study]:
    """Few large populations, locations unknown, every scale pinned."""
    n, m = TALL_SHAPE[smoke]
    rng = random.Random(seed)
    columns, populations = [], []
    for i in range(n):
        sigma = 0.5 + 0.3 * i
        e = 10.0 + rng.gauss(0.0, 0.02)
        pid = f"t{i}"
        columns.append((pid, [logistic(rng, e, sigma) for _ in range(m)]))
        populations.append({"id": pid, "known_sigma": sigma})
    # Pooling every population makes the merged sample n * m points long.
    config = {
        "alpha": 0.05,
        "populations": populations,
        "group_selection": [pid for pid, _ in columns],
    }
    return [_write_study("tall", workdir, columns, config)]


def bundled(seed: int, dataset_paths) -> list[Study]:
    """The shipped studies, each run with a structured report and plot data
    and again with a text report, in an order drawn from the seed."""
    names = list(BUNDLED)
    random.Random(seed).shuffle(names)
    return [Study(name, *dataset_paths(name), (WITH_PLOT, TEXT)) for name in names]
