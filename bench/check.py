"""Output checks behind the benchmark's failure count.

A study fails when the structured report does not parse back to the
reference verdicts, when any output differs byte for byte from the same
study's first output in the run, when a bundled study misses a verdict
pinned by the acceptance suite, or when a seeded sample of its decisions
disagrees with the plain definition of the test.  The checks read
``RunReport`` objects and raw output bytes, never the report's field layout,
so they keep working if the report schema changes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi
_REL_TOL = 1e-12
SAMPLED_DECISIONS = 8

# Verdicts pinned for the shipped studies by tests/test_acceptance.py.
PINNED = {
    "toothmarks": {
        "rejected": True,
        "groups": (("3", "4", "5", "6"), ("1",), ("2",)),
        "pooled_outliers": (),
        "pooled_threshold": 2,
    },
    "example1": {
        "rejected": False,
        "pooled_outliers": (3, 43, 69, 95, 97, 116),
        "pooled_threshold": 8,
    },
    "example2": {
        "rejected": True,
        "selected_group": ("2", "3"),
        "pooled_outliers": (81,),
    },
    "example3": {"rejected": False},
}


def verdicts(report) -> tuple:
    """Every verdict a report carries, in a comparable form."""
    hom, common = report.homogeneity, report.common
    return (
        tuple((p.sample.id, p.self_test.rejected) for p in report.populations),
        None
        if hom is None
        else (
            hom.rejected,
            tuple((p.i, p.j, p.homogeneous) for p in hom.pairwise),
            tuple(tuple(sorted(g)) for g in hom.groups),
        ),
        report.selected_group,
        None if common is None else (common.decision.rejected, common.decision.outlier_indices),
    )


def read_values(path: Path) -> dict[str, list[float]]:
    """Values per population from a ``population,value`` CSV file."""
    out: dict[str, list[float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            if row:
                out.setdefault(row[0].strip(), []).append(float(row[1]))
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _fit(values, known_e, known_sigma) -> tuple[float, float]:
    m = len(values)
    e = known_e if known_e is not None else math.fsum(values) / m
    if known_sigma is not None:
        return e, known_sigma
    return e, math.sqrt(math.fsum((v - e) ** 2 for v in values) / m)


def _threshold(m: int, alpha: float) -> int:
    x = alpha * m
    if abs(x - round(x)) <= 1e-9:
        x = round(x)
    return math.floor(x) + 1


def decision_problems(label, decision, values, e, sigma, alpha) -> list[str]:
    """Compare one decision with the band, outlier and threshold definitions."""
    problems = []
    lo = e + sigma * _SQRT3_OVER_PI * math.log((alpha / 2) / (1 - alpha / 2))
    hi = e + sigma * _SQRT3_OVER_PI * math.log((1 - alpha / 2) / (alpha / 2))
    band = decision.interval
    if not (_close(band.lower, lo) and _close(band.upper, hi)):
        problems.append(
            f"{label}: band [{band.lower!r}, {band.upper!r}], expected [{lo!r}, {hi!r}]"
        )
    outliers = tuple(p for p, z in enumerate(values, start=1) if z < band.lower or z > band.upper)
    threshold = _threshold(len(values), alpha)
    if decision.outlier_indices != outliers:
        problems.append(f"{label}: outlier positions differ from the strict inequalities")
    if decision.threshold != threshold or decision.sample_size != len(values):
        problems.append(f"{label}: threshold {decision.threshold}, expected {threshold}")
    if decision.rejected != (len(outliers) >= threshold):
        problems.append(f"{label}: verdict disagrees with its outlier count")
    return problems


def sampled_problems(report, values: dict[str, list[float]], rng: random.Random) -> list[str]:
    """Recompute a seeded sample of the report's decisions from their definitions."""
    pops = report.populations
    pairwise = report.homogeneity.pairwise if report.homogeneity is not None else ()
    # Candidates: every self-test, both directions of every pair, the pooled test.
    total = len(pops) + 2 * len(pairwise) + (report.common is not None)
    by_id = {p.sample.id: p for p in pops}
    fits = {}
    problems = []

    def fit(pid):
        if pid not in fits:
            p = by_id[pid]
            fits[pid] = _fit(values[pid], p.sample.known_e, p.sample.known_sigma)
            if not (_close(fits[pid][0], p.fit.e) and _close(fits[pid][1], p.fit.sigma)):
                problems.append(f"population {pid}: fit {p.fit!r}, expected {fits[pid]!r}")
        return fits[pid]

    def cross(data_id, source_id):
        # Tested parameter from the source's fit, pinned ones from the data side.
        e, sigma = fit(source_id)
        sample = by_id[data_id].sample
        if report.case.value == "means-unknown":
            return e, sample.known_sigma
        if report.case.value == "sigmas-unknown":
            return sample.known_e, sigma
        return e, sigma

    alpha = report.alpha
    for k in sorted(rng.sample(range(total), min(SAMPLED_DECISIONS, total))):
        if k < len(pops):
            pid = pops[k].sample.id
            problems += decision_problems(
                f"self-test {pid}", pops[k].self_test, values[pid], *fit(pid), alpha
            )
            continue
        k -= len(pops)
        if k < 2 * len(pairwise):
            pw = pairwise[k // 2]
            if k % 2 == 0:
                i, j, d = pw.i, pw.j, pw.decision_i_vs_j
            else:
                i, j, d = pw.j, pw.i, pw.decision_j_vs_i
            problems += decision_problems(f"{i} against {j}", d, values[i], *cross(i, j), alpha)
            continue
        c = report.common
        problems += decision_problems(
            "pooled test", c.decision, c.merged.values, c.theta0.e, c.theta0.sigma, alpha
        )
    return problems


def pinned_problems(name: str, report) -> list[str]:
    """Differences from the verdicts the acceptance suite pins for a shipped study."""
    pin = PINNED.get(name, {})
    hom, common = report.homogeneity, report.common
    got = {
        "rejected": hom.rejected,
        "groups": tuple(tuple(sorted(g)) for g in hom.groups),
        "selected_group": report.selected_group,
        "pooled_outliers": common.decision.outlier_indices,
        "pooled_threshold": common.decision.threshold,
    }
    problems = [
        f"{name}: {key} is {got[key]!r}, pinned {want!r}"
        for key, want in pin.items()
        if got[key] != want
    ]
    if common.decision.rejected:
        problems.append(f"{name}: pooled test rejected, pinned as cannot be rejected")
    return problems


class Checker:
    """Holds each study's reference verdicts, data and first output digests."""

    def __init__(
        self,
        references: dict[str, tuple],
        values: dict[str, dict[str, list[float]]],
        pinned: bool,
    ):
        self.references = references
        self.values = values
        self.pinned = pinned
        self.digests: dict[tuple[str, str], bytes] = {}

    def problems(self, name: str, outputs: list[Path], report, rng: random.Random) -> list[str]:
        problems = []
        if verdicts(report) != self.references[name]:
            problems.append(f"{name}: parsed report verdicts differ from the in-process run")
        for path in outputs:
            digest = hashlib.sha256(path.read_bytes()).digest()
            if self.digests.setdefault((name, path.name), digest) != digest:
                problems.append(f"{name}: {path.name} differs from the run's first study")
        if self.pinned:
            problems += pinned_problems(name, report)
        problems += sampled_problems(report, self.values[name], rng)
        return problems
