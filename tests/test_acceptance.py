"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations

import pytest

import uncstat as u
from uncstat import (
    CrossTests,
    NormalUncertain,
    ParameterCase,
    PopulationSample,
    cdf,
    common_test,
    cross_interval,
    fit_moments,
    homogeneity_test,
    homogeneous_groups,
    pairwise_test,
    quantile,
    rejection_threshold,
    single_test,
)
from test_multi import brute_force_maximal_cliques, make_pairwise


@contextmanager
def criterion(number, summary):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {summary}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {summary}")


def interval_matrix(report):
    """(data id, source id) -> acceptance interval, from a pipeline report."""
    out = {}
    for p in report.populations:
        out[(p.sample.id, p.sample.id)] = p.self_test.interval
    for pw in report.homogeneity.pairwise:
        out[(pw.i, pw.j)] = pw.decision_i_vs_j.interval
        out[(pw.j, pw.i)] = pw.decision_j_vs_i.interval
    return out


def outlier_sets(report, data_id):
    """Outlier index tuples of one population against every source."""
    sets = {(data_id, data_id): report.population(data_id).self_test.outlier_indices}
    for pw in report.homogeneity.pairwise:
        if pw.i == data_id:
            sets[(data_id, pw.j)] = pw.decision_i_vs_j.outlier_indices
        if pw.j == data_id:
            sets[(data_id, pw.i)] = pw.decision_j_vs_i.outlier_indices
    return sets


def test_criterion_1_example1_fits(example1_report):
    with criterion(1, "example1 moment fits (1.420, 1.348, 1.434) within 0.005"):
        fits = {p.sample.id: p.fit for p in example1_report.populations}
        assert fits["1"].e == 4.5 and fits["2"].e == 5.0 and fits["3"].e == 5.5
        assert fits["1"].sigma == pytest.approx(1.420, abs=0.005)
        assert fits["2"].sigma == pytest.approx(1.348, abs=0.005)
        assert fits["3"].sigma == pytest.approx(1.434, abs=0.005)


EXAMPLE1_MATRIX = {
    ("1", "1"): (1.632, 7.368), ("1", "2"): (1.778, 7.223), ("1", "3"): (1.603, 7.397),
    ("2", "1"): (2.132, 7.868), ("2", "2"): (2.278, 7.723), ("2", "3"): (2.103, 7.897),
    ("3", "1"): (2.632, 8.368), ("3", "2"): (2.778, 8.223), ("3", "3"): (2.603, 8.397),
}

EXAMPLE1_OUTLIERS = {"1": (3,), "2": (7, 33), "3": (11, 13, 32)}


def test_criterion_2_example1_interval_matrix(example1, example1_report):
    with criterion(2, "example1 interval matrix within 0.002, outlier sets exact, cannot reject"):
        samples, _ = example1
        by_id = {s.id: s for s in samples}
        # the nine bands, built from the published scale estimates
        published_sigma = {"1": 1.420, "2": 1.348, "3": 1.434}
        for (i, j), (lo, hi) in EXAMPLE1_MATRIX.items():
            fit_j = NormalUncertain(0.0, published_sigma[j])
            band = cross_interval(by_id[i], fit_j, 0.05)
            assert band.lower == pytest.approx(lo, abs=0.002), (i, j)
            assert band.upper == pytest.approx(hi, abs=0.002), (i, j)
        # outlier sets from the data-driven pipeline run
        for i, expected in EXAMPLE1_OUTLIERS.items():
            for got in outlier_sets(example1_report, i).values():
                assert got == expected, i
        assert not example1_report.homogeneity.rejected


def test_criterion_3_example1_common_test(example1_report):
    with criterion(3, "example1 pooled scale 1.404, band +-2.836, 6 outliers, threshold 8"):
        result = example1_report.common
        assert result.case is ParameterCase.SIGMAS_UNKNOWN
        assert result.theta0.sigma == pytest.approx(1.404, abs=0.002)
        assert result.decision.interval.lower == pytest.approx(-2.836, abs=0.002)
        assert result.decision.interval.upper == pytest.approx(2.836, abs=0.002)
        assert result.decision.outlier_indices == (3, 43, 69, 95, 97, 116)
        assert result.decision.threshold == 8
        assert not result.decision.rejected


EXAMPLE2_MATRIX = {
    ("1", "1"): (2.928, 6.968), ("1", "2"): (3.232, 7.271), ("1", "3"): (3.063, 7.102),
    ("2", "1"): (1.918, 7.978), ("2", "2"): (2.222, 8.281), ("2", "3"): (2.053, 8.112),
    ("3", "1"): (0.909, 8.988), ("3", "2"): (1.212, 9.291), ("3", "3"): (1.043, 9.122),
}


def test_criterion_4_example2(example2_report):
    with criterion(4, "example2 fits, interval matrix, rejection, group {2,3}, pooled mean 5.146"):
        fits = {p.sample.id: p.fit for p in example2_report.populations}
        assert fits["1"].e == pytest.approx(4.948, abs=0.002)
        assert fits["2"].e == pytest.approx(5.251, abs=0.002)
        assert fits["3"].e == pytest.approx(5.082, abs=0.002)

        matrix = interval_matrix(example2_report)
        for (i, j), (lo, hi) in EXAMPLE2_MATRIX.items():
            assert matrix[(i, j)].lower == pytest.approx(lo, abs=0.002), (i, j)
            assert matrix[(i, j)].upper == pytest.approx(hi, abs=0.002), (i, j)

        assert example2_report.homogeneity.rejected
        sets = outlier_sets(example2_report, "1")
        assert sets[("1", "2")] == (5, 16, 18)
        assert sets[("1", "3")] == (5, 16, 18)
        assert frozenset({"2", "3"}) in example2_report.homogeneity.groups
        assert example2_report.selected_group == ("2", "3")

        result = example2_report.common
        assert result.case is ParameterCase.MEANS_UNKNOWN
        assert result.theta0.e == pytest.approx(5.146, abs=0.002)
        assert result.decision.outlier_indices == (81,)
        assert not result.decision.rejected


def test_criterion_5_example3(example3_report):
    with criterion(5, "example3 fits within 0.005, cannot reject, pooled (5.139, 1.260)"):
        fits = {p.sample.id: p.fit for p in example3_report.populations}
        assert fits["1"].e == pytest.approx(5.251, abs=0.005)
        assert fits["1"].sigma == pytest.approx(1.215, abs=0.005)
        assert fits["2"].e == pytest.approx(4.982, abs=0.005)
        assert fits["2"].sigma == pytest.approx(1.303, abs=0.005)
        assert fits["3"].e == pytest.approx(5.197, abs=0.005)
        assert fits["3"].sigma == pytest.approx(1.240, abs=0.005)

        assert not example3_report.homogeneity.rejected
        result = example3_report.common
        assert result.case is ParameterCase.BOTH_UNKNOWN
        assert result.theta0.e == pytest.approx(5.139, abs=0.005)
        assert result.theta0.sigma == pytest.approx(1.260, abs=0.005)
        assert not result.decision.rejected


FIELD_TABLE = {
    "1": (2.883, 0.069, 2.745, 3.022),
    "2": (2.600, 0.076, 2.447, 2.753),
    "3": (2.517, 0.090, 2.335, 2.698),
    "4": (2.500, 0.082, 2.335, 2.665),
    "5": (2.533, 0.075, 2.383, 2.684),
    "6": (2.514, 0.083, 2.346, 2.683),
}


def test_criterion_6_field_study(toothmarks_report):
    with criterion(6, "field study: fits table exact, groups {3,4,5,6}/{1}/{2}, pooled (2.516, 0.083)"):
        for p in toothmarks_report.populations:
            e, sigma, lo, hi = FIELD_TABLE[p.sample.id]
            assert p.fit.e == pytest.approx(e, abs=0.002)
            assert p.fit.sigma == pytest.approx(sigma, abs=0.002)
            assert p.self_test.interval.lower == pytest.approx(lo, abs=0.002)
            assert p.self_test.interval.upper == pytest.approx(hi, abs=0.002)
            assert p.self_test.outlier_count == 0

        assert toothmarks_report.homogeneity.rejected
        assert toothmarks_report.homogeneity.groups == (
            frozenset({"3", "4", "5", "6"}),
            frozenset({"1"}),
            frozenset({"2"}),
        )
        result = toothmarks_report.common
        assert result.theta0.e == pytest.approx(2.516, abs=0.002)
        assert result.theta0.sigma == pytest.approx(0.083, abs=0.002)
        assert result.decision.interval.lower == pytest.approx(2.348, abs=0.002)
        assert result.decision.interval.upper == pytest.approx(2.684, abs=0.002)
        assert result.decision.outlier_count == 0
        assert result.decision.threshold == 2
        assert not result.decision.rejected


def test_criterion_7_threshold_rule(example1_report, example2_report):
    with criterion(7, "threshold rule reproduces every published instance and both boundary cases"):
        assert rejection_threshold(144, 0.05) == 8
        assert rejection_threshold(96, 0.05) == 5
        assert rejection_threshold(6, 0.05) == 1
        assert rejection_threshold(25, 0.05) == 2
        # 3 outliers with alpha*m = 3 must not reject (example1 population 3),
        # 3 outliers with alpha*m = 2.4 must reject (example2 population 1)
        sets1 = outlier_sets(example1_report, "3")
        decisions1 = [
            pw.decision_i_vs_j if pw.i == "3" else pw.decision_j_vs_i
            for pw in example1_report.homogeneity.pairwise
            if "3" in (pw.i, pw.j)
        ]
        assert all(d.outlier_count == 3 and not d.rejected for d in decisions1)
        assert sets1[("3", "1")] == (11, 13, 32)
        decisions2 = [
            pw.decision_i_vs_j if pw.i == "1" else pw.decision_j_vs_i
            for pw in example2_report.homogeneity.pairwise
            if "1" in (pw.i, pw.j)
        ]
        assert all(d.outlier_count == 3 and d.rejected for d in decisions2)


def test_criterion_8_property_suites():
    with criterion(8, "property suites: inversion, affine, symmetry, cliques, merge order"):
        rng = random.Random(20250809)

        # quantile/cdf inversion within 1e-10 over 1e4 parameterisations
        worst = 0.0
        for _ in range(10_000):
            d = NormalUncertain(rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3))
            alpha = min(max(rng.random(), 1e-6), 1.0 - 1e-6)
            worst = max(worst, abs(cdf(d, quantile(d, alpha)) - alpha))
        assert worst < 1e-10, worst

        # affine equivariance of single_test over 1e3 random cases
        for _ in range(1_000):
            e = rng.uniform(-50, 50)
            sigma = 10.0 ** rng.uniform(-1, 1)
            a = 10.0 ** rng.uniform(-1, 1)
            b = rng.uniform(-50, 50)
            alpha = rng.choice([0.01, 0.05, 0.1, 0.2])
            d0 = NormalUncertain(e, sigma)
            levels = []
            while len(levels) < rng.randint(1, 40):
                candidate = rng.uniform(0.002, 0.998)
                if abs(candidate - alpha / 2) > 1e-4 and abs(candidate - (1 - alpha / 2)) > 1e-4:
                    levels.append(candidate)
            zs = tuple(quantile(d0, lev) for lev in levels)
            base = single_test(PopulationSample("p", zs), d0, alpha)
            mapped = single_test(
                PopulationSample("q", tuple(a * z + b for z in zs)),
                NormalUncertain(a * e + b, a * sigma),
                alpha,
            )
            assert mapped.outlier_indices == base.outlier_indices
            assert mapped.rejected == base.rejected

        # pairwise symmetry and relabeling invariance over random population sets
        for _ in range(40):
            n = rng.randint(3, 6)
            pops = []
            for k in range(n):
                vals = rng.sample(range(-10000, 10001), rng.randint(4, 12))
                pops.append(PopulationSample(f"p{k + 1}", tuple(v / 1000.0 for v in vals)))
            fits = {p.id: fit_moments(p.values) for p in pops}
            a, b = rng.sample(pops, 2)
            tests = lambda: CrossTests(0.05)
            fwd = pairwise_test(tests(), a, b, fits[a.id], fits[b.id])
            rev = pairwise_test(tests(), b, a, fits[b.id], fits[a.id])
            assert fwd.homogeneous == rev.homogeneous
            assert fwd.decision_i_vs_j == rev.decision_j_vs_i

            group = lambda order: [(p, fits[p.id]) for p in order]
            base = homogeneity_test(group(pops), 0.05)
            shuffled_pops = pops[:]
            rng.shuffle(shuffled_pops)
            shuffled = homogeneity_test(group(shuffled_pops), 0.05)
            assert shuffled.rejected == base.rejected
            assert shuffled.groups == base.groups

        # clique soundness and maximality against brute force, up to 8 vertices
        for _ in range(300):
            n = rng.randint(2, 8)
            ids = [str(k) for k in range(1, n + 1)]
            pairs = list(combinations(ids, 2))
            flags = [rng.random() < 0.5 for _ in pairs]
            got = homogeneous_groups(ids, [make_pairwise(i, j, f) for (i, j), f in zip(pairs, flags)])
            edges = {frozenset(p) for p, f in zip(pairs, flags) if f}
            assert set(got) == brute_force_maximal_cliques(ids, edges)

        # merge-order invariance of pooled verdicts, in the case the pins decide
        for _ in range(200):
            n = rng.randint(2, 4)
            pin = rng.choice(["known_e", "known_sigma", None])
            group = []
            for k in range(n):
                vals = rng.sample(range(-10000, 10001), rng.randint(3, 12))
                pins = {pin: rng.randint(1, 3000) / 1000.0} if pin else {}
                sample = PopulationSample(f"p{k + 1}", tuple(v / 1000.0 for v in vals), **pins)
                group.append((sample, fit_moments(sample.values, sample.known_e, sample.known_sigma)))
            base = common_test(group, 0.05)
            shuffled_group = group[:]
            rng.shuffle(shuffled_group)
            shuffled = common_test(shuffled_group, 0.05)
            assert shuffled.theta0 == base.theta0
            assert shuffled.decision.rejected == base.decision.rejected
            assert sorted(shuffled.outlier_origins) == sorted(base.outlier_origins)


def _run_cli(argv, hash_seed):
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "uncstat.cli", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "CLI reproduces all verdicts and is byte-identical across runs"):
        documents = {}
        for name in ("example1", "example2", "example3", "toothmarks"):
            data, config = u.dataset_paths(name)
            outputs = []
            for attempt, seed in enumerate(("0", "1")):
                out = tmp_path / f"{name}-{attempt}.json"
                _run_cli(
                    ["--data", str(data), "--config", str(config),
                     "--format", "structured", "--report", str(out)],
                    hash_seed=seed,
                )
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} report not byte-identical"
            documents[name] = u.parse_report(outputs[0].decode("utf-8"))

        r1 = documents["example1"]
        assert not r1.homogeneity.rejected
        assert r1.common.theta0.sigma == pytest.approx(1.404, abs=0.002)
        assert not r1.common.decision.rejected

        r2 = documents["example2"]
        assert r2.homogeneity.rejected
        assert r2.selected_group == ("2", "3")
        assert r2.common.theta0.e == pytest.approx(5.146, abs=0.002)
        assert r2.common.decision.outlier_indices == (81,)
        assert not r2.common.decision.rejected

        r3 = documents["example3"]
        assert not r3.homogeneity.rejected
        assert r3.common.theta0.e == pytest.approx(5.139, abs=0.005)
        assert r3.common.theta0.sigma == pytest.approx(1.260, abs=0.005)
        assert not r3.common.decision.rejected

        rf = documents["toothmarks"]
        assert rf.homogeneity.rejected
        assert [sorted(g) for g in rf.homogeneity.groups] == [["3", "4", "5", "6"], ["1"], ["2"]]
        assert rf.common.theta0.e == pytest.approx(2.516, abs=0.002)
        assert rf.common.theta0.sigma == pytest.approx(0.083, abs=0.002)
        assert not rf.common.decision.rejected
