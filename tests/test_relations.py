"""Exact relations between runs on transformed inputs.

A change of units by a power of two multiplies every value and pin by
``2**k`` without rounding, so every fit and band end scales bit for bit and
every outlier, verdict and group stays as it was.  The pooled test is left
out: in the means-unknown case it rescales each population to unit scale
about its own location, which stays in data units, so its verdict can
change with the unit (``example2`` does).

Permuting the values inside one population changes no fit, since
``fsum`` is exact, so every outlier position moves with its value and every
verdict and group stays as it was, the pooled test's included.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uncstat as u
from uncstat import ParameterCase, PopulationSample, RunConfig

# The pin each case gives every population, drawn in data units.
CASE_PIN = {
    ParameterCase.MEANS_UNKNOWN: "known_sigma",
    ParameterCase.SIGMAS_UNKNOWN: "known_e",
    ParameterCase.BOTH_UNKNOWN: None,
}
# Populations as drawn: values and both pins in thousandths of a data unit.
# A case keeps the one pin it gives every population, or none.
POPULATIONS = st.lists(
    st.tuples(
        st.lists(st.integers(-5000, 5000), min_size=2, max_size=12, unique=True),
        st.integers(-2000, 2000),
        st.integers(100, 3000),
    ),
    min_size=2,
    max_size=4,
)
ALPHAS = st.sampled_from([0.05, 0.1, 0.3])


def study(case, drawn):
    """The samples of ``case`` made from drawn populations."""
    name = CASE_PIN[case]
    return [
        PopulationSample(
            f"p{j}",
            tuple(x / 1000 for x in ints),
            **({} if name is None else {name: {"known_e": e, "known_sigma": sigma}[name] / 1000}),
        )
        for j, (ints, e, sigma) in enumerate(drawn)
    ]


def scaled(sample, factor):
    return PopulationSample(
        sample.id,
        tuple(v * factor for v in sample.values),
        *(None if pin is None else pin * factor for pin in (sample.known_e, sample.known_sigma)),
    )


def ends(decision):
    return decision.interval.lower, decision.interval.upper


@pytest.mark.parametrize("k", [-20, -3, 3, 20])
@pytest.mark.parametrize("case", list(CASE_PIN))
@given(drawn=POPULATIONS, alpha=ALPHAS)
# Squaring by ``** 2`` rounded p1's scale at 2**3 one ulp off the scaled one.
@example(drawn=[([0, 1], 0, 1000), ([0, 246], 567, 1000)], alpha=0.05)
@settings(max_examples=25, deadline=None)
def test_power_of_two_units_scale_bands_and_keep_decisions(case, k, drawn, alpha):
    samples = study(case, drawn)
    config = RunConfig(alpha=alpha)
    factor = math.ldexp(1.0, k)
    base = u.run_pipeline(samples, config, mode="homogeneity")
    other = u.run_pipeline([scaled(s, factor) for s in samples], config, mode="homogeneity")

    assert base.case == other.case == case
    for p, q in zip(base.populations, other.populations, strict=True):
        assert (q.fit.e, q.fit.sigma) == (p.fit.e * factor, p.fit.sigma * factor)
        assert ends(q.self_test) == tuple(end * factor for end in ends(p.self_test))
        assert q.self_test.outlier_indices == p.self_test.outlier_indices
        assert q.self_test.rejected == p.self_test.rejected
    for p, q in zip(base.homogeneity.pairwise, other.homogeneity.pairwise, strict=True):
        assert (q.i, q.j, q.homogeneous) == (p.i, p.j, p.homogeneous)
        for dp, dq in ((p.decision_i_vs_j, q.decision_i_vs_j), (p.decision_j_vs_i, q.decision_j_vs_i)):
            assert ends(dq) == tuple(end * factor for end in ends(dp))
            assert dq.outlier_indices == dp.outlier_indices
            assert dq.rejected == dp.rejected
    assert other.homogeneity.groups == base.homogeneity.groups
    assert other.warnings == base.warnings


@pytest.mark.parametrize("case", list(CASE_PIN))
@given(drawn=POPULATIONS, alpha=ALPHAS, data=st.data())
@settings(max_examples=40, deadline=None)
def test_permuting_one_population_moves_its_outliers_and_keeps_decisions(case, drawn, alpha, data):
    samples = study(case, drawn)
    j = data.draw(st.integers(0, len(samples) - 1), label="population")
    s = samples[j]
    order = data.draw(st.permutations(range(s.size)), label="order")
    moved = list(samples)
    moved[j] = PopulationSample(s.id, tuple(s.values[p] for p in order), s.known_e, s.known_sigma)
    # 1-based position of each of s's values after the permutation
    where = {p + 1: k + 1 for k, p in enumerate(order)}
    config = RunConfig(alpha=alpha, group_selection=tuple(x.id for x in samples))
    base = u.run_pipeline(samples, config)
    other = u.run_pipeline(moved, config)

    def mapped(decision, owner):
        positions = decision.outlier_indices
        return tuple(sorted(map(where.get, positions))) if owner == s.id else positions

    assert base.case == other.case == case
    for p, q in zip(base.populations, other.populations, strict=True):
        assert q.fit == p.fit
        assert q.self_test.interval == p.self_test.interval
        assert q.self_test.outlier_indices == mapped(p.self_test, p.sample.id)
        assert q.self_test.rejected == p.self_test.rejected
    for p, q in zip(base.homogeneity.pairwise, other.homogeneity.pairwise, strict=True):
        assert (q.i, q.j, q.homogeneous) == (p.i, p.j, p.homogeneous)
        for owner, dp, dq in ((p.i, p.decision_i_vs_j, q.decision_i_vs_j),
                              (p.j, p.decision_j_vs_i, q.decision_j_vs_i)):
            assert dq.interval == dp.interval
            assert dq.outlier_indices == mapped(dp, owner)
            assert dq.rejected == dp.rejected
    assert other.homogeneity.groups == base.homogeneity.groups

    pc, qc = base.common, other.common
    start = sum(x.size for x in samples[:j])  # every population is pooled, in sample order
    pooled = {start + p: start + k for p, k in where.items()}
    assert qc.theta0 == pc.theta0
    assert qc.diagnostics == pc.diagnostics
    assert qc.decision.interval == pc.decision.interval
    positions = pc.decision.outlier_indices
    assert qc.decision.outlier_indices == tuple(sorted(pooled.get(p, p) for p in positions))
    assert qc.decision.threshold == pc.decision.threshold
    assert qc.decision.rejected == pc.decision.rejected
    assert other.warnings == base.warnings
