"""Exact relations between runs on transformed inputs.

A change of units by a power of two multiplies every value and pin by
``2**k`` without rounding, so every fit and band end scales bit for bit and
every outlier, verdict and group stays as it was.  The pooled test is left
out: in the means-unknown case it rescales each population to unit scale
about its own location, which stays in data units, so its verdict can
change with the unit (``example2`` does).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncstat as u
from uncstat import ParameterCase, PopulationSample, RunConfig

# The pin each case gives every population, drawn in data units.
CASE_PIN = {
    ParameterCase.MEANS_UNKNOWN: "known_sigma",
    ParameterCase.SIGMAS_UNKNOWN: "known_e",
    ParameterCase.BOTH_UNKNOWN: None,
}
PINS = {
    "known_sigma": st.integers(100, 3000).map(lambda x: x / 1000),
    "known_e": st.integers(-2000, 2000).map(lambda x: x / 1000),
}


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
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_power_of_two_units_scale_bands_and_keep_decisions(case, k, data):
    values = st.lists(st.integers(-5000, 5000), min_size=2, max_size=12, unique=True)
    name = CASE_PIN[case]
    samples = [
        PopulationSample(
            f"p{j}",
            tuple(x / 1000 for x in data.draw(values)),
            **({} if name is None else {name: data.draw(PINS[name], label=name)}),
        )
        for j in range(data.draw(st.integers(2, 4)))
    ]
    config = RunConfig(alpha=data.draw(st.sampled_from([0.05, 0.1, 0.3])))
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
