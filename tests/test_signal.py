import math

import numpy as np
import pytest

from linewatch import (
    NoiseSpec,
    SignalParams,
    change_index,
    eval_signal_array,
    generate_series,
)

from oracles import signal_at


def test_eval_signal_pre_and_post_constants():
    theta = SignalParams(0.5, 0.0, 1.0, 0.0, 0.0)
    values = eval_signal_array(theta, 100)
    assert values[24] == 0.0
    assert values[74] == 1.0


def test_eval_signal_pure_kink_extrapolates():
    theta = SignalParams(0.5, 0.0, 0.0, 0.0, 2.0)
    assert eval_signal_array(theta, 100)[74] == pytest.approx(0.5)


def test_eval_signal_boundary_takes_pre_branch():
    theta = SignalParams(0.5, 1.0, 99.0, 0.0, 0.0)
    assert eval_signal_array(theta, 100)[49] == 1.0


def test_eval_signal_index_validation():
    theta = SignalParams(0.5, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_signal_array(theta, 0)


def test_continuity_at_tau_iff_intercepts_match():
    n = 1000
    tau = 500 / n
    smooth = SignalParams(tau, 1.0, 1.0, -2.0, 3.0)
    jumpy = SignalParams(tau, 1.0, 1.5, -2.0, 3.0)
    for theta, continuous in ((smooth, True), (jumpy, False)):
        left = eval_signal_array(theta, n)[499]
        right = theta.beta_plus * (500 / n - theta.tau) + theta.alpha_plus
        assert math.isclose(left, right, abs_tol=1e-12) == continuous


def test_generate_noiseless_equals_signal():
    theta = SignalParams(0.4, 1.0, 2.0, 0.5, -0.5)
    s = generate_series(theta, 50, NoiseSpec("gaussian", 0.0), seed=1)
    expected = [signal_at(theta, i, 50) for i in range(1, 51)]
    assert np.array_equal(s, np.array(expected))


def test_generate_determinism():
    theta = SignalParams(0.4, 0.0, 1.0, 0.0, 0.0)
    a = generate_series(theta, 200, NoiseSpec("gaussian", 1.0), seed=42)
    b = generate_series(theta, 200, NoiseSpec("gaussian", 1.0), seed=42)
    assert np.array_equal(a, b)
    c = generate_series(theta, 200, NoiseSpec("gaussian", 1.0), seed=43)
    assert not np.array_equal(a, c)


def test_generate_law_of_large_numbers():
    # sample moments of the generated noise against their targets
    theta = SignalParams(0.5, 0.0, 0.0, 0.0, 0.0)
    n = 10**5
    s = generate_series(theta, n, NoiseSpec("gaussian", 1.0), seed=11)
    assert abs(s.mean()) <= 4.0 / math.sqrt(n)
    assert abs(s.var(ddof=1) - 1.0) <= 0.05


def test_student_t_infinite_df_rejected():
    with pytest.raises(ValueError):
        NoiseSpec("student_t", df=math.inf)
    with pytest.raises(ValueError):
        NoiseSpec("student_t", df=None)
    with pytest.raises(ValueError):
        NoiseSpec("student_t", df=-3.0)


def test_student_t_df3_variance_stable_across_seeds():
    theta = SignalParams(0.5, 0.0, 0.0, 0.0, 0.0)
    noise = NoiseSpec("student_t", df=3.0)
    variances = [
        generate_series(theta, 20000, noise, seed=s).var() for s in range(5)
    ]
    assert all(np.isfinite(v) for v in variances)
    assert max(variances) < 3.0 * 3.0  # df=3 variance is 3; allow wide slack


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec("poisson")
    NoiseSpec("gaussian", sigma=0.0)  # noiseless allowed


def test_signal_params_validation():
    with pytest.raises(ValueError):
        SignalParams(0.0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        SignalParams(1.0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        SignalParams(0.5, math.nan, 0, 0, 0)


def test_change_index_guard_against_float_fuzz():
    n = 2600
    theta = SignalParams(2000 / n, 0, 1, 0, 0)
    assert change_index(theta, n) == 2000


@pytest.mark.parametrize("noise", [NoiseSpec("gaussian", 2.0), NoiseSpec("student_t", df=3.0)],
                         ids=["gaussian", "student_t"])
def test_noise_draw_in_pieces_equals_one_draw(noise):
    # the early-exit Monte Carlo driver draws each replication's stream
    # segment by segment and relies on this
    whole = noise.draw(np.random.default_rng(21), 10_000)
    rng = np.random.default_rng(21)
    pieces = [noise.draw(rng, size) for size in (1, 999, 37, 5000, 3963)]
    assert np.array_equal(np.concatenate(pieces), whole)
