import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from linewatch import (
    CalibrationResolutionError,
    CalibrationSpec,
    DegenerateScaleError,
    DetectorConfig,
    DetectorState,
    KnownPrechange,
    NoiseSpec,
    calibrate,
    calibrate_multi_bin,
    simulate_null_maxima,
)
from linewatch.calibration import (
    _MAXIMA_BLOCK,
    NullMaxima,
    _null_maxima_for_bins,
    _order_statistic,
    _thresholds,
)

from oracles import full_horizon_maxima, noise_matrix, replication_rows, union_at_ranks

GAUSS = NoiseSpec("gaussian", 1.0)


def _spec(**kw):
    base = dict(
        replications=200, eta=0.5, horizon=60, k=30,
        n_jump=3, n_kink=3, noise=GAUSS, master_seed=123,
    )
    base.update(kw)
    return CalibrationSpec(**base)


def test_noiseless_null_maxima_are_zero():
    spec = _spec(noise=NoiseSpec("gaussian", 0.0), replications=20)
    mx = simulate_null_maxima(spec)
    assert np.all(mx.jump == 0.0)
    assert np.all(mx.kink == 0.0)


def test_maxima_deterministic_under_fixed_seed():
    a = simulate_null_maxima(_spec())
    b = simulate_null_maxima(_spec())
    assert np.array_equal(a.jump, b.jump)
    assert np.array_equal(a.kink, b.kink)
    c = simulate_null_maxima(_spec(master_seed=124))
    assert not np.array_equal(a.jump, c.jump)


def _row_state(spec, line, row):
    """A fresh detector of ``spec``'s bins on row ``row`` of ``line``."""
    alpha, beta, _ = line
    return DetectorState(DetectorConfig(spec.n_jump, spec.n_kink),
                         KnownPrechange(float(alpha[row, 0]), float(beta[row, 0])),
                         absolute_offset=spec.k)


def test_tiny_run_matches_exhaustive_streaming_trace():
    # r = 5 replications recomputed with the production step() path on
    # their drawn lines, storing every statistic and taking the max
    spec = _spec(replications=5, horizon=40, k=20, n_jump=2, n_kink=4)
    mx = simulate_null_maxima(spec)
    line, x = replication_rows(spec.noise, spec.master_seed, 0, 5, spec.k, spec.horizon - 1,
                               block=_MAXIMA_BLOCK)
    for rep in range(5):
        state = _row_state(spec, line, rep)
        js, ks = [], []
        for value in x[rep]:
            snap, _ = state.step(float(value))
            js.append(abs(snap.j_stat))
            ks.append(abs(snap.k_stat))
        assert mx.jump[rep] == pytest.approx(max(js), rel=1e-9, abs=1e-12)
        assert mx.kink[rep] == pytest.approx(max(ks), rel=1e-9, abs=1e-12)


def _assert_maxima_equal_reference(spec, more_pairs):
    pairs = [(spec.n_jump, spec.n_kink)] + more_pairs
    want = full_horizon_maxima(spec, pairs)
    mx = simulate_null_maxima(spec)
    assert np.array_equal(mx.jump, want[0][0]) and np.array_equal(mx.kink, want[0][1])
    # the per-pair maxima that calibrate_multi_bin ranks
    for got, ref in zip(_null_maxima_for_bins(spec, pairs), want):
        for g, r in zip(got, ref):
            assert (g is None and r is None) or np.array_equal(g, r)


@pytest.mark.parametrize("noise", [NoiseSpec("gaussian", 1.5),
                                   NoiseSpec("student_t", df=3.0)],
                         ids=["gaussian", "student_t"])
@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_null_maxima_equal_full_horizon_reference(noise, standardize):
    spec = _spec(replications=23, k=150, horizon=1200, n_jump=8, n_kink=20, noise=noise,
                 standardize=standardize)
    _assert_maxima_equal_reference(spec, [(5, 5), (None, 9), (12, None)])


@pytest.mark.parametrize("monitored", [512, 513, 1536, 1537])
def test_null_maxima_at_segment_edges(monitored):
    # 512 and 1536 monitored steps end the first two segments, 513 and
    # 1537 start the next ones
    spec = _spec(replications=12, k=100, horizon=monitored + 1, n_jump=4, n_kink=6)
    _assert_maxima_equal_reference(spec, [(3, 3), (40, 40)])


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_two_point_histories_draw_their_lines(standardize):
    # k = 2 leaves no residual: a standardized row draws no chi^2_0
    spec = _spec(replications=30, k=2, horizon=50, standardize=standardize)
    _assert_maxima_equal_reference(spec, [])


def test_noiseless_flat_standardized_history_is_refused():
    spec = _spec(noise=NoiseSpec("gaussian", 0.0), replications=5, standardize=True)
    with pytest.raises(DegenerateScaleError, match="^historical segment has zero variance$"):
        simulate_null_maxima(spec)


def _assert_same_law(a, b):
    """Two-sample Kolmogorov-Smirnov at the 99% level, on equal samples."""
    rows = a.size
    both = np.sort(np.concatenate([a, b]))
    gap = np.abs(np.searchsorted(np.sort(a), both, side="right")
                 - np.searchsorted(np.sort(b), both, side="right")).max() / rows
    assert gap <= 1.628 * math.sqrt(2 / rows)


def _law_spec(standardize):
    return _spec(replications=20_000, k=40, horizon=60, noise=NoiseSpec("gaussian", 1.7),
                 standardize=standardize)


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_null_maxima_follow_the_law_of_fitted_histories(standardize):
    # 20,000 rows on drawn lines against 20,000 on lines fitted to drawn
    # histories
    spec = _law_spec(standardize)
    mx = simulate_null_maxima(spec)
    ((jump, kink),) = full_horizon_maxima(dataclasses.replace(spec, master_seed=321),
                                          [(spec.n_jump, spec.n_kink)], full_history=True)
    for drawn, fitted in ((mx.jump, jump), (mx.kink, kink)):
        _assert_same_law(drawn, fitted)


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_block_stream_maxima_follow_the_law_of_per_row_streams(standardize):
    # 20,000 rows drawn in blocks of 16 against 20,000 rows that each
    # draw from a generator of their own
    spec = _law_spec(standardize)
    mx = simulate_null_maxima(spec)
    ((jump, kink),) = full_horizon_maxima(dataclasses.replace(spec, master_seed=321),
                                          [(spec.n_jump, spec.n_kink)], block=1)
    for blocked, per_row in ((mx.jump, jump), (mx.kink, kink)):
        _assert_same_law(blocked, per_row)


def test_maxima_of_a_row_do_not_depend_on_the_replication_count():
    # rows 96..99 share their block of 16 with rows 100..111 at 250
    # replications; at 100 the block draws for those rows and drops them
    few = simulate_null_maxima(_spec(replications=100))
    many = simulate_null_maxima(_spec(replications=250))
    assert np.array_equal(few.jump, many.jump[:100])
    assert np.array_equal(few.kink, many.kink[:100])


def test_order_statistic_conventions():
    maxima = np.sort(np.arange(1.0, 12.0))  # r = 11
    assert _order_statistic(maxima, 0.5) == 6.0  # ceil(0.5 * 11) = 6th = median
    assert _thresholds([maxima], 0.5, 11) == (0.5, [6.0], 6 / 11)
    assert _order_statistic(maxima, 1e-9) == 11.0  # eta -> 0: the largest maximum
    r = 200_000  # where (1 - (r - q) / r) * r rounds up to 3e-11 past q
    maxima = np.arange(1.0, r + 1)
    assert all(_order_statistic(maxima, (r - q) / r) == q for q in range(1, r + 1))


def _assert_levels_read_the_thresholds(families, eta_marginal, rhos):
    for f, rho in zip(families, rhos):
        assert _order_statistic(np.sort(f), eta_marginal) == rho


@pytest.mark.parametrize("n_families", [2, 3])
def test_joint_rank_matches_brute_force_on_tied_maxima(n_families):
    rng = np.random.default_rng(2500 + n_families)
    for r in (1, 2, 3, 7, 40, 97):
        for _ in range(5):
            families = list(rng.integers(0, 5, size=(n_families, r)).astype(float))
            union = union_at_ranks(families)
            for level in (1.0 / r, 0.1, 0.5, 1.0 - 1.0 / math.e, 0.9, 1.0 - 1e-9):
                if level < 1.0 / r:
                    continue
                # the last rank whose union meets the level, or the next if closer
                q = max(np.flatnonzero(union >= level)) + 1
                if q < r and abs(union[q] - level) < abs(union[q - 1] - level):
                    q += 1
                eta_m, rhos, got = _thresholds(families, level, r)
                assert (eta_m, got) == ((r - q) / r, union[q - 1])
                assert rhos == [np.sort(f)[q - 1] for f in families]
                assert abs(got - level) == np.min(np.abs(union - level))
                _assert_levels_read_the_thresholds(families, eta_m, rhos)


@pytest.mark.parametrize("level", [0.5, 0.1, 1.0 - 1.0 / math.e])
def test_joint_rank_is_closest_to_the_target_at_two_hundred_thousand_rows(level):
    # finer than a 1e-4 search of the marginal level can resolve
    rng = np.random.default_rng(25)
    r = 200_000
    common = rng.standard_normal(r)
    families = [common + rng.standard_normal(r),
                0.6 * common + 0.8 * rng.standard_normal(r)]
    sorted_fams = [np.sort(f) for f in families]

    def union_at(q):
        return np.mean((families[0] >= sorted_fams[0][q - 1])
                       | (families[1] >= sorted_fams[1][q - 1]))

    eta_m, rhos, union = _thresholds(families, level, r)
    q = int(np.searchsorted(sorted_fams[0], rhos[0])) + 1
    assert rhos[1] == sorted_fams[1][q - 1] and union == union_at(q)
    assert abs(union - level) <= min(abs(union_at(q - 1) - level),
                                     abs(union_at(q + 1) - level))
    _assert_levels_read_the_thresholds(families, eta_m, rhos)


def test_calibrate_single_sets_other_threshold_infinite():
    result = calibrate(_spec(n_kink=None))
    assert result.method == "single-jump"
    assert math.isfinite(result.rho_jump)
    assert result.rho_kink == math.inf
    assert result.fa_kink is None
    cfg = result.to_config()
    assert cfg.n_kink is None


def test_single_threshold_equals_sorting_selection():
    spec = _spec(replications=501)
    mx = simulate_null_maxima(spec)
    result = calibrate(dataclasses.replace(spec, n_jump=None), maxima=mx)
    q = math.ceil((1 - spec.eta) * spec.replications)
    assert result.rho_kink == np.sort(mx.kink)[q - 1]


def test_monotonicity_of_false_alarm_in_threshold():
    spec = _spec(replications=400)
    mx = simulate_null_maxima(spec)
    fas = []
    for rho in np.linspace(0.01, 1.5, 40):
        fas.append(float(((mx.jump >= rho) | (mx.kink >= rho * 0.1)).mean()))
    assert all(a >= b for a, b in zip(fas, fas[1:]))


def test_joint_duplicate_samples_gives_eta_marginal():
    rng = np.random.default_rng(0)
    vals = rng.uniform(size=1000)
    mx = NullMaxima(jump=vals, kink=vals.copy())
    result = calibrate(_spec(replications=1000), maxima=mx)
    # perfectly dependent: union = marginal, so eta' = eta
    assert result.eta_marginal == pytest.approx(0.5, abs=1e-2)
    assert result.empirical_fa == pytest.approx(0.5, abs=1e-2)


def test_joint_independent_samples_match_closed_form():
    rng = np.random.default_rng(1)
    r = 20000
    mx = NullMaxima(jump=rng.uniform(size=r), kink=rng.uniform(size=r))
    eta = 0.5
    result = calibrate(_spec(replications=r, eta=eta), maxima=mx)
    expected = 1.0 - math.sqrt(1.0 - eta)  # P(union) = 1 - (1 - eta')^2
    assert result.eta_marginal == pytest.approx(expected, abs=0.02)
    assert result.empirical_fa == pytest.approx(eta, abs=2.0 / math.sqrt(r) + 1e-3)


def test_joint_union_hits_target_within_resolution():
    spec = _spec(replications=2000)
    result = calibrate(spec)
    assert result.method == "joint"
    assert abs(result.empirical_fa - spec.eta) <= 1.0 / math.sqrt(spec.replications)
    assert result.fa_jump == pytest.approx(result.fa_kink, abs=0.05)


def test_joint_requires_both_statistics():
    # a spec without the kink bin calibrates the jump statistic alone
    result = calibrate(_spec(n_kink=None))
    assert result.method == "single-jump" and result.fa_kink is None
    with pytest.raises(ValueError, match="maxima lack"):
        calibrate(_spec(), maxima=simulate_null_maxima(_spec(n_kink=None)))


def test_unattainable_eta_raises_resolution_error():
    with pytest.raises(CalibrationResolutionError):
        calibrate(_spec(replications=50, eta=0.001))


def test_single_statistic_unattainable_eta_raises_resolution_error():
    # one statistic alone would otherwise return its sample maximum,
    # whose false-alarm rate of 1/r or more exceeds eta
    with pytest.raises(CalibrationResolutionError):
        calibrate(_spec(replications=50, eta=0.001, n_kink=None))


def test_spec_states_one_target():
    with pytest.raises(ValueError, match="ARL target takes no eta"):
        _spec(arl=True)
    with pytest.raises(ValueError, match="needs eta"):
        _spec(eta=None)
    assert _spec(eta=None, arl=True).level == 1.0 - 1.0 / math.e
    assert _spec(eta=0.3).level == 0.3


def test_spec_refuses_a_negative_master_seed():
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -3"):
        _spec(master_seed=-3)


@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_spec_refuses_a_bin_size_that_is_not_a_positive_integer(n):
    for key in ("n_jump", "n_kink"):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1, got {n!r}"):
            _spec(**{key: n})


def test_multi_bin_calibration_refuses_a_zero_scale_before_simulating():
    with pytest.raises(ValueError, match="must be an integer >= 1, got 0"):
        calibrate_multi_bin(_spec(), [0, 3])


def test_arl_delegates_to_single_at_fixed_eta():
    spec = _spec(replications=500, horizon=80, n_kink=None)
    mx = simulate_null_maxima(spec)
    via_arl = calibrate(dataclasses.replace(spec, eta=None, arl=True), maxima=mx)
    direct = calibrate(dataclasses.replace(spec, eta=1.0 - 1.0 / math.e), maxima=mx)
    assert via_arl.rho_jump == direct.rho_jump
    assert via_arl.method == "arl-single-jump"


def test_arl_delegates_to_joint_for_both():
    spec = _spec(replications=500, horizon=80, eta=None, arl=True)
    via_arl = calibrate(spec)
    assert math.isfinite(via_arl.rho_jump) and math.isfinite(via_arl.rho_kink)
    assert via_arl.method == "arl-joint"


def test_multi_bin_single_scale_reduces_to_joint():
    spec = _spec(replications=800, k=40, horizon=100, n_jump=4, n_kink=4)
    joint = calibrate(spec)
    multi = calibrate_multi_bin(spec, [4])
    assert multi.rho_jump[0] == joint.rho_jump
    assert multi.rho_kink[0] == joint.rho_kink
    assert multi.empirical_fa == joint.empirical_fa
    assert multi.eta_marginal == joint.eta_marginal


def test_multi_bin_union_hits_target():
    spec = _spec(replications=1000, k=60, horizon=200, n_jump=2, n_kink=2)
    multi = calibrate_multi_bin(spec, [2, 12])
    assert len(multi.rho_jump) == 2
    assert abs(multi.empirical_fa - spec.eta) <= 1.0 / math.sqrt(1000)
    configs = multi.to_configs()
    assert configs[0].n_jump == 2 and configs[1].n_jump == 12


def test_null_streams_invariant_to_true_prechange_line():
    # residuals after an OLS fit do not depend on the line added to the
    # noise, so calibrating on zero-line nulls loses no generality
    spec = _spec(replications=50, k=40, horizon=80)
    mx = simulate_null_maxima(spec)
    total = spec.k + spec.horizon - 1
    line = 4.0 + 0.3 * np.arange(1, total + 1)  # arbitrary true pre-change line
    drawn, x = replication_rows(GAUSS, spec.master_seed, 0, 50, spec.k, spec.horizon - 1, line,
                                block=_MAXIMA_BLOCK)
    jmax2 = np.zeros(50)
    for rep in range(50):
        state = _row_state(spec, drawn, rep)
        jmax2[rep] = max(abs(state.step(float(value))[0].j_stat) for value in x[rep])
    assert np.allclose(jmax2, mx.jump, atol=1e-9)


@pytest.mark.parametrize("horizon", [1, 0])
def test_horizon_below_two_is_rejected(horizon):
    # horizon 1 would monitor no step and calibrate every threshold to 0
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        _spec(horizon=horizon)
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        _spec(horizon=horizon, eta=None, arl=True)


@pytest.mark.parametrize("k", [1, 0])
def test_history_below_two_is_rejected(k):
    # every replication fits its pre-change line on its k-point history
    with pytest.raises(ValueError, match="need k >= 2"):
        _spec(k=k)
    with pytest.raises(ValueError, match="need k >= 2"):
        _spec(k=k, eta=None, arl=True)


def test_arl_5000_threshold_matches_published_value():
    # N = 10, k = 2500, ARL target 5000: published threshold 0.734
    spec = CalibrationSpec(
        replications=10000, arl=True, horizon=5000, k=2500,
        n_jump=10, n_kink=None, noise=GAUSS, master_seed=210,
    )
    cal = calibrate(spec)
    assert abs(cal.rho_jump - 0.734) <= 0.05


def test_multi_bin_arl_calibration_hits_target_band():
    # scales {2, 40} tuned for an average run length of 500: the
    # resulting multi-bin detector's empirical ARL over 500 null runs
    from oracles import batch_residuals, config_alarms

    k = 500
    spec = CalibrationSpec(
        replications=2000, arl=True, horizon=500, k=k,
        n_jump=2, n_kink=2, noise=GAUSS, master_seed=4040,
    )
    multi = calibrate_multi_bin(spec, [2, 40])
    configs = multi.to_configs()

    cap = 5000
    reps = 500
    lengths = np.empty(reps)
    for lo in range(0, reps, 100):
        hi = min(lo + 100, reps)
        x = noise_matrix(GAUSS, 4141, lo, hi, k + cap)
        resid = batch_residuals(x, k)
        alarm = np.full(hi - lo, cap + 1, dtype=np.int64)
        for cfg in configs:
            a, _ = config_alarms(resid, cfg)
            alarm = np.minimum(alarm, a)
        lengths[lo:hi] = np.minimum(alarm, cap)
    assert 350.0 <= lengths.mean() <= 700.0


def test_chunk_size_does_not_change_results(monkeypatch):
    import linewatch.engine as engine

    # each row's fit uses row reductions only, so the rows sharing its
    # chunk (here 300, 32 and 16 to a chunk) cannot change its bits;
    # first alarms, from step 41 on and for some rows never, run in
    # chunks of 60, 9 and 1 rows whose segments lengthen as rows alarm
    spec = _spec(replications=300, k=50, horizon=120)
    config = DetectorConfig(3, 10, 2.0, 0.1)
    runs = []
    for elements in (65_536, 5000, 340):
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", elements)
        runs.append((simulate_null_maxima(spec),
                     engine.first_alarms(GAUSS, 11, 60, 50, 50 + 3000, config)))
    (whole, (alarm, kind)), rest = runs[0], runs[1:]
    for chunked, (chunked_alarm, chunked_kind) in rest:
        assert np.array_equal(whole.jump, chunked.jump)
        assert np.array_equal(whole.kink, chunked.kink)
        assert np.array_equal(alarm, chunked_alarm)
        assert np.array_equal(kind, chunked_kind)


def test_calibration_peak_memory_does_not_grow_with_replications():
    """Chunks hold a fixed number of rows, so ten times the replications
    add only their per-row results (a few floats a row) to the peak of
    traced memory."""
    def peak(replications):
        tracemalloc.start()
        try:
            calibrate(_spec(replications=replications, horizon=1000, k=100))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # first-call allocations out of the way
    small, large = peak(400), peak(4000)
    assert large - small <= 3600 * 8 * 8  # eight floats per added row


def test_joint_maxima_calibrate_one_statistic_like_a_fresh_run():
    # demo 02's path: one simulation of both statistics serves each alone
    spec = _spec(replications=400)
    maxima = simulate_null_maxima(spec)
    for one in (dataclasses.replace(spec, n_kink=None), dataclasses.replace(spec, n_jump=None)):
        assert calibrate(one, maxima=maxima) == calibrate(one)


def test_shared_maxima_allow_recalibration():
    spec = _spec(replications=400, n_kink=None)
    maxima = simulate_null_maxima(spec)
    first = calibrate(spec, maxima=maxima)
    tighter = calibrate(dataclasses.replace(spec, eta=0.2), maxima=maxima)
    assert tighter.rho_jump >= first.rho_jump
