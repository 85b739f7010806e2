import math
import struct
import warnings
from typing import Optional, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linewatch import (
    ChangeKind,
    DetectionEvent,
    DetectorConfig,
    DetectorState,
    DetectorStoppedError,
    KnownPrechange,
    NoiseSpec,
    SignalParams,
    fit_ols,
    generate_series,
    load_state,
    multi_bin_run,
    run,
    save_state,
    StatSnapshot,
    theorem_scale_config,
)
from linewatch.detector import _SNAP_FIELDS, _SNAP_FMT, SNAPSHOT_SIZE
from linewatch.engine import batch_stats

from oracles import (
    first_crossing_alarm,
    step_multi_bin_run,
    step_run,
    window_stats,
    window_stats_fsum,
)


def _step_trace(residuals, n_jump, n_kink, rho_j=math.inf, rho_k=math.inf):
    config = DetectorConfig(n_jump, n_kink, rho_j, rho_k)
    state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=0)
    js, ks = [], []
    for x in residuals:
        snap, event = state.step(float(x))
        js.append(snap.j_stat)
        ks.append(snap.k_stat)
        if event is not None:
            break
    return np.array(js, dtype=float), np.array(ks, dtype=float), state


def test_zero_residuals_never_alarm():
    config = DetectorConfig(3, 3, 0.1, 0.01)
    state = DetectorState(config, KnownPrechange(2.0, 0.5), absolute_offset=0)
    for t in range(1, 200):
        snap, event = state.step(2.0 + 0.5 * (t))
        assert snap.j_stat == 0.0
        assert snap.k_stat == 0.0
        assert event is None


def test_unit_bin_hand_trace():
    # known zero line, constant data a, N_J = 1: windows hold 3 slots,
    # so J climbs a/3, 2a/3 and reaches a at t = 3
    a = 0.7
    js, _, _ = _step_trace([a, a, a], 1, None)
    assert js == pytest.approx([a / 3, 2 * a / 3, a])


def test_step_matches_fsum_oracle_small():
    rng = np.random.default_rng(0)
    for n_jump, n_kink in [(1, 1), (2, 3), (5, 2), (4, 4)]:
        res = rng.standard_normal(9 * max(n_jump, n_kink))
        js, ks, _ = _step_trace(res, n_jump, n_kink)
        oj, ok = window_stats_fsum(res, n_jump, n_kink)
        assert np.allclose(js, oj, rtol=1e-12, atol=1e-12)
        assert np.allclose(ks, ok, rtol=1e-12, atol=1e-12)


def test_step_matches_window_oracle_random_bins():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n_jump = int(rng.integers(1, 30))
        n_kink = int(rng.integers(1, 30))
        length = int(rng.integers(1, 8 * max(n_jump, n_kink)))
        res = rng.standard_normal(length)
        js, ks, _ = _step_trace(res, n_jump, n_kink)
        oj, ok = window_stats(res, n_jump, n_kink)
        assert np.allclose(js, oj, rtol=1e-12, atol=1e-12)
        assert np.allclose(ks, ok, rtol=1e-12, atol=1e-12)


def test_windows_lie_between_2n1_and_3n():
    rng = np.random.default_rng(2)
    config = DetectorConfig(7, 4)
    state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=0)
    for t in range(1, 100):
        snap, _ = state.step(float(rng.standard_normal()))
        assert 2 * 7 + 1 <= snap.window_jump <= 3 * 7
        assert 2 * 4 + 1 <= snap.window_kink <= 3 * 4
        assert snap.window_jump == 2 * 7 + (t % 7) + 1
        assert snap.window_kink == 2 * 4 + (t % 4) + 1


def test_kink_normalizer_is_sum_of_squares():
    # exact integer identity d = sum(i^2, i <= M), including M = 10^6
    for m in list(range(1, 200)) + [10**6]:
        assert m * (m + 1) * (2 * m + 1) // 6 == sum(i * i for i in range(1, m + 1))


def test_step_rejected_after_stop():
    config = DetectorConfig(1, None, rho_jump=0.1)
    state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=10)
    snap, event = state.step(5.0)
    assert event is not None and event.time == 11
    with pytest.raises(DetectorStoppedError):
        state.step(1.0)


def test_jump_precedence_on_simultaneous_crossing():
    # a huge first residual puts both statistics over their thresholds
    # at the same step; the jump label must win
    config = DetectorConfig(2, 2, rho_jump=0.5, rho_kink=0.01)
    state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=0)
    snap, event = state.step(100.0)
    assert abs(snap.j_stat) >= 0.5 and abs(snap.k_stat) >= 0.01
    assert event.kind is ChangeKind.JUMP


def test_run_noiseless_jump_with_known_line():
    n = 200
    theta = SignalParams(0.5, 0.0, 1.0, 0.0, 0.0)
    series = generate_series(theta, n, NoiseSpec("gaussian", 0.0), seed=0)
    config = DetectorConfig(5, None, rho_jump=0.5)
    result = run(series, 20, config, prechange=KnownPrechange(0.0, 0.0))
    assert result.detected
    assert result.event.kind is ChangeKind.JUMP
    change = math.ceil(n * theta.tau)
    assert change < result.event.time <= change + 3 * 5


def test_run_noiseless_no_change_returns_no_detection():
    series = np.full(100, 1.5)
    config = DetectorConfig(4, 4, 0.5, 0.05)
    result = run(series, 10, config)
    assert not result.detected
    assert result.event is None
    assert result.alarm_time == 100


def test_run_kink_only_detects_kink():
    n = 300
    theta = SignalParams(0.5, 0.0, 0.0, 0.0, 3.0)
    series = generate_series(theta, n, NoiseSpec("gaussian", 0.0), seed=0)
    config = DetectorConfig(None, 5, rho_kink=0.002)
    result = run(series, 30, config, prechange=KnownPrechange(0.0, 0.0))
    assert result.detected
    assert result.event.kind is ChangeKind.KINK


def test_run_matches_oracle_alarm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        series = rng.standard_normal(150)
        series[90:] += 1.2
        config = DetectorConfig(6, 9, 0.6, 0.05)
        result = run(series, 40, config)
        fit = result.prechange
        t_idx = np.arange(41, 151)
        resid = series[40:] - (fit.alpha_hat + fit.beta_hat * t_idx)
        oj, ok = window_stats(resid, 6, 9)
        t_alarm, kind = first_crossing_alarm(oj, ok, 0.6, 0.05)
        if t_alarm is None:
            assert not result.detected
        else:
            assert result.event.time == 40 + t_alarm
            assert str(result.event.kind) == kind


def test_figure_style_jump_is_flagged_at_521():
    # k = 500 history, bins of 2, jump threshold 1.5, jump of two sigma
    # at observation 516; this frozen seed alarms at observation 521
    theta = SignalParams(516 / 700, 0.0, 2.0, 0.0, 0.0)
    series = generate_series(theta, 700, NoiseSpec("gaussian", 1.0), seed=6)
    config = DetectorConfig(2, None, rho_jump=1.5)
    result = run(series, 500, config)
    assert result.detected
    assert result.event.kind is ChangeKind.JUMP
    assert result.event.time == 521


def test_stopping_time_invariant_to_suffix():
    rng = np.random.default_rng(6)
    config = DetectorConfig(3, 5, 0.8, 0.08)
    for _ in range(20):
        base = rng.standard_normal(120)
        base[60:] += 1.0
        extended = np.concatenate([base, rng.uniform(-50, 50, size=40)])
        r1 = run(base, 20, config)
        r2 = run(extended, 20, config)
        if r1.detected:
            assert r2.detected and r2.event == r1.event
        else:
            assert (not r2.detected) or r2.event.time > 120


def test_run_reports_plain_floats():
    series = np.zeros(60)
    series[40:] = 5.0
    config = DetectorConfig(2, 2, 1.0, 0.5)
    result = run(series, 20, config)
    assert type(result.event.stat_value) is float
    assert all(type(v) is float for v in result.state.jump + result.state.kink)
    assert type(multi_bin_run(series, 20, [config]).event.stat_value) is float


def test_run_keeps_the_residuals_of_every_monitored_observation():
    series = np.zeros(50)
    series[30:] = 50.0
    config = DetectorConfig(2, 2, 1.0, 1.0)
    quiet = run(np.zeros(50), 10, config)
    assert quiet.state.t == 40 and quiet.residuals.size == 40
    alarmed = run(series, 10, config)  # stops at observation 31, keeps all 40
    assert alarmed.alarm_time == 31 and alarmed.state.t == 21
    assert alarmed.residuals.tolist() == [0.0] * 20 + [50.0] * 20


def test_trace_residuals_are_predict_at_index_residuals():
    series = np.random.default_rng(3).standard_normal(80) + 0.05 * np.arange(80)
    result = run(series, 30, DetectorConfig(3, 3, 4.0, 4.0))
    line = result.prechange
    want = [series[i - 1] - line.predict_at_index(i) for i in range(31, 81)]
    assert result.residuals.tolist() == want


def test_snapshot_roundtrip_bitexact_and_fixed_size():
    rng = np.random.default_rng(7)
    config = DetectorConfig(9, 4)  # infinite thresholds: never stops
    state = DetectorState(config, KnownPrechange(0.3, -0.01), absolute_offset=50)
    sizes = set()
    for t in range(1, 2001):
        state.step(float(rng.standard_normal()))
        if t in (10, 500, 2000):
            blob = save_state(state)
            sizes.add(len(blob))
            clone = load_state(blob)
            assert save_state(clone) == blob
    assert sizes == {SNAPSHOT_SIZE}


def test_snapshot_resume_continues_identically():
    # a known line, and a line fitted on the first 40 observations
    rng = np.random.default_rng(8)
    xs = rng.standard_normal(400)
    config = DetectorConfig(5, 7, 5.0, 5.0)
    cases = [(KnownPrechange(0.0, 0.0), 0), (fit_ols(xs[:40]), 40)]
    for prechange, offset in cases:
        a = DetectorState(config, prechange, absolute_offset=offset)
        for x in xs[offset:250]:
            a.step(float(x))
        blob = save_state(a)
        b = load_state(blob)
        assert b.prechange == a.prechange and save_state(b) == blob
        for x in xs[250:]:
            sa, ea = a.step(float(x))
            sb, eb = b.step(float(x))
            assert sa == sb and ea == eb


def _stopped_snapshot_fields():
    config = DetectorConfig(3, 4, rho_jump=1.0)
    state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=5)
    event = None
    while event is None:
        _, event = state.step(0.5 if state.t < 20 else 3.0)
    return list(struct.unpack(_SNAP_FMT, save_state(state)))


# (field index in the snapshot record, corrupt value as a function of
# the valid fields, the field the error must name)
_CORRUPTIONS = [
    (5, lambda f: 2, "time kind"),
    (6, lambda f: 10, "time unit"),
    (7, lambda f: 2, "prechange kind"),
    (17, lambda f: -1, "clock t"),
    (24, lambda f: (f[24] + 1) % 3, "jump bin position"),
    (31, lambda f: (f[31] + 1) % 4, "kink bin position"),
    (20, lambda f: f[20] + 1, "event time"),
    (19, lambda f: 9, "stopped flag"),
    (23, lambda f: 7, "event kind"),
]


@pytest.mark.parametrize("index, corrupt, field", _CORRUPTIONS,
                         ids=[c[2].replace(" ", "_") for c in _CORRUPTIONS])
def test_load_state_rejects_corrupt_fields(index, corrupt, field):
    fields = _stopped_snapshot_fields()
    assert load_state(struct.pack(_SNAP_FMT, *fields)).stopped is not None
    fields[index] = corrupt(fields)
    with pytest.raises(ValueError, match=field):
        load_state(struct.pack(_SNAP_FMT, *fields))


# Fields that save_state writes as constants: ({field index: value}
# applied to the stopped snapshot above, the field the error must name).
_CONSTANT_FIELDS = {
    "jump_w1": ({28: 7.0}, "jump w1 7.0"),
    "jump_w3_negative_zero": ({30: -0.0}, "jump w3 -0.0"),
    "disabled_kink_bins": ({2: -1}, "kink bin position r 2"),
    "disabled_jump_position": ({1: -1, 24: 1, **dict.fromkeys(range(25, 31), 0.0)},
                               "jump bin position r 1"),
    "n_jump_below_minus_one": ({1: -5}, "n_jump"),
    "known_line_k": ({8: 3}, "fit k 3"),
    "known_line_s_xx": ({15: 0.5}, "s_xx 0.5"),
    "running_event_fields": ({19: 0}, "event time 27"),
    "reserved_time_fields": ({5: 1, 6: 400}, "time kind 1"),
}


@pytest.mark.parametrize("changes, field", _CONSTANT_FIELDS.values(), ids=_CONSTANT_FIELDS)
def test_load_state_rejects_fields_saved_as_constants(changes, field):
    fields = _stopped_snapshot_fields()
    for index, value in changes.items():
        fields[index] = value
    with pytest.raises(ValueError, match=field):
        load_state(struct.pack(_SNAP_FMT, *fields))


def _snapshot_bases():
    """Field lists of saved states: fitted and known lines, one or both
    statistics, running and stopped."""
    xs = generate_series(SignalParams(0.5, 0.0, 2.0, 0.0, 0.0), 80,
                         NoiseSpec("gaussian", 1.0), seed=5)
    bases = []
    for config in (DetectorConfig(3, 4, 1.0, 2.0), DetectorConfig(None, 5, rho_kink=0.1),
                   DetectorConfig(2, None, rho_jump=1.5)):
        for line in (fit_ols(xs[:20]), KnownPrechange(0.5, -0.25)):
            state = DetectorState(config, line, absolute_offset=20)
            for x in xs[20:].tolist():
                bases.append(struct.unpack(_SNAP_FMT, save_state(state)))
                if state.step(x)[1] is not None:
                    break
            bases.append(struct.unpack(_SNAP_FMT, save_state(state)))
    return bases


_BASES = _snapshot_bases()[::7]
_BYTE_FIELDS = {5, 7, 19, 23}  # the "B" fields of the record
# Bin sizes, the reserved time fields, the line kind, fit k and the
# stopped flag decide which other fields are constants, so they are
# drawn more often.
_LAYOUT_FIELDS = [1, 2, 5, 6, 7, 8, 19]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_snapshot_load_state_accepts_saves_back_to_its_bytes(data):
    fields = list(data.draw(st.sampled_from(_BASES)))
    indices = st.integers(1, len(fields) - 1) | st.sampled_from(_LAYOUT_FIELDS)
    for index in data.draw(st.lists(indices, min_size=1, max_size=3)):
        if index in _BYTE_FIELDS:
            value = st.sampled_from([0, 1]) | st.integers(0, 255)
        elif isinstance(fields[index], int):
            value = st.sampled_from([0, 1, -1, 2]) | st.integers(-2**63, 2**63 - 1)
        else:
            value = st.sampled_from([0.0, -0.0, 1.0, 7.0]) | st.floats()
        fields[index] = data.draw(value)
    blob = struct.pack(_SNAP_FMT, *fields)
    try:
        state = load_state(blob)
    except ValueError as err:
        assert any(name in str(err) for _, name in _SNAP_FIELDS[1:]), err
        return
    assert save_state(state) == blob


def test_snapshot_preserves_fitted_prechange_and_event():
    series = np.concatenate([np.zeros(30), np.full(20, 4.0)])
    config = DetectorConfig(2, None, rho_jump=0.5)
    data = series + 0.001 * np.arange(50)
    result = run(data, 20, config)
    assert result.detected
    state = DetectorState(config, result.prechange, absolute_offset=20)
    for x in data[20:result.event.time].tolist():
        state.step(x)
    clone = load_state(save_state(state))
    assert clone.stopped == result.event
    assert clone.prechange.alpha_hat == result.prechange.alpha_hat
    assert clone.prechange.beta_hat == result.prechange.beta_hat
    with pytest.raises(DetectorStoppedError):
        clone.step(0.0)


def test_stat_snapshot_is_an_immutable_named_tuple():
    state = DetectorState(DetectorConfig(2, None), KnownPrechange(0.0, 0.0), 0)
    snap, _ = state.step(3.0)
    assert repr(snap) == (
        "StatSnapshot(t=1, j_stat=0.5, k_stat=None, window_jump=6, window_kink=None)")
    assert [type(v) for v in snap] == [int, float, type(None), int, type(None)]
    assert snap == StatSnapshot(1, 0.5, None, 6, None)
    assert snap != StatSnapshot(2, 0.5, None, 6, None)
    assert hash(snap) == hash(StatSnapshot(1, 0.5, None, 6, None))
    assert snap == (1, 0.5, None, 6, None)  # a tuple: iterable, equal to its fields
    for field in StatSnapshot._fields:
        with pytest.raises(AttributeError):
            setattr(snap, field, 0)
    assert get_type_hints(StatSnapshot) == {
        "t": int, "j_stat": Optional[float], "k_stat": Optional[float],
        "window_jump": Optional[int], "window_kink": Optional[int]}


# A snapshot written by a release that still had a time unit, with the
# line on raw indices: bins 5/7, thresholds 1.0/0.3, a line fitted on
# sin(1..40), offset 40, after the observations sin(i) + 0.1 cos(3i),
# i = 41..250.
_OLD_SNAPSHOT = bytes.fromhex(
    "4c57534e4150303105000000000000000700000000000000000000000000f03f333333333333d33f"
    "00000000000000000000280000000000000086153ea624e7a53f351861a3f9e52d3f000000000080"
    "3440f65bd3230f4ca83f0000000000d2b44050dc5c3cf173f33f4c3f43d8d8583440aba20769676a"
    "e73fd200000000000000280000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000005f6646c11b71e6bfbe14d7155aeae73f88c314734831f2bf00000000"
    "00000000000000000000000000000000000000000000000000000000b202c88ab276edbf275a91d4"
    "8447f3bf88c314734831f2bfc7b96079bf8e0140d4f9a443c1fff4bf88c314734831f2bf")
# The same detector written before StatSnapshot became a named tuple,
# with its line fitted on times as fractions of the horizon 400 (time
# kind 1, unit 400).
_FRACTION_TIME_SNAPSHOT = bytes.fromhex(
    "4c57534e4150303105000000000000000700000000000000000000000000f03f333333333333d33f"
    "01900100000000000000280000000000000081153ea624e7a53f18dba307ab5bb73f3d0ad7a3703d"
    "aa3ff65bd3230f4ca83f75931804560ea13fc1dc768053e6683f4c3f43d8d8583440aba20769676a"
    "e73fd2000000000000002800000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000006c6646c11b71e6bfac14d7155aeae73f8ac314734831f2bf0000000000"
    "000000000000000000000000000000000000000000000000000000c802c88ab276edbf325a91d484"
    "47f3bf8ac314734831f2bfb0b96079bf8e014004faa443c1fff4bf8ac314734831f2bf")


def test_old_snapshot_resumes_with_the_same_bits():
    """It resumes on sin(i) for i = 251..269 and sin(i) + 2 from 270, to
    the statistics (float.hex) it gave when it was written."""
    state = load_state(_OLD_SNAPSHOT)
    assert len(_OLD_SNAPSHOT) == SNAPSHOT_SIZE == 276
    assert save_state(state) == _OLD_SNAPSHOT
    steps = []
    for i in range(251, 300):
        snap, event = state.step(math.sin(i) + (0.0 if i < 270 else 2.0))
        steps.append((snap.t, _bits(snap.j_stat), _bits(snap.k_stat),
                      snap.window_jump, snap.window_kink))
        if event is not None:
            break
    assert len(steps) == 25
    assert steps[:2] + steps[-2:] == [
        (211, "-0x1.0226e99c0742cp-3", "-0x1.576283ed122f3p-6", 12, 16),
        (212, "-0x1.37e1ba0f25df2p-4", "-0x1.9c70c0cd1704ep-7", 13, 17),
        (234, "0x1.229bfee8d7ee9p-1", "0x1.22d43a9453af9p-4", 15, 18),
        (235, "0x1.02957f2484f74p+0", "0x1.14b3032994b3ap-4", 11, 19),
    ]
    assert event == DetectionEvent(275, ChangeKind.JUMP, 1.0100936378630339, 1.0)
    assert _bits(event.stat_value) == "0x1.02957f2484f74p+0"


def test_fraction_time_snapshot_is_refused():
    with pytest.raises(ValueError, match="time kind 1 is not written back"):
        load_state(_FRACTION_TIME_SNAPSHOT)


@st.composite
def _stepping_cases(draw):
    """(config, prechange, offset, observations) for the live detector:
    bin sizes 1..30 with a statistic possibly off, known or fitted
    lines, and NaN or +-inf observations."""
    n_jump = draw(st.one_of(st.none(), st.integers(1, 30)))
    n_kink = draw(st.integers(1, 30) if n_jump is None
                  else st.one_of(st.none(), st.integers(1, 30)))
    config = DetectorConfig(n_jump, n_kink, draw(st.sampled_from([0.8, 1.5, math.inf])),
                            draw(st.sampled_from([0.1, 0.4, math.inf])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prechange = (KnownPrechange(-1.5, 0.3) if draw(st.booleans())
                 else fit_ols(rng.standard_normal(20)))
    xs = rng.standard_normal(draw(st.integers(1, 400)))
    xs[draw(st.integers(0, xs.size)):] += draw(st.sampled_from([0.0, 1.0, 4.0]))
    for _ in range(draw(st.integers(0, 2))):
        xs[draw(st.integers(0, xs.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return config, prechange, draw(st.integers(0, 50)), xs.tolist()


def _stepped(state, xs):
    """Snapshot and event bits of each step up to the first alarm."""
    out = []
    for x in xs:
        snap, event = state.step(x)
        out.append((snap.t, _bits(snap.j_stat), _bits(snap.k_stat), snap.window_jump,
                    snap.window_kink, event, event and _bits(event.stat_value)))
        if event is not None:
            with pytest.raises(DetectorStoppedError):
                state.step(0.0)
            break
    return out


@settings(max_examples=60, deadline=None)
@given(_stepping_cases(), st.data())
def test_snapshot_split_resumes_like_an_unbroken_run(case, data):
    config, prechange, offset, xs = case
    unbroken = _stepped(DetectorState(config, prechange, offset), xs)
    split = data.draw(st.integers(0, len(unbroken)))
    state = DetectorState(config, prechange, offset)
    head = _stepped(state, xs[:split])
    if head and head[-1][5] is not None:  # stopped before the split
        return
    blob = save_state(state)
    assert len(blob) == SNAPSHOT_SIZE
    assert head + _stepped(load_state(blob), xs[split:]) == unbroken


@settings(max_examples=60, deadline=None)
@given(_stepping_cases(), st.data())
def test_alarm_at_step_t_depends_only_on_the_observations_up_to_t(case, data):
    config, prechange, offset, xs = case
    t = data.draw(st.integers(0, len(xs)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    other = xs[:t] + (rng.standard_normal(len(xs) - t) * 50.0).tolist()
    first = _stepped(DetectorState(config, prechange, offset), xs)
    second = _stepped(DetectorState(config, prechange, offset), other)
    assert first[:t] == second[:t]


def test_theorem_scale_config_plugin_arithmetic():
    cfg = theorem_scale_config(math.e, 1.0)
    assert cfg.n_jump == 500
    assert cfg.rho_jump == pytest.approx(0.8)
    assert cfg.rho_kink == pytest.approx(0.8 / math.e)


def test_theorem_scale_kink_bin_growth_shape():
    c = 0.5
    ratio = []
    for n in (10**3, 10**4, 10**5):
        cfg = theorem_scale_config(n, c)
        ratio.append(cfg.n_kink / (n ** (2 / 3) * math.log(n) ** (1 / 3)))
    assert max(ratio) / min(ratio) < 1.01  # constant up to ceil rounding


def test_theorem_scale_config_validation():
    with pytest.raises(ValueError):
        theorem_scale_config(100, 0.0)
    with pytest.raises(ValueError):
        theorem_scale_config(100, 1.5)
    with pytest.raises(ValueError):
        theorem_scale_config(1.0, 0.5)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(None, None)
    with pytest.raises(ValueError):
        DetectorConfig(0, 5)
    with pytest.raises(ValueError):
        DetectorConfig(5, 5, rho_jump=0.0)
    with pytest.raises(ValueError, match="n_jump must be an integer >= 1, got 2.5"):
        DetectorConfig(n_jump=2.5, rho_jump=1.0)
    with pytest.raises(ValueError, match="n_kink"):
        DetectorConfig(5, 5.0)
    DetectorConfig(np.int64(5), None)  # a NumPy integer is an integer
    DetectorConfig(5, None)  # jump only, never alarms (inf threshold)


def test_multi_bin_single_scale_reduces_to_run():
    rng = np.random.default_rng(9)
    series = rng.standard_normal(200)
    series[120:] += 1.5
    config = DetectorConfig(4, 4, 0.7, 0.06)
    single = run(series, 30, config)
    multi = multi_bin_run(series, 30, [config])
    assert multi.event == single.event
    assert multi.scale_index == (0 if single.detected else None)


def test_multi_bin_disabled_scale_changes_nothing():
    rng = np.random.default_rng(10)
    series = rng.standard_normal(200)
    series[120:] += 1.5
    small = DetectorConfig(3, 3, 0.8, 0.08)
    muted = DetectorConfig(40, 40, math.inf, math.inf)
    alone = multi_bin_run(series, 30, [small])
    both = multi_bin_run(series, 30, [small, muted])
    assert alone.event == both.event
    assert both.scale_index == 0


def test_multi_bin_rejects_empty_configs():
    with pytest.raises(ValueError):
        multi_bin_run(np.zeros(10), 2, [])


def test_multi_bin_union_false_alarm_rate_dominates():
    # on pure-noise streams, alarming at either scale is at least as
    # frequent as alarming at each scale alone (shared seeds)
    configs = [DetectorConfig(2, 2, 1.0, 0.25), DetectorConfig(8, 8, 0.55, 0.05)]
    k = 50
    hits_union = hits_a = hits_b = 0
    for seed in range(60):
        series = np.random.default_rng(seed).standard_normal(500)
        union = multi_bin_run(series, k, configs)
        a = multi_bin_run(series, k, configs[:1])
        b = multi_bin_run(series, k, configs[1:])
        hits_union += union.detected
        hits_a += a.detected
        hits_b += b.detected
    assert hits_union >= max(hits_a, hits_b)


def test_multi_bin_run_is_as_silent_as_run_on_an_inf_in_the_history():
    # the fitted line is NaN; neither path warns, and neither alarms
    series = np.random.default_rng(12).standard_normal(300)
    series[10] = math.inf
    configs = [DetectorConfig(3, 3, 0.8, 0.08), DetectorConfig(8, 8, 0.5, 0.05)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not run(series, 40, configs[0]).detected
        assert not multi_bin_run(series, 40, configs).detected


def test_run_validates_lengths():
    with pytest.raises(ValueError):
        run(np.zeros(10), 10, DetectorConfig(2, None, rho_jump=1.0))
    with pytest.raises(ValueError):
        run(np.zeros(10), 1, DetectorConfig(2, None, rho_jump=1.0))
    # k = 0 is fine with a known pre-change line
    result = run(
        np.zeros(10), 0, DetectorConfig(2, None, rho_jump=1.0),
        prechange=KnownPrechange(0.0, 0.0),
    )
    assert not result.detected


def _bits(value):
    """A float's bits, any NaN counting as one value; None stays None."""
    if value is None:
        return None
    assert type(value) is float
    return "nan" if math.isnan(value) else value.hex()


def _assert_run_equals_steps(series, k, config, **kwargs):
    """``run``'s event equals stepping's, and one ``batch_stats`` pass
    over its residuals up to ``state.t`` (what a trace file holds)
    equals every step's snapshot, bit for bit, windows included."""
    result = run(series, k, config, **kwargs)
    event, trace = step_run(series, k, config, **kwargs)
    assert result.event == event
    if event is not None:
        assert _bits(result.event.stat_value) == _bits(event.stat_value)
        assert type(result.event.time) is int
    stop = result.state.t
    assert stop == len(trace)
    with np.errstate(invalid="ignore", over="ignore"):
        stats = batch_stats(result.residuals[None, :stop], config.n_jump, config.n_kink)
    j, kk = ([None] * stop if s is None else s[0].tolist() for s in stats)
    for t, want in enumerate(trace, start=1):
        windows = tuple(None if m is None else 2 * m + t % m + 1
                        for m in (config.n_jump, config.n_kink))
        assert (t, *windows) == (want.t, want.window_jump, want.window_kink)
        assert _bits(j[t - 1]) == _bits(want.j_stat)
        assert _bits(kk[t - 1]) == _bits(want.k_stat)
    return result


@st.composite
def _monitoring_cases(draw):
    """(series, k, configs, run keyword arguments) over bin sizes 1..40
    with a statistic possibly off or never alarming, known or fitted
    lines, standardization, and NaN or +-inf observations."""
    bin_size = st.integers(1, 40)
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        n_jump = draw(st.one_of(st.none(), bin_size))
        n_kink = draw(bin_size if n_jump is None else st.one_of(st.none(), bin_size))
        configs.append(DetectorConfig(
            n_jump, n_kink,
            draw(st.sampled_from([0.8, 1.5, 3.0, math.inf])),
            draw(st.sampled_from([0.1, 0.4, 1.0, math.inf])),
        ))
    known = draw(st.booleans())
    k = draw(st.integers(0 if known else 2, 40))
    kwargs = {}
    if known:
        kwargs["prechange"] = KnownPrechange(
            draw(st.sampled_from([0.0, -1.5])), draw(st.sampled_from([0.0, 0.3, 1e16])))
    if k >= 3:
        kwargs["standardize_first"] = draw(st.booleans())
    steps = draw(st.integers(1, 1800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = rng.standard_normal(k + steps)
    change = k + draw(st.integers(0, steps))
    series[change:] += draw(st.sampled_from([0.0, 1.0, 4.0]))
    for _ in range(draw(st.integers(0, 3))):
        series[k + draw(st.integers(0, steps - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return series, k, configs, kwargs


@settings(max_examples=80, deadline=None)
@given(_monitoring_cases())
def test_run_and_multi_bin_run_equal_stepping(case):
    series, k, configs, kwargs = case
    _assert_run_equals_steps(series, k, configs[0], **kwargs)
    if k >= 2:
        result = multi_bin_run(series, k, configs)
        assert (result.event, result.scale_index) == step_multi_bin_run(series, k, configs)


@pytest.mark.parametrize("alarm_step", [512, 513, 1536, 1537, None])
@pytest.mark.parametrize("n_jump, n_kink, rho_jump, rho_kink", [
    (1, 7, 1.0, math.inf),  # J alarms
    (None, 1, math.inf, 1.0),  # K alarms
    (3, 3, math.inf, math.inf),  # not even an infinite statistic alarms
])
def test_run_equals_stepping_at_segment_edges(alarm_step, n_jump, n_kink, rho_jump, rho_kink):
    """Alarms on both sides of the 512- and 1024-step segment ends."""
    series = np.zeros(2000)
    if alarm_step is not None:
        series[alarm_step - 1] = math.inf if rho_jump == rho_kink else 100.0
    config = DetectorConfig(n_jump, n_kink, rho_jump, rho_kink)
    line = KnownPrechange(0.0, 0.0)
    result = _assert_run_equals_steps(series, 0, config, prechange=line)
    never = alarm_step is None or rho_jump == rho_kink == math.inf
    assert result.alarm_time == (2000 if never else alarm_step)
    # two zeros of history fit the zero line exactly
    padded = np.concatenate([np.zeros(2), series])
    configs = [DetectorConfig(5, 5, 50.0, 50.0), config]
    multi = multi_bin_run(padded, 2, configs)
    assert (multi.event, multi.scale_index) == step_multi_bin_run(padded, 2, configs)


@st.composite
def _block_cases(draw):
    """(config, prechange, offset, observations) for ``extend``: bin
    sizes 1..40, equal or with a statistic off, known or fitted lines,
    streams across the 512- and 1536-step segment edges, and NaN, +-inf
    or -0.0 observations (a stretch of -0.0 on the zero line)."""
    bin_size = st.integers(1, 40)
    n_jump = draw(st.one_of(st.none(), bin_size))
    n_kink = draw(bin_size if n_jump is None
                  else st.one_of(st.none(), st.just(n_jump), bin_size))
    config = DetectorConfig(n_jump, n_kink, draw(st.sampled_from([0.8, 1.5, 3.0, math.inf])),
                            draw(st.sampled_from([0.1, 0.4, 1.0, math.inf])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prechange = draw(st.sampled_from([
        KnownPrechange(0.0, 0.0), KnownPrechange(-1.5, 0.3), fit_ols(rng.standard_normal(20))]))
    xs = rng.standard_normal(draw(st.integers(0, 1800)))
    xs[draw(st.integers(0, xs.size)):] += draw(st.sampled_from([0.0, 1.0, 4.0]))
    lo = draw(st.integers(0, xs.size))
    xs[lo:draw(st.integers(lo, xs.size))] = -0.0
    for _ in range(draw(st.integers(0, 3)) if xs.size else 0):
        xs[draw(st.integers(0, xs.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
    return config, prechange, draw(st.integers(0, 50)), xs.tolist()


@settings(max_examples=80, deadline=None)
@given(_block_cases(), st.data())
def test_any_split_into_blocks_and_steps_equals_stepping(case, data):
    """``extend`` blocks and single ``step``s in any order give
    stepping's events, snapshots and ``save_state`` bytes."""
    config, prechange, offset, xs = case
    reference = DetectorState(config, prechange, offset)
    steps, blobs = [], [save_state(reference)]
    for x in xs:
        steps += _stepped(reference, [x])
        blobs.append(save_state(reference))
        if reference.stopped is not None:
            break
    state = DetectorState(config, prechange, offset)
    for _ in range(data.draw(st.integers(0, 6))):
        t = state.t
        if state.stopped is not None or t == len(xs):
            break
        if data.draw(st.booleans()):
            event = state.extend(xs[t:data.draw(st.integers(t, len(xs)))])
            assert (event, event and _bits(event.stat_value)) == (
                (None, None) if event is None else steps[state.t - 1][5:])
            assert all(step[5] is None for step in steps[t:state.t - (event is not None)])
        else:
            assert _stepped(state, xs[t:t + 1]) == steps[t:t + 1]
        assert save_state(state) == blobs[state.t]
    if state.stopped is None:
        state.extend(xs[state.t:])
    assert save_state(state) == blobs[-1]
    if state.stopped is not None:
        with pytest.raises(DetectorStoppedError):
            state.extend(xs)


@pytest.mark.parametrize("alarm_step", [512, 513, 1536, 1537])
@pytest.mark.parametrize("head", [0, 7])
@pytest.mark.parametrize("config", [DetectorConfig(3, 5, 1.0, math.inf),
                                    DetectorConfig(None, 4, math.inf, 1.0)])
def test_extend_equals_stepping_at_segment_edges(alarm_step, head, config):
    """An alarm on either side of the edges of the block's segments."""
    series = np.zeros(head + 2000)
    series[head + alarm_step - 1] = 100.0
    line = KnownPrechange(0.0, 0.0)
    state, stepped = DetectorState(config, line, 0), DetectorState(config, line, 0)
    for x in series[:head].tolist():
        state.step(x)
    event = state.extend(series[head:])
    assert event is not None and event.time == state.t == head + alarm_step
    assert event.kind is (ChangeKind.JUMP if config.n_jump else ChangeKind.KINK)
    for x in series.tolist():
        if stepped.step(x)[1] is not None:
            break
    assert event == stepped.stopped and save_state(state) == save_state(stepped)


@pytest.mark.parametrize("m", [1001, 1002, 1512, 1513, 2000, 2499])
def test_run_state_continues_with_extend_like_the_whole_run(m):
    rng = np.random.default_rng(12)
    series = rng.standard_normal(4000)
    series[2500:] += 3.0
    config = DetectorConfig(10, 30, 1.6, 0.1)
    whole = run(series, 1000, config)
    head = run(series[:m], 1000, config)
    assert whole.event is not None and not head.detected and head.state.t == m - 1000
    assert head.state.extend(series[m:]) == whole.event
    assert save_state(head.state) == save_state(whole.state)


def test_run_result_equality_and_repr_leave_out_the_state():
    series = np.random.default_rng(13).standard_normal(300)
    a, b = (run(series, 20, DetectorConfig(4, 6, 0.9, 0.1)) for _ in range(2))
    assert a.state is not b.state and a.residuals is not b.residuals and a == b
    assert "state" not in repr(a) and "residuals" not in repr(a)


@pytest.mark.parametrize("rho_jump, rho_kink, kind", [
    (math.inf, math.inf, None),
    (math.inf, 1.0, ChangeKind.KINK),  # the finite threshold still fires
    (1.0, math.inf, ChangeKind.JUMP),
])
def test_infinite_threshold_never_alarms_on_an_infinite_statistic(rho_jump, rho_kink, kind):
    series = np.zeros(50)
    series[20] = math.inf
    config = DetectorConfig(3, 3, rho_jump, rho_kink)
    line = KnownPrechange(0.0, 0.0)
    result = run(series, 0, config, prechange=line)
    state = DetectorState(config, line, absolute_offset=0)
    events = [event for _, event in map(state.step, series[:21])]
    assert events[:20] == [None] * 20
    for event in (result.event, events[20]):
        assert (event is None) if kind is None else (event.kind, event.time) == (kind, 21)
