"""One stream, two bin sizes: catch abrupt and gradual changes alike.

Small bins react fastest to large abrupt changes, large bins to small
gradual ones.  Running a pair {2, 40} with jointly calibrated
thresholds covers both regimes at twice the (tiny) constant cost.
"""

from linewatch import (
    CalibrationSpec,
    NoiseSpec,
    SignalParams,
    calibrate_multi_bin,
    generate_series,
    multi_bin_run,
)

k = 500
scales = [2, 40]
spec = CalibrationSpec(
    replications=2000, arl=True, horizon=500, k=k,
    n_jump=scales[0], n_kink=scales[0],  # skeleton; scales drive the bins
    noise=NoiseSpec("gaussian", 1.0), master_seed=606,
)
cal = calibrate_multi_bin(spec, scales)  # one ARL-500 budget for both scales
configs = cal.to_configs()
for n_bin, cfg in zip(cal.scales, configs):
    print(f"scale N={n_bin:2d}: rho_J = {cfg.rho_jump:.3f}, "
          f"rho_K = {cfg.rho_kink:.5f}")

n = k + 700
cases = {
    "abrupt jump of 3": SignalParams((k + 100) / n, 0.0, 3.0, 0.0, 0.0),
    "slow kink of 0.02/obs": SignalParams((k + 100) / n, 0.0, 0.0, 0.0, 0.02 * n),
}
for label, theta in cases.items():
    series = generate_series(theta, n, NoiseSpec("gaussian", 1.0), seed=77)
    outcome = multi_bin_run(series, k, configs)
    assert outcome.detected
    print(f"{label}: alarm at {outcome.event.time} "
          f"(change at {k + 100}, fired by scale "
          f"N={cal.scales[outcome.scale_index]})")
