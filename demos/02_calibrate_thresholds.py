"""Tune thresholds by simulation: false-alarm targets and ARL targets.

Null streams are replayed through the detector; thresholds are read
off as quantiles of the per-stream maxima.  Joint calibration splits
one false-alarm budget across the jump and kink statistics.
"""

from dataclasses import replace

from linewatch import (
    CalibrationSpec,
    NoiseSpec,
    calibrate,
    estimate_arl,
    simulate_null_maxima,
)

spec = CalibrationSpec(
    replications=4000,      # published tables use 10000; this is a desk run
    eta=0.5,                # accept a 50% chance of alarming before step 1000
    horizon=1000,
    k=1000,
    n_jump=10,
    n_kink=10,
    noise=NoiseSpec("gaussian", 1.0),
    master_seed=20260810,
)

maxima = simulate_null_maxima(spec)  # reused by all three calibrations below

# the statistics with a bin size are the ones calibrated
jump_only = calibrate(replace(spec, n_kink=None), maxima=maxima)
kink_only = calibrate(replace(spec, n_jump=None), maxima=maxima)
both = calibrate(spec, maxima=maxima)

print("false-alarm target 0.5, N = 10, k = 1000:")
print(f"  jump alone: rho_J = {jump_only.rho_jump:.3f} "
      f"(achieved FA {jump_only.empirical_fa:.3f})")
print(f"  kink alone: rho_K = {kink_only.rho_kink:.4f} "
      f"(achieved FA {kink_only.empirical_fa:.3f})")
print(f"  both:       rho_J = {both.rho_jump:.3f}, rho_K = {both.rho_kink:.4f} "
      f"(union FA {both.empirical_fa:.3f}, per-detector "
      f"{both.fa_jump:.3f}/{both.fa_kink:.3f})")

# Average-run-length target: same machinery at the 1 - 1/e level,
# because the null run length is roughly exponential.
arl_spec = CalibrationSpec(
    replications=4000, arl=True, horizon=1000, k=1000,
    n_jump=10, n_kink=None, noise=NoiseSpec("gaussian", 1.0), master_seed=11,
)
arl_cal = calibrate(arl_spec)
report = estimate_arl(arl_cal.to_config(), NoiseSpec("gaussian", 1.0),
                      k=1000, cap=10000, replications=200, master_seed=99)
print(f"\nARL target 1000: rho_J = {arl_cal.rho_jump:.3f}; "
      f"achieved ARL = {report.arl:.0f} +- {report.arl_halfwidth:.0f} "
      f"({report.arl_censored} runs censored at {report.arl_cap})")
