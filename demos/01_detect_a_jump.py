"""Watch a stream jump: fit the history, monitor, stop at the alarm.

A two-sigma level shift lands at observation 516 of 700; the first 500
observations are history.  With bins of 2 and a jump threshold of 1.5
the alarm comes five observations after the change.
"""

import numpy as np

from linewatch import (
    DetectorConfig,
    DetectorState,
    NoiseSpec,
    SignalParams,
    generate_series,
    run,
)

theta = SignalParams(tau=516 / 700, alpha_minus=0.0, alpha_plus=2.0,
                     beta_minus=0.0, beta_plus=0.0)
series = generate_series(theta, n=700, noise=NoiseSpec("gaussian", 1.0), seed=6)

config = DetectorConfig(n_jump=2, n_kink=None, rho_jump=1.5)
result = run(series, k=500, config=config)

print(f"history: 500 observations, fitted line "
      f"alpha={result.prechange.alpha_hat:+.4f} beta={result.prechange.beta_hat:+.6f}")
print(f"true change: observation 516 (jump of 2.0)")
assert result.detected
print(f"alarm: observation {result.event.time}, kind={result.event.kind}, "
      f"|J|={result.event.stat_value:.3f} >= {result.event.threshold}")

print("\nstatistic in the last few steps before the alarm:")
# replay the monitored observations up to the alarm one step at a time
state = DetectorState(config, result.prechange, absolute_offset=500)
trace = [state.step(x)[0] for x in series[500:result.event.time]]
for snap in trace[-6:]:
    marker = " <-- alarm" if snap.t == result.event.time - 500 else ""
    print(f"  obs {500 + snap.t:3d}  J = {snap.j_stat:+.3f}  "
          f"window = {snap.window_jump}{marker}")
