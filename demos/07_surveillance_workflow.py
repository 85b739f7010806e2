"""A surveillance-style workflow on weekly count data.

Mirrors how one monitors public-health style series for an onset of
growth: treat everything up to a cutoff as the historical period,
standardize the whole series by the historical mean and standard
deviation, and watch for a change in slope only (the onset is gradual,
so the jump statistic is switched off).  The data here are synthetic
stand-ins for weekly excess-count estimates.
"""

import numpy as np

from linewatch import DetectorConfig, run

rng = np.random.default_rng(2020)

weeks = 220
history_weeks = 160          # "through the end of the quiet period"
onset = 175                  # slope starts climbing here

# weekly counts: flat-ish seasonal baseline, then a growing excess
baseline = 120.0 + 4.0 * np.sin(np.arange(weeks) / 52.0 * 2 * np.pi)
excess = np.where(np.arange(weeks) >= onset,
                  18.0 * (np.arange(weeks) - onset), 0.0)
counts = baseline + excess + rng.normal(0.0, 9.0, size=weeks)

config = DetectorConfig(n_jump=None, n_kink=2, rho_kink=0.738)
result = run(counts, k=history_weeks, config=config, standardize_first=True)

mean, sd = result.scaling
print(f"historical period: weeks 1..{history_weeks} "
      f"(mean {mean:.1f}, sd {sd:.1f}); whole series standardized by these")
print(f"monitoring weeks {history_weeks + 1}..{weeks}, kink-only, "
      f"rho_K = {config.rho_kink}")
if result.detected:
    print(f"slope change flagged in week {result.event.time} "
          f"(true onset week {onset + 1}), |K| = {result.event.stat_value:.3f}")
else:
    print("no change flagged")
