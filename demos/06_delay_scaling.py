"""Delay scaling: jumps cost log(n), kinks cost about n^(2/3).

Bin sizes grow with the horizon following the rate-optimal shapes;
thresholds are recalibrated per horizon to a fixed false-alarm level.
The log-log slope of the kink delay against n sits near 2/3, while the
jump delay divided by log(n) stays flat.
"""

import math

from linewatch import rate_check

grid = [2**p for p in range(10, 15)]  # the full study runs to 2^16

kink = rate_check(grid, "kink", replications=60, master_seed=5150,
                  calib_replications=150)
print("kink arm (bin ~ n^(2/3) log(n)^(1/3)):")
for p in kink.points:
    print(f"  n={p.n:6d}  bin={p.bin_size:5d}  mean delay={p.mean_delay:8.1f}")
print(f"  log-log slope: {kink.slope:.3f} (theory: 2/3 = {2/3:.3f})")

jump = rate_check(grid, "jump", replications=60, master_seed=5150,
                  calib_replications=150)
print("\njump arm (bin ~ log(n)):")
for p, ratio in zip(jump.points, jump.delay_over_log):
    print(f"  n={p.n:6d}  bin={p.bin_size:5d}  mean delay={p.mean_delay:8.1f}"
          f"  delay/log(n)={ratio:.2f}")
ratios = [r for r in jump.delay_over_log if r is not None]
print(f"  delay/log(n) spread: {max(ratios)/min(ratios):.2f}x (flat = 1x)")
