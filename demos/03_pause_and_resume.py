"""Pause monitoring, persist the state, resume elsewhere.

Detector state is a fixed-size record (a few hundred bytes) no matter
how long the stream has run, so it can be checkpointed per message in
a stream processor.  Snapshots restore bit-exactly.
"""

import numpy as np

from linewatch import (
    DetectorConfig,
    DetectorState,
    KnownPrechange,
    load_state,
    save_state,
)

rng = np.random.default_rng(1)
config = DetectorConfig(n_jump=8, n_kink=8, rho_jump=2.0, rho_kink=0.5)
state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=0)

state.extend(rng.standard_normal(100_000))  # a recorded warm-up, on the batch kernel

blob = save_state(state)
print(f"after {state.t} observations the snapshot is {len(blob)} bytes")

resumed = load_state(blob)
print(f"resumed clock: t = {resumed.t}")

tail = rng.standard_normal(1000)
tail[200:] += 3.0  # a jump, seen by both copies
for x in tail:
    snap_a, event_a = state.step(float(x))
    snap_b, event_b = resumed.step(float(x))
    assert snap_a == snap_b
    if event_a is not None:
        assert event_a == event_b
        print(f"both copies alarm at index {event_a.time} ({event_a.kind})")
        break
