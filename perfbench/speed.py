"""A fixed reference computation, timed between rounds to track the speed of
the machine the run is on.

The host this benchmark was sized on is shared: the same operation's median
time drifted by 1.5x within a minute, in CPU time as much as in wall time.
The reference work slows down with it. Over the 2-second blocks of one
minute of unitroot_mc operations, the coefficient of variation was 0.19 for
the operation's median time and 0.025 for its ratio to the reference time.
Operation times are therefore reported scaled to a fixed reference speed:
raw time times REFERENCE_MS over the measured reference time.

The reference work is the benchmark's own code on fixed data: small least
squares fits through numpy and LAPACK, and Python-level dict and JSON work,
the same mix ardlkit's operations are made of. Nothing in it depends on
ardlkit, so a change to ardlkit does not change it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import oracles

# The reference work's median time on the sizing machine when it was quiet
# (2 CPUs, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).
REFERENCE_MS = 1.2

_RNG = np.random.default_rng(20210)
_WALK = np.cumsum(_RNG.standard_normal(200))
_X = np.cumsum(_RNG.standard_normal(300))
_Y = 2.0 * _X + _RNG.standard_normal(300)
_DOC = {f"row{i}": {"coefficient": float(v), "stars": "*" * (i % 4),
                    "decision_at": {"1%": "reject", "5%": "reject"}}
        for i, v in enumerate(_RNG.standard_normal(40))}


def reference_work() -> None:
    oracles.adf_aic_grid(_WALK, 14)
    for _ in range(4):
        oracles.ardl_fit(_Y, _X, 1, 1)
    json.loads(json.dumps(_DOC, sort_keys=True))


def reference_ms(reps: int) -> float:
    """Median time of ``reps`` runs of the reference work, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
