"""Fixed reference work that measures how fast the machine runs right now.

Runs as its own process, like the workload commands, and does the same kinds
of work they do: start an interpreter, import numpy and scipy, run small
linear algebra on 64 x 8 batches, and serialize JSON lines. The work never
changes with the code under test, so its wall time tracks only the speed of
the (shared) machine; run.py uses it to put workload times on one scale.
"""

import json

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit

rng = np.random.default_rng(20180814)
factor = np.triu(rng.standard_normal((8, 8))) + 8.0 * np.eye(8)
batch = rng.standard_normal((64, 8))
lines = []
for i in range(2500):
    z = solve_triangular(factor, batch.T, trans="T", lower=False)
    score = expit(np.einsum("ij,ij->j", z, z) - 8.0)
    lines.append(json.dumps({"i": i, "wins": int((score >= 0.5).sum()),
                             "seed": i * 2654435761 % 2**63},
                            sort_keys=True, separators=(",", ":")))
print(len(lines))
