"""Federation-file writer for the `baseline_load` workload.

Writes fedsim's newline-delimited JSON federation format (a header line,
then one example per line, each user's records contiguous) from a seed,
with numpy alone. It deliberately does not call fedsim's
`synthesize_federation` or `save_federation`: the benchmark's input must not
depend on the code it measures, so a change to fedsim's generator or writer
cannot change what `load_federation` is asked to parse.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FEATURE_DIM = 10
CLASS_COUNT = 2
POSITIVE_LABEL = 1
USER_COUNT = 600
# per-user example counts are log-normal with this mean and std (at least 1)
SIZE_MEAN = 33.0
SIZE_STD = 20.0
POSITIVE_RATE = 0.18
# positives are shifted by this much along the first feature
CLASS_SEPARATION = 1.5
# norm of every user's private feature offset
SHIFT_SCALE = 1.0


def write_federation(path: Path, seed: int) -> None:
    """Write one federation file of USER_COUNT users from `seed`.

    Positives last 1-3 s and negatives 2-4 s, so false alarms per hour are
    defined.
    """
    rng = np.random.default_rng(seed)
    sigma2 = np.log1p((SIZE_STD / SIZE_MEAN) ** 2)
    mu = np.log(SIZE_MEAN) - 0.5 * sigma2
    sizes = np.maximum(np.rint(rng.lognormal(mu, np.sqrt(sigma2), size=USER_COUNT)), 1).astype(int)
    positive_mean = np.zeros(FEATURE_DIM)
    positive_mean[0] = CLASS_SEPARATION

    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"feature_dim": FEATURE_DIM, "class_count": CLASS_COUNT}) + "\n")
        for user_id, n in enumerate(sizes):
            direction = rng.standard_normal(FEATURE_DIM)
            offset = SHIFT_SCALE * direction / np.linalg.norm(direction)
            positive = rng.random(n) < POSITIVE_RATE
            features = positive[:, None] * positive_mean + offset + rng.standard_normal((n, FEATURE_DIM))
            durations = np.where(positive, rng.uniform(1.0, 3.0, n), rng.uniform(2.0, 4.0, n))
            for row, is_pos, duration in zip(features.tolist(), positive.tolist(), durations.tolist()):
                record = {
                    "user_id": user_id,
                    "features": row,
                    "label": POSITIVE_LABEL if is_pos else 0,
                    "duration_s": duration,
                }
                fh.write(json.dumps(record) + "\n")
