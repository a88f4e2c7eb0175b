"""Pairwise geometry of row-indexed vehicle positions."""
from __future__ import annotations

import numpy as np


def pair_legs(positions: np.ndarray, wrap_length_m: float | None = None):
    """Pairwise |dx|, |dy| matrices, minimum-image on x for ring roads.

    Non-finite coordinates (absent vehicles) yield infinite legs.
    """
    x = positions[:, 0]
    y = positions[:, 1]
    with np.errstate(invalid="ignore"):
        adx = np.abs(x[:, None] - x[None, :])
        if wrap_length_m is not None:
            adx = np.minimum(adx, wrap_length_m - adx)
        ady = np.abs(y[:, None] - y[None, :])
    adx = np.where(np.isnan(adx), np.inf, adx)
    ady = np.where(np.isnan(ady), np.inf, ady)
    return adx, ady
