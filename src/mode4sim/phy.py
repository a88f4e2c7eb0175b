"""Per-subframe reception and sensing.

A message is decoded when its SINR strictly exceeds the grid's minimum
(ties fail). Transmissions in the same subframe interfere at full power when
they share the frequency slot and at the in-band-emission attenuation
otherwise. A vehicle transmitting in a subframe can neither receive nor
sense during it (half duplex). Every function works on whole subframes:
rows are transmitters, columns are vehicles. The scalar oracles `sinr`,
`receive_subframe` and `sense_subframe` in `tests/oracles.py` compute the
same quantities one link at a time.
"""
from __future__ import annotations

import numpy as np


def ibe_factor(attenuation_db: float) -> float:
    """Linear weight of an interferer's power leaking across frequency slots."""
    return float(10.0 ** (-attenuation_db / 10.0))


def slot_power_sums(power_rows: np.ndarray, tx_slots: np.ndarray,
                    n_freq_slots: int) -> np.ndarray:
    """Aggregate transmitted power per frequency slot: (n_freq_slots, n)."""
    sums = np.zeros((n_freq_slots, power_rows.shape[1]))
    for f in range(n_freq_slots):
        mask = tx_slots == f
        if mask.any():
            sums[f] = power_rows[mask].sum(axis=0)
    return sums


def subframe_reception(power_rows: np.ndarray, tx_slots: np.ndarray,
                       noise_lin: float, gamma_min_lin: float, ibe_lin: float,
                       receiver_mask: np.ndarray, slot_sums: np.ndarray):
    """Vectorized reception for one subframe.

    power_rows: (n_tx, n) linear received power of each transmitter at every
    vehicle. receiver_mask marks vehicles able to receive (present and not
    transmitting); slot_sums is `slot_power_sums` of the rows. Returns
    (sinr_lin, decoded), both (n_tx, n); entries for masked receivers hold
    sinr 0 / decoded False.
    """
    # Two (n_tx, n) buffers, reused in place: a fresh temporary per step
    # would be faulted in again on every subframe. The per-element order is
    # that of `power / (noise + same + cross)`.
    total = slot_sums.sum(axis=0)
    own = slot_sums[tx_slots]
    sinr_lin = np.subtract(own, power_rows)            # same slot
    cross = np.subtract(total, own, out=own)
    cross *= ibe_lin                                   # other slots
    np.add(noise_lin, sinr_lin, out=sinr_lin)
    sinr_lin += cross
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(power_rows, sinr_lin, out=sinr_lin)
    np.copyto(sinr_lin, 0.0, where=~receiver_mask)
    decoded = sinr_lin > gamma_min_lin
    return sinr_lin, decoded


def subframe_srssi(slot_sums: np.ndarray, noise_lin: float,
                   ibe_lin: float) -> np.ndarray:
    """Total power per frequency slot at every vehicle: (n_freq_slots, n),
    from the `slot_power_sums` of the subframe's transmitters."""
    total = slot_sums.sum(axis=0)
    return noise_lin + (slot_sums + (total - slot_sums) * ibe_lin)
