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
    total = slot_sums.sum(axis=0)
    own_slot_sum = slot_sums[tx_slots]
    same = own_slot_sum - power_rows
    cross = (total - own_slot_sum) * ibe_lin
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr_lin = power_rows / (noise_lin + same + cross)
    sinr_lin = np.where(receiver_mask[None, :], sinr_lin, 0.0)
    decoded = sinr_lin > gamma_min_lin
    return sinr_lin, decoded


def subframe_srssi(slot_sums: np.ndarray, noise_lin: float,
                   ibe_lin: float) -> np.ndarray:
    """Total power per frequency slot at every vehicle: (n_freq_slots, n),
    from the `slot_power_sums` of the subframe's transmitters."""
    total = slot_sums.sum(axis=0)
    return noise_lin + (slot_sums + (total - slot_sums) * ibe_lin)
