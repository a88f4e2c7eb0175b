"""Beacon-resource (BR) grid geometry.

A BR is a group of subchannels inside one subframe that can carry one
beacon. The grid spans one beacon period: R = brs_per_tti * beacon_period_ms
resources, indexed time-major (flat r = subframe * brs_per_tti + freq_slot).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Non-adjacent control-channel layout in 10 MHz: four subchannels of
# 10 resource-block pairs, the remaining pairs reserved for control.
SUBCHANNELS_TOTAL = 4
RB_PAIRS_PER_SUBCHANNEL = 10
RB_PAIR_BANDWIDTH_HZ = 180e3

# MCS choice fixes how many beacons fit per subframe.
MCS_BRS_PER_TTI = {4: 1, 7: 2, 14: 4}
# Decoding thresholds are only standardized here for MCS 4 and 7; an MCS 14
# run must supply sinr_min_db explicitly.
MCS_MIN_SINR_DB = {4: 2.76, 7: 7.30}


class GridConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the BR grid shared by all vehicles."""

    beacon_period_ms: int = 100
    brs_per_tti: int = 2
    subchannels_per_br: int = 2
    mcs_index: int = 7
    sinr_min_db: float = 7.30

    def __post_init__(self):
        if self.beacon_period_ms < 1:
            raise GridConfigError("beacon_period_ms must be >= 1")
        if self.brs_per_tti < 1 or self.subchannels_per_br < 1:
            raise GridConfigError("brs_per_tti and subchannels_per_br must be positive")
        if self.brs_per_tti * self.subchannels_per_br > SUBCHANNELS_TOTAL:
            raise GridConfigError(
                f"brs_per_tti * subchannels_per_br exceeds {SUBCHANNELS_TOTAL} subchannels"
            )

    @classmethod
    def for_mcs(
        cls,
        mcs: int,
        beacon_period_ms: int = 100,
        sinr_min_db: float | None = None,
    ) -> "GridConfig":
        if mcs not in MCS_BRS_PER_TTI:
            raise GridConfigError(f"unsupported mcs {mcs} (expected one of 4, 7, 14)")
        per_tti = MCS_BRS_PER_TTI[mcs]
        if sinr_min_db is None:
            if mcs not in MCS_MIN_SINR_DB:
                raise GridConfigError(
                    f"mcs {mcs} has no standard minimum SINR; set sinr_min_db explicitly"
                )
            sinr_min_db = MCS_MIN_SINR_DB[mcs]
        return cls(
            beacon_period_ms=beacon_period_ms,
            brs_per_tti=per_tti,
            subchannels_per_br=SUBCHANNELS_TOTAL // per_tti,
            mcs_index=mcs,
            sinr_min_db=float(sinr_min_db),
        )

    @property
    def br_count(self) -> int:
        return self.brs_per_tti * self.beacon_period_ms


def selection_count(r_sel: float, basis_count: int) -> int:
    """Number of candidates handed to the MAC: ceil(r_sel * basis)."""
    if not (0.0 < r_sel <= 1.0):
        raise GridConfigError("r_sel must be in (0, 1]")
    return math.ceil(r_sel * basis_count)
