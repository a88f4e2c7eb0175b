"""Run configuration: YAML parsing, validation, defaults, and echo.

`RunConfig` is the only parameter object: every simulator module reads the
fields it needs from a validated instance, and `validate` is the only place
a key is checked. All keys carry the standard default values; a config file
only has to name what deviates. Scenario-dependent defaults (awareness
range, shadowing decorrelation distance) resolve from the scenario kind
when left unset.
"""
from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, fields, replace

import numpy as np
import yaml

from .mobility import LANE_SPEEDS_MPS

# Non-adjacent control-channel layout in 10 MHz: four subchannels of
# 10 resource-block pairs, the remaining pairs reserved for control.
SUBCHANNELS_TOTAL = 4
RB_PAIRS_PER_SUBCHANNEL = 10
RB_PAIR_BANDWIDTH_HZ = 180e3
THERMAL_NOISE_DBM_HZ = -174.0

# A beacon resource (BR) is a group of subchannels inside one subframe that
# carries one beacon. The grid spans one beacon period: br_count =
# brs_per_tti * beacon_period_ms BRs, indexed time-major (flat r = subframe
# * brs_per_tti + freq_slot). The MCS fixes how many BRs fit per subframe.
MCS_BRS_PER_TTI = {4: 1, 7: 2, 14: 4}
# Decoding thresholds are only standardized here for MCS 4 and 7; an MCS 14
# run must supply sinr_min_db explicitly.
MCS_MIN_SINR_DB = {4: 2.76, 7: 7.30}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # scenario
    scenario: str = "highway"
    trace: str | None = None
    obstacle_map: str | None = None
    highway_length_m: float = 16000.0
    highway_vehicles: int = 2015
    lanes_per_direction: int = 3
    allocation: str = "mode4"
    duration_s: float = 32.5
    seed: int = 1
    awareness_m: float | None = None
    prr_bin_width_m: float = 10.0
    max_trace_gap_s: float = 1.0
    # grid / phy
    beacon_period_ms: int = 100
    mcs: int = 7
    sinr_min_db: float | None = None
    ibe_attenuation_db: float = 25.0
    # channel
    carrier_ghz: float = 5.9
    decorr_dist_m: float | None = None
    shadow_sigma_los_db: float = 3.0
    shadow_sigma_nlos_db: float = 4.0
    tx_power_dbm: float = 23.0
    antenna_gain_db: float = 3.0
    noise_figure_db: float = 9.0
    # resource selection / MAC
    t_sense_ms: int = 1000
    p_th_dbm: float = -110.0  # -128 + 2 * (8a + b) at priorities a = b = 1
    r_sel: float = 0.2
    t1: int = 1
    t2: int = 100
    n_min: int = 5
    n_max: int = 15
    p_keep: float = 0.4
    nr_basis: str = "total"
    nonstandard: bool = False

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            kind, optional = _KINDS[f.name]
            if value is None and optional:
                continue
            accepted, name = _ACCEPTED[kind]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
                raise ConfigError(f"{f.name} must be {name}, got {value!r}")
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{f.name} must be a number, not NaN")
        for key in ("duration_s", "awareness_m", "prr_bin_width_m", "carrier_ghz",
                    "decorr_dist_m"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive, got {value}")
        for key in ("tx_power_dbm", "antenna_gain_db", "noise_figure_db", "sinr_min_db",
                    "shadow_sigma_los_db", "shadow_sigma_nlos_db", "p_th_dbm"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        checks = [
            (self.scenario in ("highway", "trace"), "scenario must be 'highway' or 'trace'"),
            (self.scenario == "highway" or self.trace, "scenario 'trace' needs a trace path"),
            (self.scenario == "trace" or not self.trace,
             "exactly one scenario source: drop 'trace' or switch scenario"),
            (self.allocation in ("mode4", "random"), "allocation must be 'mode4' or 'random'"),
            (self.mcs in MCS_BRS_PER_TTI, f"mcs must be one of {sorted(MCS_BRS_PER_TTI)}"),
            (self.sinr_min_db is not None or self.mcs in MCS_MIN_SINR_DB,
             f"mcs {self.mcs} has no standard minimum SINR; set sinr_min_db explicitly"),
            (self.ibe_attenuation_db > -math.inf, "ibe_attenuation_db must not be -inf"),
            (self.beacon_period_ms >= 1, "beacon_period_ms must be >= 1"),
            (self.shadow_sigma_los_db >= 0 and self.shadow_sigma_nlos_db >= 0,
             "shadowing sigmas must be >= 0"),
            (self.max_trace_gap_s >= 0, "max_trace_gap_s must be >= 0"),
            (self.t_sense_ms > 0, "t_sense_ms must be positive"),
            (1 <= self.t1 <= 4, "t1 must lie in [1, 4]"),
            (20 <= self.t2 <= 100, "t2 must lie in [20, 100]"),
            (0.0 < self.r_sel <= 1.0, "r_sel must be in (0, 1]"),
            (0 < self.n_min <= self.n_max, "need 0 < n_min <= n_max"),
            (0.0 <= self.p_keep < 1.0, "p_keep must lie in [0, 1)"),
            (self.p_keep <= 0.8 or self.nonstandard,
             "p_keep above 0.8 requires the nonstandard flag"),
            (self.nr_basis in ("total", "window"), "nr_basis must be 'total' or 'window'"),
        ]
        if self.scenario == "highway":
            checks += [
                (self.highway_length_m > 0 and self.highway_vehicles > 0,
                 "length and vehicle count must be positive"),
                (math.isfinite(self.highway_length_m), "highway length must be finite"),
                (1 <= self.lanes_per_direction <= len(LANE_SPEEDS_MPS),
                 f"need 1 to {len(LANE_SPEEDS_MPS)} lanes per direction"),
            ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.duration_s <= self.warmup_s:
            raise ConfigError(
                f"duration_s ({self.duration_s}) must exceed the warm-up "
                f"({self.warmup_s:.1f} s = t_sense + n_max beacon periods)"
            )
        if self.t_sense_ms % self.beacon_period_ms != 0:
            raise ConfigError(
                f"t_sense_ms ({self.t_sense_ms}) must be a multiple of "
                f"beacon_period_ms ({self.beacon_period_ms})"
            )
        return self

    @property
    def warmup_tti(self) -> int:
        return self.t_sense_ms + self.n_max * self.beacon_period_ms

    @property
    def warmup_s(self) -> float:
        return self.warmup_tti / 1000.0

    @property
    def brs_per_tti(self) -> int:
        return MCS_BRS_PER_TTI[self.mcs]

    @property
    def br_count(self) -> int:
        return self.brs_per_tti * self.beacon_period_ms

    def resolved_awareness_m(self) -> float:
        if self.awareness_m is not None:
            return float(self.awareness_m)
        return 200.0 if self.scenario == "highway" else 100.0

    def resolved_decorr_dist_m(self) -> float:
        if self.decorr_dist_m is not None:
            return float(self.decorr_dist_m)
        return 25.0 if self.scenario == "highway" else 10.0

    def resolved_sinr_min_db(self) -> float:
        if self.sinr_min_db is not None:
            return float(self.sinr_min_db)
        return MCS_MIN_SINR_DB[self.mcs]

    def noise_floor_dbm(self) -> float:
        """Thermal noise over one BR allocation plus the receiver noise figure."""
        subchannels_per_br = SUBCHANNELS_TOTAL // self.brs_per_tti
        bw_hz = subchannels_per_br * RB_PAIRS_PER_SUBCHANNEL * RB_PAIR_BANDWIDTH_HZ
        return THERMAL_NOISE_DBM_HZ + 10.0 * np.log10(bw_hz) + self.noise_figure_db

    def resolved_items(self) -> list[tuple[str, object]]:
        """Fully resolved key/value pairs for the output echo."""
        items = []
        for f in sorted(fields(self), key=lambda f: f.name):
            items.append((f.name, getattr(self, f.name)))
        items.append(("resolved_awareness_m", self.resolved_awareness_m()))
        items.append(("resolved_decorr_dist_m", self.resolved_decorr_dist_m()))
        items.append(("resolved_sinr_min_db", self.resolved_sinr_min_db()))
        items.append(("resolved_noise_floor_dbm", round(self.noise_floor_dbm(), 6)))
        items.append(("warmup_s", self.warmup_s))
        return items


# Per field: the type its annotation names and whether None is allowed.
# Integer keys take whole numbers only and float keys any real number;
# neither takes a bool, and `nonstandard` takes nothing but one.
_KINDS = {
    name: (next(a for a in typing.get_args(hint) or (hint,) if a is not type(None)),
           type(None) in typing.get_args(hint))
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_ACCEPTED = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
             str: (str, "a string"), bool: (bool, "true or false")}

# Keys `sweep` takes, each with the cast its command-line values get.
SWEEPABLE_KEYS = {
    key: _KINDS[key][0]
    for key in ("t_sense_ms", "p_th_dbm", "r_sel", "t1", "t2", "n_min", "n_max",
                "p_keep", "mcs", "ibe_attenuation_db", "awareness_m", "seed",
                "allocation", "highway_vehicles", "duration_s", "nr_basis",
                "tx_power_dbm")
}


def config_from_mapping(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
    return RunConfig(**raw).validate()


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return config_from_mapping(raw or {})


def with_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **clean).validate()
