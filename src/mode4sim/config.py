"""Run configuration: YAML parsing, validation, defaults, and echo.

All keys carry the standard default values; a config file only has to name
what deviates. Scenario-dependent defaults (awareness range, shadowing
decorrelation distance) resolve from the scenario kind when left unset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import yaml

from .channel import ChannelParams, noise_floor_dbm
from .grid import MCS_BRS_PER_TTI, GridConfig, GridConfigError
from .mobility import HighwayConfig
from .mode4 import Mode4ParamError, Mode4Params


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
    p_th_dbm: float = -110.0
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
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{f.name} must be a number, not NaN")
        for key in ("duration_s", "awareness_m", "prr_bin_width_m"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive, got {value}")
        if self.scenario not in ("highway", "trace"):
            raise ConfigError("scenario must be 'highway' or 'trace'")
        if self.scenario == "trace" and not self.trace:
            raise ConfigError("scenario 'trace' needs a trace path")
        if self.scenario == "highway" and self.trace:
            raise ConfigError("exactly one scenario source: drop 'trace' or switch scenario")
        if self.allocation not in ("mode4", "random"):
            raise ConfigError("allocation must be 'mode4' or 'random'")
        if self.mcs not in MCS_BRS_PER_TTI:
            raise ConfigError(f"mcs must be one of {sorted(MCS_BRS_PER_TTI)}")
        if self.duration_s <= self.warmup_s:
            raise ConfigError(
                f"duration_s ({self.duration_s}) must exceed the warm-up "
                f"({self.warmup_s:.1f} s = t_sense + n_max beacon periods)"
            )
        try:
            self.grid_config()
            self.mode4_params()
            self.channel_params()
            if self.scenario == "highway":
                self.highway_config()
        except (GridConfigError, Mode4ParamError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.t_sense_ms % self.beacon_period_ms != 0:
            raise ConfigError(
                f"t_sense_ms ({self.t_sense_ms}) must be a multiple of "
                f"beacon_period_ms ({self.beacon_period_ms})"
            )
        return self

    @property
    def warmup_s(self) -> float:
        return (self.t_sense_ms + self.n_max * self.beacon_period_ms) / 1000.0

    def resolved_awareness_m(self) -> float:
        if self.awareness_m is not None:
            return float(self.awareness_m)
        return 200.0 if self.scenario == "highway" else 100.0

    def resolved_decorr_dist_m(self) -> float:
        if self.decorr_dist_m is not None:
            return float(self.decorr_dist_m)
        return 25.0 if self.scenario == "highway" else 10.0

    def grid_config(self) -> GridConfig:
        return GridConfig.for_mcs(self.mcs, self.beacon_period_ms, self.sinr_min_db)

    def channel_params(self) -> ChannelParams:
        grid = self.grid_config()
        return ChannelParams(
            carrier_ghz=self.carrier_ghz,
            shadow_sigma_los_db=self.shadow_sigma_los_db,
            shadow_sigma_nlos_db=self.shadow_sigma_nlos_db,
            decorr_dist_m=self.resolved_decorr_dist_m(),
            tx_power_dbm=self.tx_power_dbm,
            antenna_gain_db=self.antenna_gain_db,
            noise_floor_dbm=noise_floor_dbm(grid.subchannels_per_br, self.noise_figure_db),
            ibe_attenuation_db=self.ibe_attenuation_db,
        )

    def mode4_params(self) -> Mode4Params:
        return Mode4Params(
            t_sense_ms=self.t_sense_ms,
            p_th_dbm=self.p_th_dbm,
            r_sel=self.r_sel,
            t1=self.t1,
            t2=self.t2,
            n_min=self.n_min,
            n_max=self.n_max,
            p_keep=self.p_keep,
            nr_basis=self.nr_basis,
            nonstandard=self.nonstandard,
        )

    def highway_config(self) -> HighwayConfig:
        return HighwayConfig(
            length_m=self.highway_length_m,
            lanes_per_direction=self.lanes_per_direction,
            target_vehicle_count=self.highway_vehicles,
        )

    def resolved_items(self) -> list[tuple[str, object]]:
        """Fully resolved key/value pairs for the output echo."""
        items = []
        for f in sorted(fields(self), key=lambda f: f.name):
            items.append((f.name, getattr(self, f.name)))
        items.append(("resolved_awareness_m", self.resolved_awareness_m()))
        items.append(("resolved_decorr_dist_m", self.resolved_decorr_dist_m()))
        items.append(("resolved_sinr_min_db", self.grid_config().sinr_min_db))
        items.append(("resolved_noise_floor_dbm",
                      round(self.channel_params().noise_floor_dbm, 6)))
        items.append(("warmup_s", self.warmup_s))
        return items


_HIGHWAY_KEYS = {
    "length_m": "highway_length_m",
    "vehicles": "highway_vehicles",
    "lanes_per_direction": "lanes_per_direction",
}

SWEEPABLE_KEYS = {
    "t_sense_ms": int, "p_th_dbm": float, "r_sel": float, "t1": int, "t2": int,
    "n_min": int, "n_max": int, "p_keep": float, "mcs": int,
    "ibe_attenuation_db": float, "awareness_m": float, "seed": int,
    "allocation": str, "highway_vehicles": int, "duration_s": float,
}


def config_from_mapping(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {f.name for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key == "highway":
            if not isinstance(value, dict):
                raise ConfigError("'highway' must be a mapping")
            for hk, hv in value.items():
                if hk not in _HIGHWAY_KEYS:
                    raise ConfigError(f"unknown highway key '{hk}'")
                kwargs[_HIGHWAY_KEYS[hk]] = hv
            continue
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
        kwargs[key] = value
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


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
