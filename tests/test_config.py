"""`RunConfig` as the only parameter object, and the shipped configs."""
import dataclasses
import glob
import importlib
import math
import os
import pkgutil

import mode4sim
from mode4sim.config import RunConfig, config_from_mapping, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_no_other_dataclass_defaults_a_config_key():
    # A default on a field named like a RunConfig key is a second copy of
    # that parameter, with its own default and, often, its own checks.
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    copies = []
    for info in pkgutil.iter_modules(mode4sim.__path__):
        module = importlib.import_module(f"mode4sim.{info.name}")
        for obj in vars(module).values():
            if (not isinstance(obj, type) or not dataclasses.is_dataclass(obj)
                    or obj.__module__ != module.__name__ or obj is RunConfig):
                continue
            copies += [f"{obj.__name__}.{f.name}" for f in dataclasses.fields(obj)
                       if f.name in keys and (f.default is not dataclasses.MISSING
                                              or f.default_factory is not dataclasses.MISSING)]
    assert not copies, f"fields that repeat a RunConfig key with a default: {copies}"


def test_shipped_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert paths
    for path in paths:
        assert isinstance(load_config(path), RunConfig), path


def test_whole_number_float_keys_and_infinite_ibe_are_valid():
    cfg = config_from_mapping({"awareness_m": 150, "ibe_attenuation_db": math.inf})
    assert cfg.resolved_awareness_m() == 150.0
