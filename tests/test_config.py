"""`RunConfig` as the only parameter object, and the shipped configs."""
import ast
import dataclasses
import glob
import importlib
import inspect
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


def test_no_package_function_defaults_a_config_key():
    # A parameter named like a RunConfig key with a default is a second copy
    # of that default, used by any caller that leaves the argument out.
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    copies = []
    for info in pkgutil.iter_modules(mode4sim.__path__):
        module = importlib.import_module(f"mode4sim.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                copies += [f"{info.name}.{node.name}({arg.arg})" for arg in defaulted
                           if arg.arg in keys]
    assert not copies, f"parameters that repeat a RunConfig key with a default: {copies}"


def test_no_command_line_flag_defaults_a_config_key():
    # A flag whose destination is a RunConfig key and whose default is a
    # literal repeats that key's default; it must read it from RunConfig.
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    copies = []
    for info in pkgutil.iter_modules(mode4sim.__path__):
        module = importlib.import_module(f"mode4sim.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
            long = [f for f in flags if f.startswith("--")] or flags
            dest = kw["dest"].value if "dest" in kw else long[0].lstrip("-").replace("-", "_")
            if dest in keys and "default" in kw:
                try:
                    ast.literal_eval(kw["default"])
                except ValueError:
                    continue  # a name or an expression, not a literal
                copies.append(f"{info.name}: {long[0]}")
    assert not copies, f"flags that repeat a RunConfig default as a literal: {copies}"


def test_shipped_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert paths
    for path in paths:
        assert isinstance(load_config(path), RunConfig), path


def test_whole_number_float_keys_and_infinite_ibe_are_valid():
    cfg = config_from_mapping({"awareness_m": 150, "ibe_attenuation_db": math.inf})
    assert cfg.resolved_awareness_m() == 150.0
