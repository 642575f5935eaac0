"""Run configuration: one JSON file with a section per pipeline stage.

The detector, generator, dbscan, model and training sections are the
domain configs themselves, so each setting has one declaration and one
default.  Every value is checked against its field's type and range when
the config loads, so a bad value is a ConfigError before any stage runs.
Every artifact the pipeline writes embeds the resolved configuration, so
a run is reproducible from any of its outputs.  All stage seeds derive
from the single top-level seed.
"""

from __future__ import annotations

import contextlib
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

from ..errors import ConfigError
from ..events import DetectorConfig, GenConfig
from ..graphs import DbscanParams
from ..tracknet import ModelConfig, TrainConfig


@dataclass(frozen=True)
class GeneratorSection(GenConfig):
    n_events: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.n_events < 1:
            raise ConfigError(f"n_events must be >= 1, got {self.n_events}")


TrainingSection = TrainConfig  # the name perfbench/workloads.py imports


@dataclass(frozen=True)
class SelectionSection:
    pt_min: float = 2.0
    volumes: tuple[int, ...] = (7, 8, 9)


@dataclass(frozen=True)
class NmsSection:
    t_h: float = 0.5
    class_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.t_h < 1.0:
            raise ConfigError(f"nms t_h must lie in (0, 1), got {self.t_h}")
        if not 0.0 <= self.class_threshold <= 1.0:
            raise ConfigError(f"nms class_threshold must lie in [0, 1], "
                              f"got {self.class_threshold}")


@dataclass(frozen=True)
class EvalSection:
    n_holdout: int = 0

    def __post_init__(self):
        if self.n_holdout < 0:
            raise ConfigError(f"n_holdout must be >= 0, got {self.n_holdout}")


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "out"
    hits_csv: str | None = None
    truth_csv: str | None = None
    particles_csv: str | None = None


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    generator: GeneratorSection = field(default_factory=GeneratorSection)
    selection: SelectionSection = field(default_factory=SelectionSection)
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    nms: NmsSection = field(default_factory=NmsSection)
    eval: EvalSection = field(default_factory=EvalSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


def _section(cls, data: dict, prefix: str = ""):
    """Build the dataclass `cls` from a JSON object: each value is checked
    against its field's type here and against its range by `cls`."""
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown config keys: "
                          f"{sorted(prefix + key for key in unknown)}")
    return cls(**{key: _typed(value, hints[key], prefix + key)
                  for key, value in data.items()})


def _typed(value, hint, where: str):
    """`value` as the annotated type `hint`, or a ConfigError naming
    `where`.  A JSON object becomes a section, a list a tuple and an int
    a float where one is declared; a bool is no number and a float must
    be finite."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        if isinstance(value, dict):
            return _section(hint, value, where + ".")
        raise ConfigError(f"{where} must be an object, got {value!r:.60}")
    elif origin is types.UnionType:
        for option in args:
            with contextlib.suppress(ConfigError):
                return _typed(value, option, where)
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
            with contextlib.suppress(ConfigError):
                if len(kinds) == len(value):
                    return tuple(_typed(v, k, where)
                                 for v, k in zip(value, kinds))
    elif isinstance(value, bool):
        pass
    elif hint is float:
        if isinstance(value, (int, float)) and \
                abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, hint):
        return value
    name = hint.__name__ if isinstance(hint, type) else hint
    raise ConfigError(f"{where} must be {name}, got {value!r:.60}")


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from its JSON document; every value is checked
    against its field's type and range.  Raises ConfigError."""
    return _section(RunConfig, doc)


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from a JSON file; None gives all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as err:  # bad bytes, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {err}") \
            from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(doc)


def apply_overrides(cfg: RunConfig, seed: int | None = None,
                    out_dir: str | None = None) -> RunConfig:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, paths=replace(cfg.paths, out_dir=out_dir))
    return cfg
