"""Run configuration: one JSON file with a section per pipeline stage.

Every artifact the pipeline writes embeds the resolved configuration, so
a run is reproducible from any of its outputs.  All stage seeds derive
from the single top-level seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from ..errors import ConfigError
from ..events import DetectorConfig, GenConfig
from ..graphs import DbscanParams
from ..tracknet import ModelConfig, TrainConfig

# seed offsets for the derived per-stage streams
_MODEL_SEED_OFFSET = 101
_SHUFFLE_SEED_OFFSET = 202
_EVENT_SEED_OFFSET = 1000


@dataclass(frozen=True)
class GeneratorSection:
    n_events: int = 10
    n_tracks: int = 10
    pt_range: tuple[float, float] = (2.0, 5.0)
    eps_range: tuple[float, float] = (0.0, 5e-4)
    eta_range: tuple[float, float] = (-1.0, 1.0)
    noise_fraction: float = 0.1
    hit_smearing_sigma: float = 2e-4


@dataclass(frozen=True)
class SelectionSection:
    pt_min: float = 2.0
    volumes: tuple[int, ...] = (7, 8, 9)


@dataclass(frozen=True)
class ModelSection:
    iterations: int = 4
    hidden: int = 64
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class TrainingSection:
    epochs: int = 30
    lr: float = 1e-6
    weight_decay: float = 1e-5


@dataclass(frozen=True)
class NmsSection:
    t_h: float = 0.5
    class_threshold: float = 0.5


@dataclass(frozen=True)
class EvalSection:
    n_holdout: int = 0


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "out"
    hits_csv: str | None = None
    truth_csv: str | None = None
    particles_csv: str | None = None


_SECTION_TYPES = {
    "detector": DetectorConfig,
    "generator": GeneratorSection,
    "selection": SelectionSection,
    "dbscan": DbscanParams,
    "model": ModelSection,
    "training": TrainingSection,
    "nms": NmsSection,
    "eval": EvalSection,
    "paths": PathsSection,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    generator: GeneratorSection = field(default_factory=GeneratorSection)
    selection: SelectionSection = field(default_factory=SelectionSection)
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    nms: NmsSection = field(default_factory=NmsSection)
    eval: EvalSection = field(default_factory=EvalSection)
    paths: PathsSection = field(default_factory=PathsSection)

    # derived objects -------------------------------------------------

    def gen_config(self, event_index: int) -> GenConfig:
        g = self.generator
        return GenConfig(
            n_tracks=g.n_tracks, pt_range=tuple(g.pt_range),
            eps_range=tuple(g.eps_range), eta_range=tuple(g.eta_range),
            noise_fraction=g.noise_fraction,
            hit_smearing_sigma=g.hit_smearing_sigma,
            seed=self.seed + _EVENT_SEED_OFFSET + event_index)

    def model_config(self) -> ModelConfig:
        m = self.model
        return ModelConfig(
            iterations=m.iterations, hidden=m.hidden,
            loss_weights=tuple(m.loss_weights),
            seed=self.seed + _MODEL_SEED_OFFSET)

    def train_config(self) -> TrainConfig:
        t = self.training
        return TrainConfig(
            epochs=t.epochs, lr=t.lr, weight_decay=t.weight_decay,
            shuffle_seed=self.seed + _SHUFFLE_SEED_OFFSET)

    # persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"seed": self.seed}
        for name in _SECTION_TYPES:
            section = asdict(getattr(self, name))
            doc[name] = {k: list(v) if isinstance(v, tuple) else v
                         for k, v in section.items()}
        return doc


def _build_section(name: str, cls, data: dict):
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: "
                          f"{sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as err:
        raise ConfigError(f"bad section {name!r}: {err}") from err


def config_from_dict(doc: dict) -> RunConfig:
    unknown = set(doc) - set(_SECTION_TYPES) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {"seed": int(doc.get("seed", 0))}
    for name, cls in _SECTION_TYPES.items():
        if name in doc:
            if not isinstance(doc[name], dict):
                raise ConfigError(f"section {name!r} must be an object")
            kwargs[name] = _build_section(name, cls, doc[name])
    return RunConfig(**kwargs)


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from a JSON file; None gives all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
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
