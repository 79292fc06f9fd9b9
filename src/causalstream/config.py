"""JSON run-configuration parsing with a strict schema.

Every section is bound by the codec (see ``_codec``) from the fields of its
dataclass.  Unknown keys are rejected at every nesting level so typos fail
loudly instead of silently running defaults, and a value of the wrong JSON
type is rejected, not converted.  Value errors raised by the domain
dataclasses are re-raised as ConfigError with the offending path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ._codec import decode, encode
from .evaluate import LEARNER_NAMES
from .generator import GeneratorConfig

__all__ = [
    "ConfigError",
    "EvalOptions",
    "AnalysisOptions",
    "RunConfig",
    "parse_config",
    "load_config",
    "config_to_document",
]


class ConfigError(ValueError):
    """Configuration document violates the schema."""


@dataclass(frozen=True)
class EvalOptions:
    learner: str | None = None
    window: int = 100
    initial_train: int = 100
    delay: int = 0
    label_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.learner is not None and self.learner not in LEARNER_NAMES:
            raise ValueError(
                f"unknown learner {self.learner!r}; pick one of {LEARNER_NAMES}"
            )
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.initial_train < 0:
            raise ValueError("initial_train must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class AnalysisOptions:
    batch_size: int = 500
    lags: int = 20
    include_label: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lags < 1:
            raise ValueError("lags must be positive")


@dataclass(frozen=True)
class RunConfig:
    generator: GeneratorConfig
    evaluation: EvalOptions = field(default_factory=EvalOptions)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    out: str | None = None


# the top level holds the generator's fields and these run sections
_RUN_KEYS = ("evaluation", "analysis", "out")


def parse_config(doc: dict) -> RunConfig:
    """Validate a JSON document and bind it to runtime objects.

    The codec checks every section against its dataclass; the rules here are
    those that span sections.
    """

    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("seed", "dataset_size"):
        if key not in doc:
            raise ConfigError(f"{key} is mandatory")
    gdoc = {k: v for k, v in doc.items() if k not in _RUN_KEYS}
    try:
        generator = decode(GeneratorConfig, gdoc)
        evaluation = decode(EvalOptions, doc.get("evaluation", {}), "evaluation")
        analysis = decode(AnalysisOptions, doc.get("analysis", {}), "analysis")
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    return RunConfig(generator=generator, evaluation=evaluation, analysis=analysis, out=out)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(doc)


def config_to_document(cfg: GeneratorConfig) -> dict:
    """Resolved generator config as a plain JSON document.

    Feeding this document back through parse_config reproduces the stream
    byte for byte (the regeneration contract of the metadata sidecar).
    """

    doc = encode(cfg)
    # a config without concept params writes no concept key, which keeps
    # the bytes of the sidecars written for such configs
    if doc["concept"] is None:
        del doc["concept"]
    return doc
