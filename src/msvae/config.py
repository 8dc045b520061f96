"""Experiment configuration: JSON documents with named presets, strict key
checking, and dot-path overrides. Every run embeds its resolved config."""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, fields
from pathlib import Path

from . import gridworld as gw
from . import model as md
from . import pipelines as pl


class ConfigError(ValueError):
    pass


def _fields(cls, skip=()) -> list[str]:
    return [f.name for f in fields(cls) if f.name not in skip]


def _pick(doc: dict, keys) -> dict:
    return {k: doc[k] for k in keys}


# The model and train sections come from the dataclasses' fields and
# defaults. The corpus and the gridworld fix vocab_size, obs_dim and
# n_actions, so they are no keys; the latent geometry is set in the train
# section, next to the objective weights.
_LATENT_KEYS = ["k_slots", "latent_dim"]
_MODEL_KEYS = _fields(md.ModelConfig, skip=["vocab_size", "obs_dim", "n_actions", *_LATENT_KEYS])
_HP_KEYS = _fields(md.HyperParams)
_TRAIN_KEYS = _fields(pl.TrainConfig, skip=["hp", "model"])
_TRAIN = asdict(pl.TrainConfig())

# the full key schema with desk-scale defaults; presets override sections
DEFAULTS: dict = {
    "corpus": {
        "difficulty": "boss",
        "m": 500,
        "n": 20000,
        "val_tasks": 200,
        "test_tasks": 500,
        "seed": 0,
        "subgoal_weights": list(gw.SUBGOAL_WEIGHTS),
    },
    "model": _pick(_TRAIN["model"], _MODEL_KEYS),
    "train": {**_pick(_TRAIN, _TRAIN_KEYS), **_TRAIN["hp"], **_pick(_TRAIN["model"], _LATENT_KEYS)},
    "eval": {
        "split": "test",
        "decoding": "greedy",
        "candidates": 10,
        "limit": None,
        "seed": 0,
    },
}

PRESETS: dict[str, dict] = {
    "desk_scale": {},  # the defaults above
    "paper_scale": {
        "corpus": {"m": 1000, "n": 1_000_000, "val_tasks": 200, "test_tasks": 500},
        "train": {"epochs": 200, "iters_per_epoch": 200, "paired_batch": 256, "unpaired_batch": 256},
    },
}


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) != isinstance(value, dict):
            raise ConfigError(f"config key {here} cannot be set to {value!r}: sections merge key by key")
        if isinstance(value, dict):
            _merge(base[key], value, here)
        else:
            base[key] = value


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like section.key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def resolve(preset: str = "desk_scale", config_path=None, overrides: list[str] | None = None) -> dict:
    """Preset -> optional config file -> --set overrides, strictly checked."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    doc = copy.deepcopy(DEFAULTS)
    _merge(doc, copy.deepcopy(PRESETS[preset]))
    if config_path is not None:
        try:
            user = json.loads(Path(config_path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {config_path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(doc, user)
    for text in overrides or []:
        key, value = _parse_override(text)
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(doc, value)
    return doc


def train_config(doc: dict) -> pl.TrainConfig:
    t, m = doc["train"], doc["model"]
    if m["obs_view"] not in gw.OBS_VIEWS:
        raise ConfigError(f"model.obs_view {m['obs_view']!r} is not one of {sorted(gw.OBS_VIEWS)}")
    try:
        return pl.TrainConfig(
            **_pick(t, _TRAIN_KEYS),
            hp=md.HyperParams(**_pick(t, _HP_KEYS)),
            model=md.ModelConfig(**m, **_pick(t, _LATENT_KEYS)),
        )
    except (ValueError, TypeError) as e:  # a value the dataclasses reject
        raise ConfigError(f"bad config value: {e}") from e
