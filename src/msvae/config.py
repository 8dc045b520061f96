"""Experiment configuration: JSON documents with named presets, strict key
checking, and dot-path overrides. Every run embeds its resolved config."""

from __future__ import annotations

import copy
import json
import sys
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
# defaults. The corpus fixes vocab_size and the model's view obs_dim, so they
# are no keys; the latent geometry is set in the train section.
_LATENT_KEYS = ["k_slots", "latent_dim"]
_MODEL_KEYS = _fields(md.ModelConfig, skip=["vocab_size", "obs_dim", *_LATENT_KEYS])
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


# A value has its default's type (an int may stand for a float, a bool never
# for an int) or, for these nullable keys, null; string keys take one of their
# choices; numbers are finite and >= 0, sizes (these and every model.* int) >= 1,
# and corpus split sizes <= 1e6, the span of a split's seed range.
_NULLABLE = {"eval.limit": int, "train.pretrain_follower": str, "train.pretrain_speaker": str}
_CHOICES = {"corpus.difficulty": ("goto_seq", "boss"), "eval.split": ("val", "test"),
            "train.arch_variant": ("attention", "no_attention", "bottleneck"), "eval.decoding": ("greedy", "sample")}
_SIZES = {"eval.limit", *(f"train.{k}" for k in ("epochs", "iters_per_epoch", "paired_batch", "eval_every",
                                                   "eval_tasks", "n_projections", "k_slots", "latent_dim"))}
_SPLIT_SIZES = {"corpus.m", "corpus.n", "corpus.val_tasks", "corpus.test_tasks"}


def _check_value(name: str, value, default) -> None:
    kind = _NULLABLE.get(name, type(default))
    if name == "corpus.subgoal_weights":  # as Generator.choice takes them
        want = "four numbers >= 0 that sum to 1"
        ok = (type(value) is list and len(value) == 4 and all(type(w) in (int, float) and w >= 0 for w in value)
              and abs(sum(value) - 1) <= 1e-8)
    elif kind in (int, float):
        low = 1 if name in _SIZES or name.startswith("model.") else 0
        high = 1_000_000 if name in _SPLIT_SIZES else sys.float_info.max
        want = f"{kind.__name__} in [{low}, {high}]" if name in _SPLIT_SIZES else f"finite {kind.__name__} >= {low}"
        ok = type(value) in ((int, float) if kind is float else (int,)) and low <= value <= high  # NaN fails
    else:
        want = " | ".join(_CHOICES.get(name, [kind.__name__]))
        ok = type(value) is kind and value in _CHOICES.get(name, [value])
    if not (ok or value is None and name in _NULLABLE):
        raise ConfigError(f"{name}={json.dumps(value)}: expected {'null or ' * (name in _NULLABLE)}{want}")


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
    """Preset -> optional config file -> --set overrides; every key and value checked."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    doc = copy.deepcopy(DEFAULTS)
    _merge(doc, copy.deepcopy(PRESETS[preset]))
    if config_path is not None:
        try:
            user = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as e:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {config_path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        _merge(doc, user)
    for text in overrides or []:
        key, value = _parse_override(text)
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(doc, value)
    for section, values in doc.items():
        for key, value in values.items():
            _check_value(f"{section}.{key}", value, DEFAULTS[section][key])
    return doc


def train_config(doc: dict) -> pl.TrainConfig:
    t = doc["train"]
    return pl.TrainConfig(**_pick(t, _TRAIN_KEYS), hp=md.HyperParams(**_pick(t, _HP_KEYS)),
                          model=md.ModelConfig(**doc["model"], **_pick(t, _LATENT_KEYS)))
