"""Experiment configuration: JSON documents with named presets, strict key
checking, and dot-path overrides. Every run embeds its resolved config."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from . import gridworld as gw
from . import model as md
from . import pipelines as pl


class ConfigError(ValueError):
    pass


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
    "model": {
        "hidden": 64,
        "obs_hidden": 128,
        "word_emb": 32,
        "action_emb": 16,
        "attn_dim": 64,
        "prior_hidden": 128,
        "cell_dim": 32,
        "input_feed": True,
        "obs_view": "ego",
    },
    "train": {
        "seed": 0,
        "epochs": 60,
        "iters_per_epoch": 100,
        "paired_batch": 32,
        "unpaired_batch": 32,
        "alpha": 1.0 / 20.0,
        "gamma": 100.0,
        "beta": 0.1,
        "k_slots": 4,
        "latent_dim": 128,
        "learning_rate": 1e-3,
        "n_projections": 50,
        "pretrain_follower": None,
        "pretrain_speaker": None,
        "eval_every": 1,
        "eval_tasks": 100,
        "arch_variant": "attention",
        "include_real_pairs": True,
        "follow_cap": 64,
    },
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
        if isinstance(base[key], dict) and isinstance(value, dict):
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
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown config key: {key}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key: {key}")
        node[parts[-1]] = value
    return doc


def train_config(doc: dict) -> pl.TrainConfig:
    t = doc["train"]
    hp = md.HyperParams(
        alpha=t["alpha"], gamma=t["gamma"], beta=t["beta"], k_slots=t["k_slots"],
        latent_dim=t["latent_dim"], learning_rate=t["learning_rate"],
        n_projections=t["n_projections"],
    )
    if doc["model"]["obs_view"] not in gw.OBS_VIEWS:
        raise ConfigError(f"model.obs_view {doc['model']['obs_view']!r} is not one of {sorted(gw.OBS_VIEWS)}")
    arch = pl.ArchConfig(**doc["model"])
    return pl.TrainConfig(
        seed=t["seed"], epochs=t["epochs"], iters_per_epoch=t["iters_per_epoch"],
        paired_batch=t["paired_batch"], unpaired_batch=t["unpaired_batch"], hp=hp, arch=arch,
        pretrain_follower=t["pretrain_follower"], pretrain_speaker=t["pretrain_speaker"],
        eval_every=t["eval_every"], eval_tasks=t["eval_tasks"], arch_variant=t["arch_variant"],
        include_real_pairs=t["include_real_pairs"], follow_cap=t["follow_cap"],
    )
