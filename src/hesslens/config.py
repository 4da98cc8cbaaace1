"""Experiment configuration: one JSON file, strictly validated.

Unknown sections or keys are rejected outright — a typo in a config should
fail loudly before any compute is spent, not silently fall back to a
default.  Every section has complete defaults, so ``{}`` is a valid config
describing the stock small-image run.
"""

import copy
import json
import math

from .attacks import ATTACK_NORMS, Damping, eps_preset
from .dataio import check_dataset, load_dataset, load_idx, synth_blobs
from .errors import ConfigError
from .nn import PRESETS
from .training import TrainConfig

_SECTIONS = {
    "data": {
        "kind": (str, "blobs"),  # blobs | idx | native
        "n_train": (int, 5000),
        "n_test": (int, 1000),
        "classes": (int, 10),
        "seed": (int, 0),
        "separation": (float, 1.0),
        "noise": (float, 0.1),
        "path": (str, None),
        "train_images": (str, None),
        "train_labels": (str, None),
        "test_images": (str, None),
        "test_labels": (str, None),
    },
    "train": {
        "batch_size": (int, 64),
        "lr": (float, 0.05),
        "momentum": (float, 0.9),
        "epochs": (int, 40),
        "target_loss": (float, 0.01),
        "halve_every": (int, 10),
        "seed": (int, 0),
        "attack": (str, None),
        "eps": (float, 0.0),
        "lambda1_every": (int, 0),
        "lambda1_tol": (float, 1e-3),
        "lambda1_iters": (int, 100),
    },
    "spectrum": {
        "target": (str, "theta"),  # theta | input
        "k": (int, 20),
        "tol": (float, 1e-4),
        "max_iter": (int, 500),
        "seed": (int, 0),
        "batch_size": (int, 320),
        "sample_index": (int, 0),
        "save_vectors": (bool, False),
    },
    "attack": {
        "name": (str, "fgsm"),
        "eps": (float, None),  # None picks the preset for the input shape
        "samples": (int, 500),
        "damping_scale": (float, 1e-3),
        "damping_floor": (float, 1e-6),
        "save_adversarial": (bool, False),
    },
    "landscape": {
        "mode": (str, "line"),  # line | plane | interpolate
        "radius": (float, 0.5),
        "points": (int, 41),
        "seed": (int, 0),
        "direction": (str, "random"),  # random | eigvec
        "vectors": (str, None),
        "batch_size": (int, 512),
        "other_checkpoint": (str, None),
    },
    "sweep": {
        "batch_sizes": (list, [16, 64, 256, 1024]),
        "seeds": (list, [0, 1, 2]),
        "attack": (str, "fgsm"),
        "eps": (float, None),
        "eval_samples": (int, 1000),
    },
}


# Range checks applied after the type checks: (test, requirement in words).
_BOUNDS = {
    ("spectrum", "k"): (lambda v: v >= 1, "at least 1"),
    ("spectrum", "tol"): (lambda v: v > 0, "positive"),
    ("spectrum", "max_iter"): (lambda v: v >= 1, "at least 1"),
    ("train", "lambda1_tol"): (lambda v: v > 0, "positive"),
    ("train", "lambda1_iters"): (lambda v: v >= 1, "at least 1"),
    ("attack", "samples"): (lambda v: v >= 1, "at least 1"),
    ("attack", "damping_scale"): (lambda v: 0 <= v < math.inf,
                                  "non-negative and finite"),
    ("attack", "damping_floor"): (lambda v: 0 < v < math.inf,
                                  "positive and finite"),
    ("sweep", "batch_sizes"): (lambda v: all(b >= 1 for b in v), "at least 1 each"),
}


class ExperimentConfig:
    """Validated view of one experiment description."""

    def __init__(self, model, sections):
        self.model = model
        for name in _SECTIONS:
            setattr(self, name, sections[name])

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        obj = dict(obj)
        model = obj.pop("model", "m1_desk")
        if model not in PRESETS:
            raise ConfigError(f"unknown model {model!r} (have {sorted(PRESETS)})")
        sections = {}
        for name, schema in _SECTIONS.items():
            given = obj.pop(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"section {name!r} must be an object")
            sections[name] = _apply_schema(name, schema, given)
        if obj:
            raise ConfigError(f"unknown config keys: {sorted(obj)}")
        return cls(model, sections)

    def to_dict(self):
        out = {"model": self.model}
        for name in _SECTIONS:
            out[name] = copy.deepcopy(getattr(self, name))
        return out

    def train_config(self):
        t = self.train
        return TrainConfig(
            model=self.model, batch_size=t["batch_size"], lr=t["lr"],
            momentum=t["momentum"], epochs=t["epochs"],
            target_loss=t["target_loss"], halve_every=t["halve_every"],
            seed=t["seed"], attack=t["attack"], eps=t["eps"],
            lambda1_every=t["lambda1_every"], lambda1_tol=t["lambda1_tol"],
            lambda1_iters=t["lambda1_iters"],
        ).validate()

    def damping(self):
        a = self.attack
        return Damping(damping_scale=a["damping_scale"],
                       damping_floor=a["damping_floor"])

    def attack_eps(self, model):
        name = self.attack["name"]
        if name not in ATTACK_NORMS:
            raise ConfigError(f"unknown attack {name!r}")
        if self.attack["eps"] is not None:
            return float(self.attack["eps"])
        return eps_preset(model.in_shape, ATTACK_NORMS[name])


def _apply_schema(section, schema, given):
    out = {k: copy.deepcopy(d) for k, (_, d) in schema.items()}
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown key {section}.{key}")
        typ, default = schema[key]
        if value is None:
            if default is not None:
                raise ConfigError(f"{section}.{key} must not be null")
            continue
        if typ is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{section}.{key} must be an integer")
        elif typ is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{section}.{key} must be a number")
            value = float(value)
        elif typ is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{section}.{key} must be true/false")
        elif typ is str:
            if not isinstance(value, str):
                raise ConfigError(f"{section}.{key} must be a string")
        elif typ is list:  # every list in the schema holds integers
            if not isinstance(value, list) or any(
                    isinstance(v, bool) or not isinstance(v, int) for v in value):
                raise ConfigError(f"{section}.{key} must be a list of integers")
        test, requirement = _BOUNDS.get((section, key), (None, None))
        if test is not None and not test(value):
            raise ConfigError(f"{section}.{key} must be {requirement}, got {value!r}")
        out[key] = value
    return out


def load_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(obj)


def load_data(cfg, model):
    """Materialize the dataset a config describes, shaped for ``model``."""
    d = cfg.data
    kind = d["kind"]
    if kind == "blobs":
        if not 1 <= d["classes"] <= model.classes:
            raise ConfigError(f"data.classes must be in [1, {model.classes}] for "
                              f"model {model.config.name!r}, got {d['classes']}")
        return synth_blobs(d["n_train"], d["n_test"], in_shape=model.in_shape,
                           classes=d["classes"], seed=d["seed"],
                           separation=d["separation"], noise=d["noise"])
    if kind == "native":
        if not d["path"]:
            raise ConfigError("data.path is required for kind 'native'")
        ds, source = load_dataset(d["path"]), d["path"]
    elif kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if not d[key]:
                raise ConfigError(f"data.{key} is required for kind 'idx'")
        ds = load_idx(d["train_images"], d["train_labels"], d["test_images"],
                      d["test_labels"])
        source = f"{d['train_images']} / {d['test_images']}"
    else:
        raise ConfigError(f"unknown data.kind {kind!r}")
    check_dataset(ds, model.in_shape, model.classes, source)
    return ds.subset(d["n_train"], d["n_test"])
