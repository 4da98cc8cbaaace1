"""Experiment configuration: one JSON file, strictly validated.

Unknown sections or keys are rejected outright — a typo in a config should
fail loudly before any compute is spent, not silently fall back to a
default.  Every section has complete defaults, so ``{}`` is a valid config
describing the stock small-image run.

Each key's type, default and rule are one ``_SECTIONS`` entry (the train
and damping ones come from ``TrainConfig`` and ``Damping``, whose
``validate()`` reads the same rules); the rules that read two keys sit in
:meth:`ExperimentConfig.from_dict`.  So every rule is checked when the
config loads, whichever command runs.
"""

import copy
import json
import sys
from dataclasses import fields

from .attacks import ATTACK_NORMS, Damping, eps_preset
from .dataio import check_dataset, load_dataset, load_idx, synth_blobs
from .errors import AT_LEAST_1, NON_NEGATIVE, POSITIVE, ConfigError, check_rule, one_of
from .nn import PRESETS
from .training import TrainConfig


def _schema(cls, skip=()):
    """``{field: (type, default, rule)}`` read off a dataclass, so each default
    and each rule is written once, in the dataclass."""
    return {f.name: (f.type, f.default, cls._RULES.get(f.name))
            for f in fields(cls) if f.name not in skip}


# {section: {key: (type, default, rule)}}.  A rule is ``(test, requirement)``
# (see hesslens.errors) or None; it is checked after the type.
_SECTIONS = {
    "data": {
        "kind": (str, "blobs", one_of(("blobs", "idx", "native"))),
        "n_train": (int, 5000, AT_LEAST_1),
        "n_test": (int, 1000, AT_LEAST_1),
        "classes": (int, 10, None),  # checked against the model in from_dict
        "seed": (int, 0, None),
        "separation": (float, 1.0, NON_NEGATIVE),
        "noise": (float, 0.1, NON_NEGATIVE),
        "path": (str, None, None),
        "train_images": (str, None, None),
        "train_labels": (str, None, None),
        "test_images": (str, None, None),
        "test_labels": (str, None, None),
    },
    "train": _schema(TrainConfig, skip=("model",)),
    "spectrum": {
        "target": (str, "theta", one_of(("theta", "input"))),
        "k": (int, 20, AT_LEAST_1),
        "tol": (float, 1e-4, POSITIVE),
        "max_iter": (int, 500, AT_LEAST_1),
        "seed": (int, 0, None),
        "batch_size": (int, 320, AT_LEAST_1),
        "sample_index": (int, 0, NON_NEGATIVE),
        "save_vectors": (bool, False, None),
    },
    "attack": {
        "name": (str, "fgsm", one_of(ATTACK_NORMS)),
        "eps": (float, None, NON_NEGATIVE),  # None picks the preset for the input shape
        "samples": (int, 500, AT_LEAST_1),
        **_schema(Damping),
        "save_adversarial": (bool, False, None),
    },
    "landscape": {
        "mode": (str, "line", one_of(("line", "plane", "interpolate"))),
        "radius": (float, 0.5, POSITIVE),
        "points": (int, 41, (lambda v: v >= 3 and v % 2 == 1, "odd and at least 3")),
        "seed": (int, 0, None),
        "direction": (str, "random", one_of(("random", "eigvec"))),
        "vectors": (str, None, None),
        "batch_size": (int, 512, AT_LEAST_1),
        "other_checkpoint": (str, None, None),
    },
    "sweep": {
        "batch_sizes": (list, [16, 64, 256, 1024], (lambda v: len(v) > 0 and min(v) >= 1,
                                                    "non-empty and at least 1 each")),
        "seeds": (list, [0, 1, 2], (lambda v: len(v) > 0, "non-empty")),
        "attack": (str, "fgsm", one_of(ATTACK_NORMS)),
        "eps": (float, None, NON_NEGATIVE),
        "eval_samples": (int, 1000, AT_LEAST_1),
    },
}

# Keys that a setting's value requires: {(section, setting): {value: keys}}.
_REQUIRED = {
    ("data", "kind"): {"native": ("path",), "idx": ("train_images", "train_labels",
                                                    "test_images", "test_labels")},
    ("landscape", "mode"): {"interpolate": ("other_checkpoint",)},
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
        # the rules that read two keys
        data, classes = sections["data"], PRESETS[model]().classes
        if data["kind"] == "blobs" and not 1 <= data["classes"] <= classes:
            raise ConfigError(f"data.classes must be in [1, {classes}] for "
                              f"model {model!r}, got {data['classes']}")
        # every kind keeps at most n_train training rows; a file may hold fewer,
        # which cmd_spectrum checks once the data is read
        sp = sections["spectrum"]
        if sp["target"] == "input" and not sp["sample_index"] < data["n_train"]:
            raise ConfigError(f"spectrum.sample_index must be below data.n_train "
                              f"({data['n_train']}), got {sp['sample_index']}")
        for (name, setting), needs in _REQUIRED.items():
            value = sections[name][setting]
            for key in needs.get(value, ()):
                if not sections[name][key]:
                    raise ConfigError(f"{name}.{key} is required for {setting} {value!r}")
        return cls(model, sections)

    def to_dict(self):
        out = {"model": self.model}
        for name in _SECTIONS:
            out[name] = copy.deepcopy(getattr(self, name))
        return out

    def train_config(self):
        return TrainConfig(model=self.model, **self.train)

    def damping(self):
        return Damping(**{f.name: self.attack[f.name] for f in fields(Damping)})

    def attack_eps(self, model):
        if self.attack["eps"] is not None:
            return float(self.attack["eps"])
        return eps_preset(model.in_shape, ATTACK_NORMS[self.attack["name"]])


def _apply_schema(section, schema, given):
    out = {k: copy.deepcopy(d) for k, (_, d, _) in schema.items()}
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown key {section}.{key}")
        typ, default, rule = schema[key]
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
            if not abs(value) <= sys.float_info.max:  # NaN fails too
                raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
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
        check_rule(rule, f"{section}.{key}", value, ConfigError)
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


def load_data(cfg, model, train_rows=None, test_rows=None):
    """Materialize the dataset a config describes, shaped for ``model``.

    ``train_rows`` (``test_rows``) says that the caller reads only that many
    leading training (test) samples: blobs then build only those and leave
    the other split empty (see :func:`~hesslens.dataio.synth_blobs`).  Files
    are read and checked whole either way.
    """
    d = cfg.data
    if d["kind"] == "blobs":
        return synth_blobs(d["n_train"], d["n_test"], in_shape=model.in_shape,
                           classes=d["classes"], seed=d["seed"],
                           separation=d["separation"], noise=d["noise"],
                           train_rows=train_rows, test_rows=test_rows)
    if d["kind"] == "native":
        ds, source = load_dataset(d["path"]), d["path"]
    else:
        ds = load_idx(d["train_images"], d["train_labels"], d["test_images"],
                      d["test_labels"])
        source = f"{d['train_images']} / {d['test_images']}"
    check_dataset(ds, model.in_shape, model.classes, source)
    return ds.subset(d["n_train"], d["n_test"])
