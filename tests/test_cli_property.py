"""Property test of the command line: every run ends in a documented way.

Hypothesis draws a command, a config whose keys (from ``config._SECTIONS``)
are each valid or invalid (wrong type, NaN or infinity, negative, or a huge
finite 1e300), and intact or damaged input files: the checkpoint,
``landscape.other_checkpoint``, ``landscape.vectors`` and native and IDX
datasets.  Whatever it draws, ``cli.main`` must

* exit 0, 1, 2, 3 or 4;
* on a non-zero exit, write exactly one stderr line (no traceback) and no
  warning;
* write no non-finite CSV cell unless training diverged (exit 2); the blank
  lambda1 cell of an untracked epoch is not a number and is allowed;
* leave no ``.tmp`` file behind;
* exit 1 when the input target's ``spectrum.sample_index`` is not below
  ``data.n_train``, whichever command runs and whatever file is damaged.

Valid draws stay tiny (k <= 2, max_iter <= 5, epochs <= 2, a few blobs), so
the whole test runs in a few seconds.  Integer keys are never drawn huge: a
huge ``n_train`` or ``k`` is a valid request for a huge allocation, not a
malformed one.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hesslens import dataio
from hesslens.attacks import ATTACK_NAMES
from hesslens.cli import main
from hesslens.config import _SECTIONS
from hesslens.dataio import Dataset, synth_blobs
from hesslens.nn import build_model
from hesslens.training import TrainConfig, TrainState, sgd_train

COMMANDS = ("train", "spectrum", "attack", "landscape", "sweep")
CHECKPOINTS = ("trained", "other", "huge")
IDX_FILES = {"train_images": "tri", "train_labels": "trl", "test_images": "tei",
             "test_labels": "tel"}

# A tiny valid run of every command; drawn keys override it.
BASE = {
    "data": {"n_train": 8, "n_test": 4, "separation": 3.0, "noise": 0.2},
    "train": {"batch_size": 8, "lr": 0.01, "epochs": 1, "target_loss": 5.0,
              "halve_every": 0},
    "spectrum": {"k": 1, "tol": 0.1, "max_iter": 3, "batch_size": 8},
    "attack": {"samples": 4},
    "landscape": {"radius": 0.1, "points": 3, "batch_size": 8},
    "sweep": {"batch_sizes": [8], "seeds": [0], "eval_samples": 4},
}


def _damage():
    """None (intact, half of the draws), or a cut or a byte flip at a
    fraction of the file."""
    frac = st.floats(0.0, 1.0)
    return st.one_of(st.none(), st.none(), st.tuples(st.just("cut"), frac),
                     st.tuples(st.just("flip"), frac, st.integers(1, 255)))


def _file(*names):
    return st.tuples(st.sampled_from(names + ("missing",)), _damage())


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


VALID = {
    ("data", "kind"): st.sampled_from(["blobs", "native", "idx"]),
    ("data", "n_train"): st.integers(1, 16),
    ("data", "n_test"): st.integers(1, 8),
    ("data", "classes"): st.integers(1, 10),
    ("data", "seed"): st.integers(0, 3),
    ("data", "separation"): _floats(0.0, 5.0),
    ("data", "noise"): _floats(0.0, 1.0),
    ("data", "path"): _file("native"),
    **{("data", key): _file(name) for key, name in IDX_FILES.items()},
    ("train", "batch_size"): st.integers(1, 16),
    ("train", "lr"): _floats(1e-4, 1.0),
    ("train", "momentum"): _floats(0.0, 0.99),
    ("train", "epochs"): st.integers(1, 2),
    ("train", "target_loss"): _floats(0.0, 5.0),
    ("train", "halve_every"): st.integers(0, 2),
    ("train", "seed"): st.integers(0, 3),
    ("train", "attack"): st.sampled_from((None,) + ATTACK_NAMES),
    ("train", "eps"): _floats(0.0, 0.3),
    ("train", "lambda1_every"): st.integers(0, 1),
    ("train", "lambda1_tol"): _floats(1e-3, 1.0),
    ("train", "lambda1_iters"): st.integers(1, 5),
    ("spectrum", "target"): st.sampled_from(["theta", "input"]),
    ("spectrum", "k"): st.integers(1, 2),
    ("spectrum", "tol"): _floats(1e-3, 1.0),
    ("spectrum", "max_iter"): st.integers(1, 5),
    ("spectrum", "seed"): st.integers(0, 3),
    ("spectrum", "batch_size"): st.integers(1, 16),
    ("spectrum", "sample_index"): st.integers(0, 20),
    ("spectrum", "save_vectors"): st.booleans(),
    ("attack", "name"): st.sampled_from(ATTACK_NAMES),
    ("attack", "eps"): st.one_of(st.none(), _floats(0.0, 0.5)),
    ("attack", "samples"): st.integers(1, 4),
    ("attack", "damping_scale"): _floats(0.0, 1.0),
    ("attack", "damping_floor"): _floats(1e-6, 1.0),
    ("attack", "save_adversarial"): st.booleans(),
    ("landscape", "mode"): st.sampled_from(["line", "plane", "interpolate"]),
    ("landscape", "radius"): _floats(1e-3, 1.0),
    ("landscape", "points"): st.sampled_from([3, 5]),
    ("landscape", "seed"): st.integers(0, 3),
    ("landscape", "direction"): st.sampled_from(["random", "eigvec"]),
    ("landscape", "vectors"): _file("vectors", "short"),
    ("landscape", "batch_size"): st.integers(1, 16),
    ("landscape", "other_checkpoint"): _file(*CHECKPOINTS),
    ("sweep", "batch_sizes"): st.lists(st.integers(1, 16), min_size=1, max_size=2),
    ("sweep", "seeds"): st.lists(st.integers(0, 1), min_size=1, max_size=1),
    ("sweep", "attack"): st.sampled_from(ATTACK_NAMES),
    ("sweep", "eps"): st.one_of(st.none(), _floats(0.0, 0.5)),
    ("sweep", "eval_samples"): st.integers(1, 4),
}

INVALID = {
    int: st.sampled_from(["1", 1.5, True, None, -1]),
    float: st.sampled_from(["1.0", True, None, math.nan, math.inf, -math.inf, -1.0,
                            1e300, -1e300]),
    str: st.sampled_from([3, 1.5, False, None, "bogus"]),
    bool: st.sampled_from([1, "true", None]),
    list: st.sampled_from(["8", [1.5], [True], [-1], [], [None]]),
}


@st.composite
def runs(draw):
    """A command, its checkpoint and a config of valid draws, in half of the
    runs with one key made invalid (one bad key already ends a run)."""
    config = {"model": draw(st.sampled_from(["m1_desk", "m1_desk", "c1_desk"]))}
    for section, schema in _SECTIONS.items():
        config[section] = dict(BASE[section])
        for key in draw(st.lists(st.sampled_from(sorted(schema)), max_size=3,
                                 unique=True)):
            config[section][key] = draw(VALID[section, key])
    if draw(st.booleans()):
        section, key = draw(st.sampled_from(sorted(VALID)))
        config[section][key] = draw(INVALID[_SECTIONS[section][key][0]])
    return {"command": draw(st.sampled_from(COMMANDS)), "config": config,
            "checkpoint": draw(_file(*CHECKPOINTS))}


def _write_idx(path, arr, magic):
    with open(path, "wb") as f:
        f.write(struct.pack(">" + "I" * (1 + arr.ndim), magic, *arr.shape))
        f.write(arr.astype(np.uint8).tobytes())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Intact input files: three m1_desk checkpoints, two eigenvector-shaped
    unit vectors, two unit rows of length 1 and native and IDX datasets of
    8 + 4 images."""
    root = tmp_path_factory.mktemp("inputs")
    model = build_model("m1_desk")
    blobs = synth_blobs(8, 4, in_shape=model.in_shape, classes=10, seed=0,
                        separation=3.0, noise=0.2)
    trained = sgd_train(model, blobs, TrainConfig(batch_size=8, lr=0.01, epochs=1))
    init = model.init_params(1)
    for name, state in (
            ("trained", trained.state),
            ("other", TrainState(init, np.zeros(init.size), {}, 0, None)),
            ("huge", TrainState(init.with_data(init.data * 1e80), np.zeros(init.size),
                                {}, 0, None))):
        dataio.save_checkpoint(str(root / name), model, state)
    vecs = np.random.default_rng(0).standard_normal((2, model.param_count))
    dataio.write_npy(str(root / "vectors"), vecs / np.linalg.norm(vecs, axis=1)[:, None])
    dataio.write_npy(str(root / "short"), np.ones((2, 1)))
    dataio.save_dataset(str(root / "native"), Dataset(
        "native", blobs.x_train, blobs.y_train, blobs.x_test, blobs.y_test))
    for name, x, y in (("tr", blobs.x_train, blobs.y_train),
                       ("te", blobs.x_test, blobs.y_test)):
        _write_idx(root / (name + "i"), np.round(x[:, 0] * 255), 0x803)
        _write_idx(root / (name + "l"), y, 0x801)
    return root


def _materialize(spec, files, tmp):
    """Path of a drawn file: the intact one, a damaged copy or a missing one."""
    name, damage = spec
    if name == "missing":
        return os.path.join(tmp, "missing")
    if damage is None:
        return str(files / name)
    raw = bytearray((files / name).read_bytes())
    at = min(int(damage[1] * len(raw)), len(raw) - 1)
    if damage[0] == "cut":
        raw = raw[:at]
    else:
        raw[at] ^= damage[2]
    path = os.path.join(tmp, "damaged-" + name)
    with open(path, "wb") as f:
        f.write(raw)
    return path


def _non_finite_cells(out):
    bad = []
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out, name)) as f:
            rows = [line for line in f.read().splitlines() if not line.startswith("#")]
        for row in rows[1:]:
            for cell in row.split(","):
                try:
                    value = float(cell)
                except ValueError:  # a label, a flag or the blank lambda1
                    continue
                if not math.isfinite(value):
                    bad.append(f"{name}: {row}")
    return bad


# Runs whose model passes overflow to nan, as explicit examples: train with
# lr 1e300, attacks on a checkpoint scaled by 1e80 and a landscape line at
# radius 1e200; an input spectrum of a sample past n_train with a missing
# checkpoint, which exited 4 when the index was checked after the read; and a
# plane along eigenvector rows of length 1, which broadcast and exited 0.
REPRODUCTIONS = [
    {"command": "train", "checkpoint": ("trained", None), "config": dict(
        BASE, model="m1_desk", data={"n_train": 32, "n_test": 8},
        train={"batch_size": 32, "lr": 1e300, "epochs": 1, "attack": attack,
               "eps": 0.1 if attack else 0.0})}
    for attack in (None, "fgsm")
] + [
    {"command": "attack", "checkpoint": ("huge", None),
     "config": dict(BASE, model="m1_desk", attack={"name": name, "samples": 4})}
    for name in ("fgsm", "fgsm10", "l2grad")
] + [
    {"command": "landscape", "checkpoint": ("trained", None), "config": dict(
        BASE, model="m1_desk", landscape={"radius": 1e200, "points": 3,
                                          "batch_size": 8})},
    {"command": "spectrum", "checkpoint": ("missing", None), "config": dict(
        BASE, model="m1_desk", spectrum={"target": "input", "sample_index": 50})},
    {"command": "landscape", "checkpoint": ("trained", None), "config": dict(
        BASE, model="m1_desk", landscape={"radius": 0.1, "points": 3, "batch_size": 8,
                                          "mode": "plane", "direction": "eigvec",
                                          "vectors": ("short", None)})},
]


def _index_past_n_train(config):
    """Whether an input target's ``sample_index`` reaches ``n_train``."""
    data, sp = config["data"], config["spectrum"]
    index, rows = sp.get("sample_index", 0), data["n_train"]
    return (sp.get("target") == "input" and type(index) is int and type(rows) is int
            and index >= rows)


def _short_eigvecs(run):
    """Whether a landscape run scans along the rows of length 1."""
    ls = run["config"]["landscape"]
    return (run["command"] == "landscape" and ls.get("direction") == "eigvec"
            and ls.get("mode", "line") != "interpolate"
            and isinstance(ls.get("vectors"), tuple) and ls["vectors"][0] == "short")


def _with_examples(test):
    for run in REPRODUCTIONS:
        test = example(run=run)(test)
    return test


def test_every_config_key_has_valid_draws():
    assert set(VALID) == {(s, k) for s, schema in _SECTIONS.items() for k in schema}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@_with_examples
@given(run=runs())
def test_every_run_ends_in_a_documented_way(files, run):
    with tempfile.TemporaryDirectory() as tmp:
        short = _short_eigvecs(run)
        config = run["config"]
        for section in ("data", "landscape"):
            for key, value in config[section].items():
                if isinstance(value, tuple):  # a drawn file
                    config[section][key] = _materialize(value, files, tmp)
        if config["data"].get("kind") in ("native", "idx"):
            for key, name in [("path", "native"), *IDX_FILES.items()]:
                config["data"].setdefault(key, str(files / name))
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(config, f)
        out = os.path.join(tmp, "out")
        argv = [run["command"], "--config", path, "--out", out]
        if run["command"] in ("spectrum", "attack", "landscape"):
            argv += ["--checkpoint", _materialize(run["checkpoint"], files, tmp)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        err = err.getvalue()
        event(f"{run['command']} exits {code}")
        assert code in (0, 1, 2, 3, 4), (argv, config)
        if _index_past_n_train(config):
            assert code == 1, (argv, config)
        if short:
            assert code != 0, (argv, config)
        if code != 0:
            assert err.startswith("hesslens: ") or err.startswith(run["command"] + ": ")
            assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not caught, [str(w.message) for w in caught]
        if code != 2:
            assert not _non_finite_cells(out), (code, config)
        left = [name for _, _, names in os.walk(out) for name in names
                if name.endswith(".tmp")]
        assert not left
