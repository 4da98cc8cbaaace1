"""The demo configs and the README walkthrough that runs them.

``demos/*.json`` are the configs of the README's "Demos" walkthrough.  Each
loads unchanged, the walkthrough names each of them and no other, and every
walkthrough command runs through ``cli.main``, in the README's order, on
shrunk copies: the same sections with a few hundred blobs and 2 epochs, and
every key that asks for rows cut to the rows those blobs hold.  The
copies sit under ``demos/`` in a scratch directory that is the working
directory, so the commands' ``runs/...`` paths resolve as they do from the
repository root.
"""

import json
import os
import shlex

import numpy as np

from hesslens.cli import main
from hesslens.config import _SECTIONS, load_config
from hesslens.landscape import quadratic_coefficient

from oracles import read_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = {"n_train": 256, "n_test": 64}
SHRINK = {"data": ROWS, "train": {"epochs": 2}}
# the keys that ask for rows, cut to the rows of the shrunk data, since a
# command refuses a key above them: {(section, key): split}
ROW_KEYS = {("train", "batch_size"): "n_train", ("spectrum", "batch_size"): "n_train",
            ("landscape", "batch_size"): "n_train", ("attack", "samples"): "n_test",
            ("sweep", "batch_sizes"): "n_train", ("sweep", "eval_samples"): "n_test"}
# 2 epochs do not reach the demos' target loss of 0.01, so every training
# run ends unconverged: `train` and `sweep` exit 3, every other command 0
UNCONVERGED = {"train": 3, "sweep": 3}


def walkthrough():
    """argv of each ``hesslens`` command in the README that reads a demo config."""
    with open(os.path.join(ROOT, "README.md")) as f:
        return [shlex.split(line)[1:] for line in f
                if line.startswith("hesslens ") and "--config demos/" in line]


def option(argv, name):
    return argv[argv.index(name) + 1]


def demo_files():
    return sorted(os.listdir(os.path.join(ROOT, "demos")))


def test_demos_hold_only_configs_and_each_loads():
    assert demo_files() and all(name.endswith(".json") for name in demo_files())
    for name in demo_files():
        load_config(os.path.join(ROOT, "demos", name))


def test_walkthrough_names_every_demo_config_and_no_other():
    named = {option(argv, "--config") for argv in walkthrough()}
    assert named == {f"demos/{name}" for name in demo_files()}


def test_walkthrough_runs_on_shrunk_configs(tmp_path, monkeypatch):
    (tmp_path / "demos").mkdir()
    for name in demo_files():
        with open(os.path.join(ROOT, "demos", name)) as f:
            cfg = json.load(f)
        for section, values in SHRINK.items():
            if section in cfg:
                cfg[section].update(values)
        for (section, key), split in ROW_KEYS.items():
            if section in cfg:
                value = cfg[section].get(key, _SECTIONS[section][key][1])
                cfg[section][key] = ([min(v, ROWS[split]) for v in value]
                                     if isinstance(value, list) else min(value, ROWS[split]))
        (tmp_path / "demos" / name).write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    fits = 0
    for argv in walkthrough():
        assert main(argv) == UNCONVERGED.get(argv[0], 0), shlex.join(argv)
        out = option(argv, "--out")
        if argv[0] != "landscape":
            continue
        with open(os.path.join(out, "landscape.json")) as f:
            summary = json.load(f)
        if summary["mode"] == "line":
            _, _, rows = read_csv(os.path.join(out, "landscape.csv"))
            fit = quadratic_coefficient([float(r["t"]) for r in rows],
                                        [float(r["loss"]) for r in rows])
            assert np.isfinite(fit) and summary["second_derivative"] == fit
            fits += 1
    assert fits == 1
