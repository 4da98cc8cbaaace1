"""End-to-end command tests: exit codes, artifacts, and rerun determinism."""

import errno
import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import hesslens
from hesslens import cli, dataio
from hesslens.attacks import Damping, evaluate_adversarial
from hesslens.cli import main
from hesslens.config import _SECTIONS, load_config, load_data
from hesslens.dataio import load_dataset
from hesslens.nn import build_model
from hesslens.spectrum import theta_spectrum
from hesslens.training import TrainConfig, TrainState

from oracles import read_csv


def write_config(tmp_path, name="cfg.json", **overrides):
    """A config small enough that every command finishes in seconds."""
    cfg = {
        "model": "m1_desk",
        "data": {"n_train": 64, "n_test": 32, "separation": 3.0, "noise": 0.2,
                 "seed": 0},
        "train": {"batch_size": 32, "lr": 0.01, "epochs": 2,
                  "target_loss": 5.0, "halve_every": 0, "seed": 0},
        "spectrum": {"k": 2, "tol": 1e-2, "max_iter": 150, "batch_size": 64},
        "attack": {"samples": 8},
        "landscape": {"radius": 0.1, "points": 5, "batch_size": 64},
        "sweep": {"batch_sizes": [16, 32], "seeds": [0], "eval_samples": 16},
    }
    for section, values in overrides.items():
        if isinstance(values, dict):
            cfg.setdefault(section, {}).update(values)
        else:
            cfg[section] = values
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One trained checkpoint shared by the analysis-command tests."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root)
    out = root / "run"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    return {"config": config, "out": out,
            "checkpoint": str(out / "checkpoint.bin"), "root": root}


# ------------------------------------------------------------------- train


def test_train_writes_artifacts(trained):
    out = trained["out"]
    assert (out / "checkpoint.bin").exists()
    assert (out / "metrics.csv").exists()
    run = json.loads((out / "run.json").read_text())
    assert run["converged"] is True
    assert run["command"] == "train"
    assert "elapsed_seconds" in run
    comments, fields, rows = read_csv(out / "metrics.csv")
    assert fields == ["epoch", "lr", "train_loss", "train_acc", "test_loss",
                      "test_acc", "lambda1"]
    assert len(rows) == run["epochs_run"]
    assert any(c.startswith("tool=hesslens") for c in comments)
    # wall-clock timing must never leak into the deterministic CSV
    assert not any("elapsed" in c for c in comments)


def test_train_rerun_is_byte_identical(tmp_path):
    config = write_config(tmp_path)
    main(["train", "--config", config, "--out", str(tmp_path / "a")])
    main(["train", "--config", config, "--out", str(tmp_path / "b")])
    for name in ("metrics.csv", "checkpoint.bin"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    # run.json carries timing, so it is allowed to differ; the summary is not
    a = json.loads((tmp_path / "a" / "run.json").read_text())
    b = json.loads((tmp_path / "b" / "run.json").read_text())
    for volatile in ("elapsed_seconds",):
        a.pop(volatile), b.pop(volatile)
    assert a == b


def test_checkpoint_does_not_depend_on_unrelated_config(tmp_path):
    runs = []
    for k in (2, 3):
        config = write_config(tmp_path, name=f"k{k}.json", spectrum={"k": k})
        out = tmp_path / f"k{k}"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        runs.append(((out / "checkpoint.bin").read_bytes(),
                     json.loads((out / "run.json").read_text())["checkpoint_sha256"]))
    assert runs[0] == runs[1]


def test_train_seed_override_changes_checkpoint(tmp_path):
    config = write_config(tmp_path)
    main(["train", "--config", config, "--out", str(tmp_path / "a")])
    main(["train", "--config", config, "--out", str(tmp_path / "b"),
          "--seed", "1"])
    assert ((tmp_path / "a" / "checkpoint.bin").read_bytes()
            != (tmp_path / "b" / "checkpoint.bin").read_bytes())


def test_train_unreached_target_exits_3_but_writes(tmp_path):
    config = write_config(tmp_path, train={"target_loss": 1e-9, "epochs": 1})
    out = tmp_path / "out"
    assert main(["train", "--config", config, "--out", str(out)]) == 3
    assert (out / "checkpoint.bin").exists()
    assert json.loads((out / "run.json").read_text())["converged"] is False


def test_train_divergence_exits_2(tmp_path):
    config = write_config(tmp_path, train={"lr": 1e6, "epochs": 3})
    assert main(["train", "--config", config, "--out",
                 str(tmp_path / "out")]) == 2


def one_line_failure(argv, capsys):
    """Exit code of ``main(argv)`` and its stderr, asserting that the
    failure is one line: no traceback and no floating-point warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code != 0 and not caught
    assert err.startswith("hesslens: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("attack", [None, "fgsm"])
def test_train_overflowing_learning_rate_exits_2_without_metrics(tmp_path, capsys,
                                                                 attack):
    config = write_config(tmp_path, data={"n_train": 32, "n_test": 8},
                          train={"lr": 1e300, "epochs": 1, "attack": attack,
                                 "eps": 0.1 if attack else 0.0})
    out = tmp_path / "out"
    code, err = one_line_failure(["train", "--config", config, "--out", str(out)],
                                 capsys)
    assert code == 2 and "non-finite value at epoch 0" in err
    assert not (out / "metrics.csv").exists()


# ---------------------------------------------------------------- spectrum


def test_spectrum_theta(trained, tmp_path):
    out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"save_vectors": True})
    code = main(["spectrum", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]])
    assert code in (0, 3)  # loose-tolerance convergence is not guaranteed
    comments, fields, rows = read_csv(out / "spectrum.csv")
    assert fields == ["index", "eigenvalue", "iterations", "converged", "residual",
                      "hvps"]
    assert len(rows) == 2
    summary = json.loads((out / "spectrum.json").read_text())
    assert [float(r["residual"]) for r in rows] == summary["residuals"]
    assert [int(r["hvps"]) for r in rows] == [summary["hvps"]] * 2
    vecs = np.load(out / "vectors.npy")
    assert vecs.shape == (2, 54314)
    summary = json.loads((out / "spectrum.json").read_text())
    assert summary["target"] == "theta" and summary["dim"] == 54314
    assert len(summary["eigenvalues"]) == 2


def test_spectrum_json_reports_certificates(trained, tmp_path):
    out = tmp_path / "spec"
    config = write_config(tmp_path)
    main(["spectrum", "--config", config, "--out", str(out),
          "--checkpoint", trained["checkpoint"]])
    summary = json.loads((out / "spectrum.json").read_text())
    _, _, rows = read_csv(out / "spectrum.csv")
    assert len(summary["residuals"]) == 2
    assert all(r >= 0.0 for r in summary["residuals"])
    assert [int(r["iterations"]) for r in rows] == [summary["hvps"]] * 2
    assert 2 <= summary["hvps"] <= 150


def test_spectrum_input(trained, tmp_path):
    out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"target": "input",
                                              "sample_index": 3, "k": 3})
    code = main(["spectrum", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]])
    assert code in (0, 3)
    summary = json.loads((out / "spectrum.json").read_text())
    assert summary["dim"] == 784
    # the input Hessian is positive semi-definite by construction
    assert all(v >= -1e-8 for v in summary["eigenvalues"])


def test_spectrum_input_is_exact_without_products(trained, tmp_path):
    out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"target": "input",
                                              "sample_index": 3, "k": 12})
    assert main(["spectrum", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    summary = json.loads((out / "spectrum.json").read_text())
    _, _, rows = read_csv(out / "spectrum.csv")
    assert summary["hvps"] == 0 and summary["converged_all"] is True
    assert [r["iterations"] for r in rows] == ["0"] * 12
    # rank at most classes - 1: the tail is exactly zero
    assert [float(r["eigenvalue"]) for r in rows[9:]] == [0.0] * 3


@pytest.mark.parametrize("command,overrides,rows,files", [
    ("spectrum", {"spectrum": {"save_vectors": True}}, 64, ("spectrum.csv", "vectors.npy")),
    ("spectrum", {"spectrum": {"target": "input", "sample_index": 70, "k": 3,
                               "save_vectors": True}}, 71, ("spectrum.csv", "vectors.npy")),
    ("landscape", {}, 64, ("landscape.csv",))])
def test_analysis_commands_build_only_the_rows_they_read(trained, tmp_path, monkeypatch,
                                                          command, overrides, rows, files):
    from hesslens import config as config_module

    config = write_config(tmp_path, data={"n_train": 200}, **overrides)
    argv = [command, "--config", config, "--checkpoint", trained["checkpoint"], "--out"]
    built = []
    synth = config_module.synth_blobs

    def spy(*args, **kwargs):
        ds = synth(*args, **kwargs)
        built.append((len(ds.x_train), len(ds.x_test)))
        return ds

    monkeypatch.setattr(config_module, "synth_blobs", spy)
    assert main(argv + [str(tmp_path / "prefix")]) in (0, 3)
    assert built == [(rows, 0)]  # the test split is never drawn
    load = cli.load_data
    monkeypatch.setattr(cli, "load_data", lambda cfg, model, train_rows=None: load(cfg, model))
    assert main(argv + [str(tmp_path / "full")]) in (0, 3)
    assert built[1] == (200, 32)
    for name in files:
        assert ((tmp_path / "prefix" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes())


def test_spectrum_bad_sample_index_exits_1(trained, tmp_path):
    config = write_config(tmp_path, spectrum={"target": "input",
                                              "sample_index": 100000})
    assert main(["spectrum", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 trained["checkpoint"]]) == 1


def test_spectrum_sample_index_past_a_short_file_exits_1(trained, tmp_path, capsys):
    # below data.n_train, so the config loads; the file holds only 64 rows
    ds = dataio.synth_blobs(64, 32, seed=0)
    path = tmp_path / "short.bin"
    dataio.save_dataset(str(path), ds)
    config = write_config(tmp_path, data={"kind": "native", "path": str(path),
                                          "n_train": 100},
                          spectrum={"target": "input", "sample_index": 70})
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", trained["checkpoint"]]) == 1
    err = capsys.readouterr().err
    assert "spectrum.sample_index 70 out of range" in err and err.count("\n") == 1


# ------------------------------------------------------------------ attack


def test_attack_fgsm(trained, tmp_path):
    out = tmp_path / "atk"
    config = write_config(tmp_path, attack={"save_adversarial": True})
    assert main(["attack", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    summary = json.loads((out / "attack.json").read_text())
    assert summary["attack"] == "fgsm"
    assert summary["eps"] == 0.1  # preset for 1x28x28 inputs
    assert 0.0 <= summary["adversarial_accuracy"] <= summary["clean_accuracy"]
    comments, fields, rows = read_csv(out / "attack.csv")
    assert len(rows) == 8
    assert fields == ["index", "label", "pre_clamp_norm"]
    adv = load_dataset(out / "adversarial.bin")
    assert adv.x_train.shape == (8, 1, 28, 28)
    assert adv.meta["kind"] == "adversarial"
    assert float(np.max(np.abs(adv.x_train - adv.x_test))) <= 0.1 + 1e-12


def test_attack_l2hess_records_cg(trained, tmp_path):
    out = tmp_path / "atk"
    config = write_config(tmp_path, attack={"name": "l2hess", "samples": 2})
    code = main(["attack", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]])
    assert code == 0
    _, fields, rows = read_csv(out / "attack.csv")
    assert len(rows) == 2
    assert fields == ["index", "label", "pre_clamp_norm"]
    summary = json.loads((out / "attack.json").read_text())
    assert summary["norm"] == "l2" and summary["eps"] == 2.8
    assert not any(key.startswith("all_cg") for key in summary)


def test_fhsm_rerun_is_byte_identical(trained, tmp_path):
    # l2hess reruns are covered by acceptance criterion 10
    config = write_config(tmp_path, attack={"name": "fhsm", "samples": 4,
                                            "save_adversarial": True})
    for run in ("a", "b"):
        assert main(["attack", "--config", config, "--out", str(tmp_path / run),
                     "--checkpoint", trained["checkpoint"]]) == 0
    for artifact in ("attack.csv", "adversarial.bin"):
        assert ((tmp_path / "a" / artifact).read_bytes()
                == (tmp_path / "b" / artifact).read_bytes())


def _scaled_checkpoint(path, scale):
    """``init_params(0)`` times ``scale``: finite, so it passes every load
    check, but a large scale overflows a model pass."""
    model = build_model("m1_desk")
    theta = model.init_params(0)
    state = TrainState(theta.with_data(theta.data * scale), np.zeros(theta.size),
                       {}, 0, None)
    dataio.save_checkpoint(str(path), model, state)
    return str(path)


@pytest.mark.parametrize("name", ["fgsm", "fgsm10", "l2grad", "fhsm"])
def test_attack_with_overflowing_logits_exits_4_without_csv(tmp_path, capsys, name):
    ck = _scaled_checkpoint(tmp_path / "huge.bin", 1e80)
    config = write_config(tmp_path, attack={"name": name, "samples": 4})
    out = tmp_path / "o"
    code, err = one_line_failure(["attack", "--config", config, "--out", str(out),
                                  "--checkpoint", ck], capsys)
    assert code == 4 and "non-finite forward value" in err
    assert not (out / "attack.csv").exists()


def test_l2grad_with_overflowing_gradient_length_exits_4(tmp_path, capsys):
    ck = _scaled_checkpoint(tmp_path / "big.bin", 1e40)
    config = write_config(tmp_path, attack={"name": "l2grad", "samples": 4})
    out = tmp_path / "o"
    code, err = one_line_failure(["attack", "--config", config, "--out", str(out),
                                  "--checkpoint", ck], capsys)
    assert code == 4
    assert err == ("hesslens: non-finite length of the input gradient for "
                   "sample index 0\n")
    assert not (out / "attack.csv").exists()


def test_l2hess_under_a_huge_damping_steps_the_full_length(tmp_path):
    # the Newton direction tends to g / mu; at mu ~ 1e200 its squared length
    # underflows to 0, which once read as a zero direction
    ck = _scaled_checkpoint(tmp_path / "init.bin", 1.0)
    config = write_config(tmp_path, attack={"name": "l2hess", "samples": 4,
                                            "damping_scale": 1e200})
    out = tmp_path / "o"
    assert main(["attack", "--config", config, "--out", str(out),
                 "--checkpoint", ck]) == 0
    _, _, rows = read_csv(out / "attack.csv")
    assert len(rows) == 4
    assert [float(r["pre_clamp_norm"]) for r in rows] == pytest.approx([2.8] * 4, rel=1e-12)


def test_attack_unknown_name_exits_1(trained, tmp_path):
    config = write_config(tmp_path, attack={"name": "deepfool"})
    assert main(["attack", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", trained["checkpoint"]]) == 1


# --------------------------------------------------------------- landscape


def test_landscape_line_random(trained, tmp_path):
    out = tmp_path / "land"
    config = write_config(tmp_path)
    assert main(["landscape", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    _, fields, rows = read_csv(out / "landscape.csv")
    assert fields == ["t", "loss"] and len(rows) == 5
    summary = json.loads((out / "landscape.json").read_text())
    assert summary["mode"] == "line"
    assert rows[2]["loss"] == repr(summary["base_loss"])


def test_landscape_overflowing_radius_exits_4_without_csv(trained, tmp_path, capsys):
    config = write_config(tmp_path, landscape={"radius": 1e200, "points": 3})
    out = tmp_path / "land"
    code, err = one_line_failure(["landscape", "--config", config, "--out", str(out),
                                  "--checkpoint", trained["checkpoint"]], capsys)
    assert code == 4 and "non-finite forward value" in err
    assert not (out / "landscape.csv").exists()


def test_landscape_eigvec_without_vectors_exits_4(trained, tmp_path, capsys):
    config = write_config(tmp_path, landscape={"direction": "eigvec"})
    code = main(["landscape", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint", trained["checkpoint"]])
    assert code == 4
    assert "spectrum" in capsys.readouterr().err  # points at the producer


@pytest.mark.parametrize("damage", ["nan", "inf", "strings", "objects", "garbage",
                                    "truncated", "npz"])
def test_landscape_bad_eigvec_file_exits_4_and_writes_nothing(trained, tmp_path, capsys,
                                                              damage):
    vectors = tmp_path / "vectors.npy"
    p = build_model("m1_desk").param_count
    if damage == "garbage":
        vectors.write_bytes(b"not an array file")
    elif damage == "truncated":
        np.save(vectors, np.zeros((2, p)))
        vectors.write_bytes(vectors.read_bytes()[:1000])
    elif damage == "npz":
        with open(vectors, "wb") as f:
            np.savez(f, v=np.zeros((2, p)))
    elif damage == "objects":
        np.save(vectors, np.full((2, p), None, dtype=object), allow_pickle=True)
    else:
        values = {"nan": np.nan, "inf": np.inf, "strings": "x"}[damage]
        np.save(vectors, np.full((2, p), values))
    config = write_config(tmp_path, landscape={"direction": "eigvec",
                                               "vectors": str(vectors)})
    out = tmp_path / "o"
    assert main(["landscape", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 4
    err = capsys.readouterr().err
    assert str(vectors) in err and err.count("\n") == 1
    assert not (out / "landscape.csv").exists()


@pytest.mark.parametrize("mode", ["line", "plane"])
@pytest.mark.parametrize("model", [None, "c1_desk"])
def test_landscape_eigvecs_of_another_length_exit_4(trained, tmp_path, capsys, mode,
                                                    model):
    # rows of length 1 broadcast over every parameter, and a plane scan wrote
    # them to landscape.csv with exit 0; another model's rows ended in a
    # traceback
    length = build_model(model).param_count if model else 1
    vectors = tmp_path / "vectors.npy"
    np.save(vectors, np.ones((2, length)))
    config = write_config(tmp_path, landscape={"mode": mode, "direction": "eigvec",
                                               "vectors": str(vectors), "points": 3})
    out = tmp_path / "o"
    code, err = one_line_failure(["landscape", "--config", config, "--out", str(out),
                                  "--checkpoint", trained["checkpoint"]], capsys)
    assert code == 4 and str(vectors) in err and f"length {length}," in err
    assert not (out / "landscape.csv").exists()


def test_landscape_plane_along_eigvecs(trained, tmp_path):
    spec_out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"save_vectors": True})
    main(["spectrum", "--config", config, "--out", str(spec_out),
          "--checkpoint", trained["checkpoint"]])
    out = tmp_path / "land"
    config = write_config(tmp_path, name="cfg2.json",
                          landscape={"mode": "plane", "direction": "eigvec",
                                     "vectors": str(spec_out / "vectors.npy"),
                                     "points": 3})
    assert main(["landscape", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    _, fields, rows = read_csv(out / "landscape.csv")
    assert fields == ["i", "j", "t1", "t2", "loss"] and len(rows) == 9


def test_landscape_interpolate(trained, tmp_path):
    other_out = tmp_path / "other"
    config = write_config(tmp_path)
    main(["train", "--config", config, "--out", str(other_out), "--seed", "1"])
    out = tmp_path / "land"
    # at the default 41 points the grid over [-0.25, 1.25] does not hold t = 0
    config2 = write_config(tmp_path, name="cfg2.json",
                           landscape={"mode": "interpolate", "points": 41,
                                      "other_checkpoint":
                                          str(other_out / "checkpoint.bin")})
    assert main(["landscape", "--config", config2, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    _, _, rows = read_csv(out / "landscape.csv")
    assert len(rows) == 41
    _, state = dataio.load_checkpoint(trained["checkpoint"])
    cfg = load_config(config2)
    model = build_model(cfg.model)
    data = load_data(cfg, model)
    first, _ = model.loss_and_accuracy(state.theta, data.x_train[:64], data.y_train[:64],
                                       bn_state=state.bn_state)
    summary = json.loads((out / "landscape.json").read_text())
    assert summary["base_loss"] == first


def test_landscape_interpolate_missing_other_exits_1(trained, tmp_path):
    config = write_config(tmp_path, landscape={"mode": "interpolate"})
    assert main(["landscape", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 trained["checkpoint"]]) == 1


def test_landscape_interpolate_other_of_another_model_exits_1(trained, tmp_path, capsys):
    other = tmp_path / "c1.bin"
    model = build_model("c1_desk")
    theta = model.init_params(0)
    dataio.save_checkpoint(str(other), model, TrainState(
        theta, np.zeros(theta.size), model.new_bn_state(), 0, None))
    config = write_config(tmp_path, landscape={"mode": "interpolate",
                                               "other_checkpoint": str(other)})
    assert main(["landscape", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", trained["checkpoint"]]) == 1
    err = capsys.readouterr().err
    assert "'m1_desk'" in err and "'c1_desk'" in err and err.count("\n") == 1


@pytest.mark.parametrize("command,artifact", [("spectrum", "spectrum.csv"),
                                              ("landscape", "landscape.csv")])
def test_seed_flag_writes_what_the_section_seed_writes(trained, tmp_path, command,
                                                       artifact):
    runs = {}
    for name, seed, argv_seed in (("flag", 0, ["--seed", "1"]), ("config", 1, []),
                                  ("default", 0, [])):
        config = write_config(tmp_path, name=f"{name}.json", **{command: {"seed": seed}})
        out = tmp_path / name
        assert main([command, "--config", config, "--out", str(out), "--checkpoint",
                     trained["checkpoint"], *argv_seed]) in (0, 3)
        runs[name] = (out / artifact).read_bytes()
    assert runs["flag"] == runs["config"] != runs["default"]


# ------------------------------------------------------------------- sweep


def test_sweep(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    comments, fields, rows = read_csv(out / "sweep.csv")
    assert fields == ["batch_size", "seed", "epochs", "train_loss", "lambda1",
                      "clean_acc", "adv_acc"]
    assert [(r["batch_size"], r["seed"]) for r in rows] == [("16", "0"),
                                                            ("32", "0")]
    assert any(c == "eps=0.1" for c in comments)


def test_sweep_passes_the_configured_damping(tmp_path, monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("damping"))
        return evaluate_adversarial(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_adversarial", recording)
    config = write_config(tmp_path, attack={"damping_scale": 0.5,
                                            "damping_floor": 0.25},
                          sweep={"attack": "fhsm", "eval_samples": 4})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert seen == [Damping(damping_scale=0.5, damping_floor=0.25)] * 2


def test_sweep_unreached_target_exits_3_with_one_stderr_line(tmp_path, capsys):
    config = write_config(tmp_path, train={"epochs": 1, "target_loss": 1e-4},
                          sweep={"batch_sizes": [16]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "sweep: 1 of 1 runs did not reach target loss 0.0001\n"
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("target_loss,line", [
    (5.0, "sweep: 1 of 1 lambda1 solves did not converge\n"),
    (1e-4, "sweep: 1 of 1 runs did not reach target loss 0.0001; "
           "1 of 1 lambda1 solves did not converge\n")], ids=["lambda1", "both"])
def test_sweep_unconverged_lambda1_exits_3_with_one_stderr_line(tmp_path, capsys,
                                                                monkeypatch,
                                                                target_loss, line):
    def one_product(*args, **kwargs):
        return theta_spectrum(*args, **dict(kwargs, max_iter=1))

    monkeypatch.setattr(cli, "theta_spectrum", one_product)
    config = write_config(tmp_path, train={"epochs": 1, "target_loss": target_loss},
                          sweep={"batch_sizes": [16]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 3
    assert capsys.readouterr().err == line
    _, fields, rows = read_csv(out / "sweep.csv")
    assert fields == ["batch_size", "seed", "epochs", "train_loss", "lambda1",
                      "clean_acc", "adv_acc"] and len(rows) == 1


# ----------------------------------------------------------- failure modes


def test_unknown_config_key_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trian": {}}))
    assert main(["train", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("section,key,value", [
    ("spectrum", "k", 0), ("spectrum", "tol", 0.0), ("spectrum", "tol", -1.0),
    ("spectrum", "max_iter", 0), ("train", "lambda1_tol", -1.0),
    ("train", "lambda1_iters", 0)])
def test_bad_eigensolver_setting_exits_1(tmp_path, capsys, section, key, value):
    config = write_config(tmp_path, **{section: {key: value}})
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "unused.bin")]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("samples", 0), ("cg_tol", 0.0), ("cg_tol", -1.0), ("cg_max_iter", 0),
    ("cg_tol", 1e-6), ("cg_max_iter", 50),  # removed keys, even at valid values
    ("damping_scale", -1.0), ("damping_scale", float("nan")),
    ("damping_floor", 0.0), ("damping_floor", -1.0),
    ("damping_floor", float("nan")), ("damping_floor", float("inf"))])
def test_bad_attack_setting_exits_1(tmp_path, capsys, key, value):
    config = write_config(tmp_path, attack={"name": "l2hess", key: value})
    assert main(["attack", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "unused.bin")]) == 1
    err = capsys.readouterr().err
    assert f"attack.{key}" in err and err.count("\n") == 1


# One out-of-range value for every TrainConfig field the config sets.
BAD_TRAIN = {"batch_size": 0, "lr": -1.0, "momentum": 1.0, "epochs": 0,
             "target_loss": float("nan"), "halve_every": -1, "seed": 0.5,
             "attack": "pgd", "eps": -0.5, "lambda1_every": -1,
             "lambda1_tol": 0.0, "lambda1_iters": 0}


@pytest.mark.parametrize("command,section,key,value", [
    *[(command, section, key, "foo") for command in cli._COMMANDS
      for section, key in (("data", "kind"), ("spectrum", "target"),
                           ("landscape", "mode"), ("landscape", "direction"))],
    ("train", "data", "n_train", 0), ("train", "data", "n_train", -1),
    ("train", "data", "n_test", 0), ("landscape", "data", "n_train", 0),
    ("train", "data", "noise", -0.1), ("train", "data", "separation", -1.0),
    ("spectrum", "spectrum", "sample_index", -1), ("spectrum", "spectrum", "batch_size", 0),
    ("landscape", "landscape", "batch_size", 0), ("landscape", "landscape", "points", 0),
    ("landscape", "landscape", "radius", 0.0), ("landscape", "landscape", "radius", -0.1),
    ("landscape", "landscape", "points", 4), ("sweep", "sweep", "eval_samples", 0),
    ("attack", "attack", "name", "pgd"), ("sweep", "sweep", "attack", "pgd"),
    ("attack", "attack", "eps", -0.1), ("sweep", "sweep", "eps", -0.1),
    *[(command, "train", f.name, BAD_TRAIN[f.name]) for command in ("train", "sweep")
      for f in fields(TrainConfig) if f.name != "model"],
    *[("train", "attack", key, value) for key, value in [
        ("damping_scale", -1.0), ("damping_scale", float("nan")),
        ("damping_floor", 0.0), ("damping_floor", -1.0),
        ("damping_floor", float("nan")), ("damping_floor", float("inf"))]],
    *[("train", section, key, value) for section, schema in _SECTIONS.items()
      for key, (typ, *_) in schema.items() if typ is float
      for value in (float("nan"), float("inf"), -float("inf"))]])
def test_bad_size_or_attack_name_exits_1_before_any_data(tmp_path, capsys, monkeypatch,
                                                         command, section, key, value):
    def no_data(*args, **kwargs):
        raise AssertionError("data or checkpoint read before the config was checked")

    monkeypatch.setattr(cli, "load_data", no_data)
    monkeypatch.setattr(cli, "load_checkpoint", no_data)
    config = write_config(tmp_path, **{section: {key: value}})
    argv = [command, "--config", config, "--out", str(tmp_path / "o")]
    if command not in ("train", "sweep"):
        argv += ["--checkpoint", str(tmp_path / "unused.bin")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and err.count("\n") == 1


# For each rule that reads two keys, the key it names and a config breaking it.
TWO_KEY_RULES = {
    "data.path": {"data": {"kind": "native"}},
    "data.test_labels": {"data": {"kind": "idx", "train_images": "tri",
                                  "train_labels": "trl", "test_images": "tei"}},
    "data.classes": {"data": {"classes": 11}},
    "landscape.other_checkpoint": {"landscape": {"mode": "interpolate"}},
    "spectrum.sample_index": {"data": {"n_train": 8},
                              "spectrum": {"target": "input", "sample_index": 50}},
}


@pytest.mark.parametrize("command", ["spectrum", "attack", "landscape"])
@pytest.mark.parametrize("key", sorted(TWO_KEY_RULES))
def test_two_key_rule_exits_1_before_any_data(tmp_path, capsys, monkeypatch, command,
                                              key):
    def no_data(*args, **kwargs):
        raise AssertionError("data or checkpoint read before the config was checked")

    monkeypatch.setattr(cli, "load_data", no_data)
    monkeypatch.setattr(cli, "load_checkpoint", no_data)
    config = write_config(tmp_path, **TWO_KEY_RULES[key])
    assert main([command, "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "unused.bin")]) == 1
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1


def test_train_refuses_interpolate_without_other_checkpoint(tmp_path, capsys):
    # every landscape rule holds for every command, not only for landscape
    config = write_config(tmp_path, landscape={"mode": "interpolate"})
    out = tmp_path / "o"
    assert main(["train", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "landscape.other_checkpoint" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("classes", [12, 0])
def test_blob_classes_outside_the_model_exit_1(tmp_path, capsys, classes):
    config = write_config(tmp_path, data={"classes": classes})
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "data.classes" in err and err.count("\n") == 1


def test_invalid_json_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 1


def test_missing_config_exits_1(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "o")]) == 1


def test_missing_checkpoint_exits_4(tmp_path):
    config = write_config(tmp_path)
    assert main(["spectrum", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 str(tmp_path / "nope.bin")]) == 4


def test_corrupt_checkpoint_exits_4(trained, tmp_path):
    config = write_config(tmp_path)
    raw = bytearray((trained["out"] / "checkpoint.bin").read_bytes())
    raw[-1] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    assert main(["spectrum", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint", str(bad)]) == 4


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _rewrite_header(raw, edit):
    (hlen,) = struct.unpack("<Q", raw[8:16])
    hb = json.dumps(edit(json.loads(raw[16 : 16 + hlen]))).encode()
    return raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen:]


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:12],
    lambda raw: _rewrite_header(raw, lambda h: [h]),
    lambda raw: _rewrite_header(raw, lambda h: {k: v for k, v in h.items()
                                                if k != "arrays"}),
    lambda raw: _rewrite_header(raw, lambda h: {k: v for k, v in h.items()
                                                if k != "layout"}),
    lambda raw: _rewrite_header(raw, lambda h: dict(h, arrays=h["arrays"][1:])),
    lambda raw: _rewrite_header(raw, lambda h: dict(h, bn_tags=["L1.batchnorm"])),
    lambda raw: _rewrite_header(raw, lambda h: dict(
        h, layout=[[n + "x", o, s] for n, o, s in h["layout"]])),
    lambda raw: _rewrite_header(raw, lambda h: dict(h, epoch=-3)),
], ids=["cut-in-prefix", "header-not-object", "no-arrays", "no-layout",
        "no-theta", "bn-tag-without-arrays", "layout-of-another-model",
        "negative-epoch"])
def test_malformed_checkpoint_exits_4_with_one_line(trained, tmp_path, capsys, damage):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(damage((trained["out"] / "checkpoint.bin").read_bytes()))
    assert main(["spectrum", "--config", trained["config"], "--out",
                 str(tmp_path / "o"), "--checkpoint", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hesslens: ") and err.count("\n") == 1


def _poisoned_checkpoint(path, model_name, source=None):
    """A checkpoint with a NaN in theta (``source``'s state), or, with no
    source, an initial ``model_name`` state with a running variance of -1."""
    model = build_model(model_name)
    if source is not None:
        _, state = dataio.load_checkpoint(source)
        state.theta.data[0] = np.nan
    else:
        theta = model.init_params(0)
        state = TrainState(theta, np.zeros(theta.size), model.new_bn_state(), 0, None)
        next(iter(state.bn_state.values()))["var"][0] = -1.0
    dataio.save_checkpoint(str(path), model, state)
    return str(path)


@pytest.mark.parametrize("command,where,model", [
    ("attack", "checkpoint", "m1_desk"), ("attack", "checkpoint", "c1_desk"),
    ("landscape", "checkpoint", "m1_desk"), ("landscape", "other", "m1_desk"),
])
def test_non_finite_checkpoint_exits_4_and_writes_nothing(trained, tmp_path, capsys,
                                                          command, where, model):
    # on a NaN theta or a negative variance every loss would read NaN
    source = trained["checkpoint"] if model == "m1_desk" else None
    bad = _poisoned_checkpoint(tmp_path / "bad.bin", model, source)
    overrides = {"model": model, "attack": {"name": "l2grad", "samples": 4}}
    if where == "other":
        overrides["landscape"] = {"mode": "interpolate", "other_checkpoint": bad}
        bad = trained["checkpoint"]
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out),
                 "--checkpoint", bad]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hesslens: ") and err.count("\n") == 1
    assert "bad.bin: array " in err
    assert not out.exists() or not os.listdir(out)


def test_checkpoint_of_another_model_exits_1(trained, tmp_path, capsys):
    config = write_config(tmp_path, model="c1_desk")
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", trained["checkpoint"]]) == 1
    err = capsys.readouterr().err
    assert "'m1_desk'" in err and "'c1_desk'" in err and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("batch_sizes", ["x"]), ("batch_sizes", [16.0]), ("batch_sizes", [True]),
    ("batch_sizes", [16, 0]), ("batch_sizes", [-4]), ("seeds", ["0"]),
    ("seeds", [False]), ("seeds", [None]), ("batch_sizes", []), ("seeds", [])])
def test_bad_sweep_list_exits_1(tmp_path, capsys, key, value):
    config = write_config(tmp_path, sweep={key: value})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"sweep.{key}" in err and err.count("\n") == 1


def test_threads_flag_is_usage_error(tmp_path):
    # HESSLENS_THREADS acts when hesslens is imported, before NumPy loads; a
    # flag parsed afterwards could not reach the already-loaded BLAS
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", config, "--out", str(tmp_path / "o"),
              "--threads", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "0", "-1", "+2", "1.5", " 2"])
def test_bad_thread_cap_exits_1(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("HESSLENS_THREADS", value)
    assert main(["attack", "--config", write_config(tmp_path), "--out",
                 str(tmp_path / "o"), "--checkpoint", str(tmp_path / "unused.bin")]) == 1
    err = capsys.readouterr().err
    assert "HESSLENS_THREADS" in err and err.count("\n") == 1


@pytest.mark.parametrize("value,blas", [("abc", None), ("0", None), ("-1", None),
                                        ("2", "2")])
def test_thread_cap_reaches_blas_only_when_valid(value, blas):
    # only the import runs: no computation starts under the cap
    env = {k: v for k, v in os.environ.items()
           if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    env["HESSLENS_THREADS"] = value
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hesslens.__file__))
    code = "import os, hesslens; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == str(blas)


@pytest.mark.parametrize("command", ["attack", "sweep"])
def test_seed_flag_without_a_section_seed_is_usage_error(tmp_path, command):
    # neither the attack nor the sweep section has a seed the flag could set
    argv = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
            "--seed", "7"]
    if command == "attack":
        argv += ["--checkpoint", str(tmp_path / "unused.bin")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_train_run_json_reports_epoch_timings(tmp_path):
    config = write_config(tmp_path, train={"epochs": 3, "target_loss": 1e-9})
    for side in ("a", "b"):
        assert main(["train", "--config", config, "--out", str(tmp_path / side)]) == 3
    run = json.loads((tmp_path / "a" / "run.json").read_text())
    timing = run["elapsed_seconds"]
    assert run["epochs_run"] == 3
    assert len(timing["epoch_seconds"]) == len(timing["eval_seconds"]) == 3
    for epoch_s, eval_s in zip(timing["epoch_seconds"], timing["eval_seconds"]):
        assert 0 < eval_s < epoch_s
    assert sum(timing["epoch_seconds"]) <= timing["total"]
    assert ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())


def test_failed_vectors_write_keeps_the_old_file_and_no_temporary(trained, tmp_path,
                                                                  monkeypatch):
    out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"save_vectors": True})
    args = ["spectrum", "--config", config, "--out", str(out),
            "--checkpoint", trained["checkpoint"]]
    assert main(args) in (0, 3)
    old = (out / "vectors.npy").read_bytes()

    def disk_full(fp, array, **kwargs):
        fp.write(b"\x93NUMPY")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array", disk_full)
    assert main(args + ["--seed", "1"]) == 4
    monkeypatch.undo()
    assert (out / "vectors.npy").read_bytes() == old
    assert sorted(os.listdir(out)) == ["spectrum.csv", "spectrum.json", "vectors.npy"]


# ------------------------------------------------------------ dataset contents


def _write_native(path, x_train, y_train, x_test, y_test):
    """A native dataset file holding the arrays as given, dtypes included."""
    arrays = {"x_train": x_train, "y_train": y_train, "x_test": x_test,
              "y_test": y_test}
    dataio._write_container(path, dataio.DATASET_MAGIC,
                            {"kind": "dataset", "name": "bad", "meta": {}}, arrays)


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@pytest.mark.parametrize("damage,words", [
    (lambda d: dict(d, x_train=d["x_train"].reshape(64, 28, 28)),
     "train split has images of shape (64, 28, 28), not (N, 1, 28, 28)"),
    (lambda d: dict(d, x_test=d["x_test"][:, :, :27, :27]),
     "test split has images of shape (32, 1, 27, 27)"),
    (lambda d: dict(d, y_train=d["y_train"][:, None]),
     "train split has labels of int64 (64, 1), not 64 integers"),
    (lambda d: dict(d, y_train=d["y_train"].astype(np.float64)),
     "train split has labels of float64 (64,)"),
    (lambda d: dict(d, y_train=d["y_train"][:-1]), "train split has labels of int64 (63,)"),
    (lambda d: dict(d, y_test=d["y_test"][:-1]), "test split has labels of int64 (31,)"),
    (lambda d: dict(d, x_train=_set(d["x_train"], (3, 0, 5, 5), np.nan)),
     "train split has pixels outside [0, 1] or not finite"),
    (lambda d: dict(d, x_test=_set(d["x_test"], (0, 0, 0, 0), 1.5)),
     "test split has pixels outside"),
    (lambda d: dict(d, x_train=_set(d["x_train"], (0, 0, 0, 0), -0.25)),
     "train split has pixels outside"),
    (lambda d: dict(d, y_train=_set(d["y_train"], 5, 12)), "outside [0, 10)"),
    (lambda d: dict(d, y_test=_set(d["y_test"], 0, -1)), "test split has labels in [-1, "),
], ids=["x-not-4d", "x-wrong-shape", "y-not-1d", "y-not-integer", "y-short-train",
        "y-short-test", "x-nan", "x-above-1", "x-below-0", "label-12", "label-minus-1"])
def test_bad_native_dataset_exits_4_with_one_line(tmp_path, capsys, damage, words):
    ds = dataio.synth_blobs(64, 32, seed=0)
    arrays = damage({"x_train": ds.x_train, "y_train": ds.y_train,
                     "x_test": ds.x_test, "y_test": ds.y_test})
    path = tmp_path / "bad.bin"
    _write_native(path, **arrays)
    config = write_config(tmp_path, data={"kind": "native", "path": str(path)})
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"hesslens: {path}: ") and err.count("\n") == 1
    assert words in err
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


def test_idx_label_out_of_range_exits_4(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for key, magic, arr in (
            ("train_images", 0x803, rng.integers(0, 256, (16, 28, 28))),
            ("train_labels", 0x801, _set(rng.integers(0, 10, 16), 2, 12)),
            ("test_images", 0x803, rng.integers(0, 256, (8, 28, 28))),
            ("test_labels", 0x801, rng.integers(0, 10, 8))):
        paths[key] = str(tmp_path / f"{key}.idx")
        with open(paths[key], "wb") as f:
            f.write(struct.pack(f">{1 + arr.ndim}I", magic, *arr.shape))
            f.write(arr.astype(np.uint8).tobytes())
    config = write_config(tmp_path, data=dict(paths, kind="idx"))
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "train split has labels in [0, 12], outside [0, 10)" in err
    assert err.count("\n") == 1

