"""End-to-end command tests: exit codes, artifacts, and rerun determinism."""

import json
import os

import numpy as np
import pytest

from hesslens.cli import main
from hesslens.dataio import load_dataset, read_csv


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


# ---------------------------------------------------------------- spectrum


def test_spectrum_theta(trained, tmp_path):
    out = tmp_path / "spec"
    config = write_config(tmp_path, spectrum={"save_vectors": True})
    code = main(["spectrum", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]])
    assert code in (0, 3)  # loose-tolerance convergence is not guaranteed
    comments, fields, rows = read_csv(out / "spectrum.csv")
    assert fields == ["index", "eigenvalue", "iterations", "converged"]
    assert len(rows) == 2
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


def test_spectrum_bad_sample_index_exits_1(trained, tmp_path):
    config = write_config(tmp_path, spectrum={"target": "input",
                                              "sample_index": 100000})
    assert main(["spectrum", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 trained["checkpoint"]]) == 1


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
    assert all(r["cg_iterations"] == "" for r in rows)  # first-order attack
    adv = load_dataset(out / "adversarial.bin")
    assert adv.x_train.shape == (8, 1, 28, 28)
    assert adv.meta["kind"] == "adversarial"
    assert float(np.max(np.abs(adv.x_train - adv.x_test))) <= 0.1 + 1e-12


def test_attack_l2hess_records_cg(trained, tmp_path):
    out = tmp_path / "atk"
    config = write_config(tmp_path, attack={"name": "l2hess", "samples": 2})
    code = main(["attack", "--config", config, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]])
    assert code in (0, 3)
    _, _, rows = read_csv(out / "attack.csv")
    assert len(rows) == 2
    assert all(r["cg_iterations"] != "" for r in rows)
    summary = json.loads((out / "attack.json").read_text())
    assert summary["norm"] == "l2" and summary["eps"] == 2.8


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


def test_landscape_eigvec_without_vectors_exits_4(trained, tmp_path, capsys):
    config = write_config(tmp_path, landscape={"direction": "eigvec"})
    code = main(["landscape", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint", trained["checkpoint"]])
    assert code == 4
    assert "spectrum" in capsys.readouterr().err  # points at the producer


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
    config2 = write_config(tmp_path, name="cfg2.json",
                           landscape={"mode": "interpolate", "points": 7,
                                      "other_checkpoint":
                                          str(other_out / "checkpoint.bin")})
    assert main(["landscape", "--config", config2, "--out", str(out),
                 "--checkpoint", trained["checkpoint"]]) == 0
    _, _, rows = read_csv(out / "landscape.csv")
    assert len(rows) == 7


def test_landscape_interpolate_missing_other_exits_1(trained, tmp_path):
    config = write_config(tmp_path, landscape={"mode": "interpolate"})
    assert main(["landscape", "--config", config, "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 trained["checkpoint"]]) == 1


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
    ("damping_scale", -1.0), ("damping_scale", float("nan")),
    ("damping_floor", 0.0), ("damping_floor", -1.0),
    ("damping_floor", float("nan")), ("damping_floor", float("inf"))])
def test_bad_attack_setting_exits_1(tmp_path, capsys, key, value):
    config = write_config(tmp_path, attack={"name": "l2hess", key: value})
    assert main(["attack", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "unused.bin")]) == 1
    err = capsys.readouterr().err
    assert f"attack.{key}" in err and err.count("\n") == 1


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
