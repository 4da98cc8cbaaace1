"""End-to-end command tests: exit codes, artifacts, and rerun determinism."""

import errno
import json
import os
import struct

import numpy as np
import pytest

from hesslens import cli, dataio
from hesslens.attacks import Damping, evaluate_adversarial
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
], ids=["cut-in-prefix", "header-not-object", "no-arrays", "no-layout",
        "no-theta", "bn-tag-without-arrays", "layout-of-another-model"])
def test_malformed_checkpoint_exits_4_with_one_line(trained, tmp_path, capsys, damage):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(damage((trained["out"] / "checkpoint.bin").read_bytes()))
    assert main(["spectrum", "--config", trained["config"], "--out",
                 str(tmp_path / "o"), "--checkpoint", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hesslens: ") and err.count("\n") == 1


def test_checkpoint_of_another_model_exits_1(trained, tmp_path, capsys):
    config = write_config(tmp_path, model="c1_desk")
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "o"),
                 "--checkpoint", trained["checkpoint"]]) == 1
    err = capsys.readouterr().err
    assert "'m1_desk'" in err and "'c1_desk'" in err and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("batch_sizes", ["x"]), ("batch_sizes", [16.0]), ("batch_sizes", [True]),
    ("batch_sizes", [16, 0]), ("batch_sizes", [-4]), ("seeds", ["0"]),
    ("seeds", [False]), ("seeds", [None])])
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

