"""Smoke-size runs of every benchmark workload, and proof that each output
check rejects a deliberately wrong output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from hesslens import attacks, autodiff, training  # noqa: E402

from perfbench import bench, metric_units  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS, read_csv  # noqa: E402

SEED = 3


def smoke(name, workdir, rounds=2):
    wl = WORKLOADS[name](SEED, SIZES["smoke"][name], str(workdir))
    wl.setup()
    for _ in range(rounds):
        assert wl.round() == 0
    return wl


def test_train_m1_checks(tmp_path, monkeypatch):
    wl = smoke("train_m1", tmp_path)
    assert wl.check() == []
    wl.runs[-1].theta.data[7] += 1e-12
    assert any("bit-identical" in f for f in wl.check())
    wl.runs.pop()

    original = autodiff.value_and_grad

    def skewed(loss_fn, at, batch):
        value, g = original(loss_fn, at, batch)
        return value, g.with_data(g.data * 1.01)

    monkeypatch.setattr(autodiff, "value_and_grad", skewed)
    assert any("central difference" in f for f in wl.check())


def test_robust_c1_checks(tmp_path, monkeypatch):
    wl = smoke("robust_c1", tmp_path)
    assert wl.check() == []
    original = training.attack_batch

    def overshoot(model, theta, x, y, name, eps, **kwargs):
        rep = original(model, theta, x, y, name, eps, **kwargs)
        rep.x_adv = np.clip(x + 2.0 * (rep.x_adv - x), 0.0, 1.0)
        return rep

    monkeypatch.setattr(training, "attack_batch", overshoot)
    failures = wl.check()
    assert any("fgsm step inside training" in f for f in failures)


def test_robust_c1_lambda1_check(tmp_path):
    wl = smoke("robust_c1", tmp_path, rounds=1)
    wl.config = dataclasses.replace(wl.config, lambda1_iters=2)
    assert any("tracked lambda1 took 2 of 2" in f for f in wl.check())


@pytest.mark.parametrize("workload,name", [("attack_grad_m1", "fgsm"),
                                           ("attack_grad_m1", "l2grad"),
                                           ("attack_grad_m1", "fgsm10"),
                                           ("attack_newton_m1", "fhsm"),
                                           ("attack_newton_m1", "l2hess")])
def test_attack_checks(tmp_path, workload, name):
    wl = smoke(workload, tmp_path, rounds=1)
    assert wl.check() == []
    rep = wl.reports[name]
    x = wl.x[: rep.x_adv.shape[0]]
    rep.x_adv = np.clip(2.0 * x - rep.x_adv, 0.0, 1.0)  # step flipped
    assert any(name in f for f in wl.check())


def test_spectrum_m1_checks(tmp_path):
    wl = smoke("spectrum_m1", tmp_path, rounds=1)
    assert wl.check() == []
    path = os.path.join(wl.workdir, "spectrum.csv")
    with open(path) as f:
        lines = f.readlines()
    rows = read_csv(path)
    good = rows[0]["eigenvalue"]
    bad = repr(float(good) * 1.05)
    with open(path, "w") as f:
        f.writelines(line.replace(good, bad) if not line.startswith("#") else line
                     for line in lines)
    assert any("pair 0" in f for f in wl.check())


def rewrite_scan(path, change):
    rows = read_csv(path)
    for row in rows:
        change(row)
    with open(path, "w", newline="") as f:
        out = csv.DictWriter(f, fieldnames=list(rows[0]))
        out.writeheader()
        out.writerows(rows)


def test_landscape_m1_checks(tmp_path):
    wl = smoke("landscape_m1", tmp_path)
    assert wl.check() == []
    path = os.path.join(wl.workdir, "landscape.csv")

    def steeper(row):
        row["loss"] = repr(float(row["loss"]) * (1.0 + float(row["t"]) ** 2 * 1e6))

    rewrite_scan(path, steeper)
    assert any("parabola fit" in f for f in wl.check())

    def no_zero(row):  # the grid a linspace rounding gives for some radii
        if float(row["t"]) == 0.0:
            row["t"] = "1e-20"

    rewrite_scan(path, no_zero)
    assert "landscape.csv has no t=0 row" in wl.check()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_reports_every_metric(tmp_path, name):
    plain = bench.run_workload(name, SEED, 0.0, False, str(tmp_path), size="smoke")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == set(metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = bench.run_workload(name, SEED, 0.0, True, str(tmp_path), size="smoke")
    again = bench.run_workload(name, SEED, 0.0, True, str(tmp_path), size="smoke")
    layers = metric_units("per_layer")
    assert traced["correct"] and set(traced["metrics"]) == set(layers)
    counts = [k for k, unit in layers.items() if unit in ("count", "flop", "B")]
    per_round = lambda r: {k: r["metrics"][k]["value"] for k in counts}  # noqa: E731
    assert per_round(traced) == per_round(again)
    assert not hasattr(attacks.attack_batch, "__wrapped__")  # tracer removed itself


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_m1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
