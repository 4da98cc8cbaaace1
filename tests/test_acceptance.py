"""The ten headline guarantees of the package, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities and
asserts on the combined outcome, so ``pytest -v`` doubles as the acceptance
report.  Criteria 5-7 share one set of training runs (the module fixture);
its wall time is billed against each criterion that uses it.
"""

import json
import time

import numpy as np
import pytest

import hesslens as hl
from hesslens import autodiff as ad
from hesslens.attacks import Damping, attack_batch, batch_input_gradients, cg_solve
from hesslens.cli import main
from hesslens.dataio import synth_blobs
from hesslens.errors import PSDViolationError
from hesslens.landscape import grid, quadratic_coefficient, scan_1d
from hesslens.nn import build_model, softmax_ce_grad, softmax_ce_hessian
from hesslens.spectrum import ThetaHvpOperator, power_iteration_topk, theta_spectrum
from hesslens.training import TrainConfig, sgd_train

from oracles import (
    dense_from_hvp,
    hvp_input,
    hvp_theta,
    input_gradient,
    input_hessian,
    kink_free_batch,
    random_batch,
    read_csv,
    tiny_models,
)

# Frozen empirical setup for the training-trend criteria: Gaussian class
# blobs hard enough that curvature and robustness differ sharply across
# batch sizes, easy enough that every run reaches the loss target quickly.
SEEDS = (0, 1, 2)
BATCHES = (16, 64, 256, 1024)
SEPARATION = 3.0
NOISE = 0.2
LR = 0.01
EPOCHS = 150
TARGET = 0.01
EPS = 0.1  # the L-inf preset for 1x28x28 inputs
EVAL_N = 500


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def median(values):
    return float(np.median(values))


@pytest.fixture(scope="module")
def trend():
    """Plain runs over four batch sizes plus robust runs at B=256, 3 seeds."""
    t0 = time.perf_counter()
    data = synth_blobs(5000, 1000, seed=0, separation=SEPARATION, noise=NOISE)
    model = build_model("m1_desk")
    probe = (data.x_train[:320], data.y_train[:320])

    def run(batch_size, seed, attack=None):
        config = TrainConfig(model="m1_desk", batch_size=batch_size, lr=LR,
                             momentum=0.9, epochs=EPOCHS, target_loss=TARGET,
                             halve_every=0, seed=seed, attack=attack,
                             eps=EPS if attack else 0.0)
        result = sgd_train(model, data, config)
        lam1 = theta_spectrum(model, result.theta, probe, k=1, tol=1e-3,
                              max_iter=200, seed=0).top
        return {"result": result, "lambda1": lam1}

    runs = {}
    for seed in SEEDS:
        for batch_size in BATCHES:
            runs[("plain", batch_size, seed)] = run(batch_size, seed)
        runs[("robust", 256, seed)] = run(256, seed, attack="fgsm")
    return {"data": data, "model": model, "probe": probe, "runs": runs,
            "elapsed": time.perf_counter() - t0}


# -------------------------------------------------------------- criterion 1


def test_criterion_01_hvp_matches_finite_differences():
    t0 = time.perf_counter()
    worst_theta, worst_input, worst_sym = 0.0, 0.0, 0.0
    for preset in ("m1_desk", "c1_desk"):
        model = build_model(preset)
        bn = model.new_bn_state() or None
        theta_loss = model.make_theta_loss("eval", bn)
        input_loss = model.make_input_loss(bn)
        for trial in range(20):
            theta = model.init_params(seed=trial)
            # a unit-norm direction spread over all parameters moves each
            # pre-activation by only ~1e-6 at h=1e-5, so a 1e-4 margin
            # keeps the whole finite-difference interval in one region
            x, y = kink_free_batch(model, theta, 4, seed=trial, bn_state=bn,
                                   margin=1e-4, tries=300)
            batch = (x, y)
            rng = np.random.default_rng(trial + 9000)
            v = rng.standard_normal(model.param_count)
            v /= np.linalg.norm(v)
            u = rng.standard_normal(model.param_count)
            u /= np.linalg.norm(u)

            hv = hvp_theta(theta_loss, theta, batch, v).data
            h = 1e-5
            gp = ad.value_and_grad(theta_loss, theta.with_data(theta.data + h * v), batch)[1]
            gm = ad.value_and_grad(theta_loss, theta.with_data(theta.data - h * v), batch)[1]
            fd = (gp.data - gm.data) / (2.0 * h)
            worst_theta = max(worst_theta, np.linalg.norm(hv - fd)
                              / max(np.linalg.norm(hv), np.linalg.norm(fd)))

            hu = hvp_theta(theta_loss, theta, batch, u).data
            uhv, vhu = float(u @ hv), float(v @ hu)
            worst_sym = max(worst_sym, abs(uhv - vhu) / max(1.0, abs(uhv)))

            xi, yi = x[0], int(y[0])
            w = rng.standard_normal(xi.size)
            w /= np.linalg.norm(w)
            hw = hvp_input(input_loss, theta, (xi, yi), w.reshape(xi.shape))
            gip = input_gradient(input_loss, theta,
                                 xi + h * w.reshape(xi.shape), yi)[1]
            gim = input_gradient(input_loss, theta,
                                 xi - h * w.reshape(xi.shape), yi)[1]
            fdi = (gip - gim) / (2.0 * h)
            worst_input = max(worst_input, np.linalg.norm(hw - fdi)
                              / max(np.linalg.norm(hw), np.linalg.norm(fdi)))
    elapsed = time.perf_counter() - t0
    ok = worst_theta <= 1e-4 and worst_input <= 1e-4 and worst_sym <= 1e-10 \
        and elapsed < 120
    report(1, ok, f"theta-HVP vs FD rel {worst_theta:.2e} (<=1e-4), "
                  f"input-HVP vs FD rel {worst_input:.2e} (<=1e-4), "
                  f"symmetry gap {worst_sym:.2e} (<=1e-10), {elapsed:.0f}s < 120s")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_power_iteration_matches_dense_eigensolver():
    t0 = time.perf_counter()
    worst = 0.0
    for index, model in enumerate(tiny_models()):
        bn = model.new_bn_state() or None
        theta = model.init_params(seed=index)
        # kinks are irrelevant here: the iterative and dense eigensolvers
        # see the same exact operator either way
        x, y = random_batch(model, 8, seed=index)
        op = ThetaHvpOperator(model, theta, (x, y), bn_state=bn)
        dense = dense_from_hvp(op, op.dim)
        dense = (dense + dense.T) / 2.0
        evals = np.linalg.eigvalsh(dense)
        top = evals[np.argsort(-np.abs(evals))[:20]]
        lam1 = float(np.abs(top[0]))

        pairs = power_iteration_topk(op, op.dim, k=20, tol=1e-8, max_iter=3000,
                                     seed=0)
        got = np.array([p.value for p in pairs])
        err = float(np.max(np.abs(np.sort(got) - np.sort(top))))
        worst = max(worst, err / lam1)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 300
    report(2, ok, f"top-20 eigenvalues on 5 models (P<=200): worst error "
                  f"{worst:.2e}·|lam1| (<=1e-4), {elapsed:.0f}s < 300s")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_input_hessian_is_psd_low_rank_and_consistent():
    t0 = time.perf_counter()
    worst_neg, worst_rank_excess, worst_probe = 0.0, 0, 0.0
    pairs_checked = 0
    for index, model in enumerate(tiny_models()):
        bn = model.new_bn_state() or None
        input_loss = model.make_input_loss(bn)
        for trial in range(20):
            theta = model.init_params(seed=100 * index + trial)
            rng = np.random.default_rng(100 * index + trial)
            x = rng.random(model.in_shape)
            y = int(rng.integers(0, model.classes))
            h = input_hessian(model, theta, x, bn_state=bn)
            s = np.linalg.eigvalsh(h)
            scale = max(1.0, float(s[-1]))
            worst_neg = max(worst_neg, -float(s[0]) / scale)
            rank = int(np.sum(s > 1e-8 * scale))
            worst_rank_excess = max(worst_rank_excess, rank - model.classes)
            for probe in range(3):
                u = rng.standard_normal(x.size)
                hu = hvp_input(input_loss, theta, (x, y), u.reshape(x.shape))
                ref = h @ u
                gap = float(np.max(np.abs(hu.reshape(-1) - ref)))
                worst_probe = max(worst_probe, gap / max(1.0, np.max(np.abs(ref))))
            pairs_checked += 1
    elapsed = time.perf_counter() - t0
    ok = pairs_checked == 100 and worst_neg <= 1e-8 \
        and worst_rank_excess <= 0 and worst_probe <= 1e-8 and elapsed < 600
    report(3, ok, f"100 input Hessians: min eig >= -{worst_neg:.2e}·scale "
                  f"(>=-1e-8), rank excess over class count {worst_rank_excess} "
                  f"(<=0), HVP vs matrix {worst_probe:.2e} (<=1e-8), "
                  f"{elapsed:.0f}s < 600s")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_softmax_ce_hessian_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_sym, worst_eig, worst_row, worst_fd = 0.0, 0.0, 0.0, 0.0
    for _ in range(1000):
        z = 2.0 * rng.standard_normal(10)
        y = int(rng.integers(0, 10))
        h = softmax_ce_hessian(z)
        worst_sym = max(worst_sym, float(np.max(np.abs(h - h.T))))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(h)[0]))
        worst_row = max(worst_row, float(np.max(np.abs(h.sum(axis=1)))))
        fd = np.stack([
            (softmax_ce_grad(z + dz, y) - softmax_ce_grad(z - dz, y)) / (2e-6)
            for dz in 1e-6 * np.eye(10)
        ], axis=1)
        worst_fd = max(worst_fd, float(np.max(np.abs(h - fd))))
    elapsed = time.perf_counter() - t0
    ok = worst_sym <= 1e-15 and worst_eig <= 1e-12 and worst_row <= 1e-12 \
        and worst_fd <= 1e-6 and elapsed < 60
    report(4, ok, f"1000 logit draws: symmetry {worst_sym:.1e}, min eig >= "
                  f"-{worst_eig:.1e} (>=-1e-12), row sums {worst_row:.1e} "
                  f"(<=1e-12), FD gap {worst_fd:.1e} (<=1e-6), "
                  f"{elapsed:.0f}s < 60s")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_large_batch_raises_curvature_and_fragility(trend):
    t0 = time.perf_counter()
    model, data, runs = trend["model"], trend["data"], trend["runs"]
    x, y = data.x_test[:EVAL_N], data.y_test[:EVAL_N]

    converged = all(runs[("plain", b, s)]["result"].converged
                    for b in BATCHES for s in SEEDS)
    lam16 = median([runs[("plain", 16, s)]["lambda1"] for s in SEEDS])
    lam1024 = median([runs[("plain", 1024, s)]["lambda1"] for s in SEEDS])
    adv = {}
    for batch_size in (16, 1024):
        adv[batch_size] = median([
            hl.evaluate_adversarial(
                model, runs[("plain", batch_size, s)]["result"].theta,
                x, y, "fgsm", EPS).adversarial_accuracy
            for s in SEEDS])
    ratio = lam1024 / lam16
    gap = adv[16] - adv[1024]
    elapsed = trend["elapsed"] + (time.perf_counter() - t0)
    ok = converged and ratio >= 3.0 and gap >= 0.05 and elapsed < 45 * 60
    report(5, ok, f"all 12 runs converged={converged}; median lam1 "
                  f"{lam16:.3g} (B=16) -> {lam1024:.3g} (B=1024), ratio "
                  f"{ratio:.1f} (>=3); median FGSM acc {adv[16]:.3f} -> "
                  f"{adv[1024]:.3f}, gap {gap:.3f} (>=0.05); "
                  f"{elapsed:.0f}s < 45min")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_robust_training_flattens_spectrum(trend):
    t0 = time.perf_counter()
    runs = trend["runs"]
    plain = median([runs[("plain", 256, s)]["lambda1"] for s in SEEDS])
    robust = median([runs[("robust", 256, s)]["lambda1"] for s in SEEDS])
    converged = all(runs[("robust", 256, s)]["result"].converged for s in SEEDS)
    ratio = robust / plain
    elapsed = trend["elapsed"] + (time.perf_counter() - t0)
    ok = converged and ratio <= 0.70 and elapsed < 20 * 60
    report(6, ok, f"median lam1 at B=256: plain {plain:.3g}, robust "
                  f"{robust:.3g}, ratio {ratio:.1%} (<=70%); "
                  f"{elapsed:.0f}s < 20min")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_adversarial_training_improves_robustness(trend):
    t0 = time.perf_counter()
    model, data, runs = trend["model"], trend["data"], trend["runs"]
    x, y = data.x_test[:EVAL_N], data.y_test[:EVAL_N]
    gains, drops = [], []
    for s in SEEDS:
        ori = runs[("plain", 256, s)]["result"].theta
        rob = runs[("robust", 256, s)]["result"].theta
        source = (model, ori, None)  # the attack set comes from the plain model
        e_ori = hl.evaluate_adversarial(model, ori, x, y, "fgsm", EPS)
        e_rob = hl.evaluate_adversarial(model, rob, x, y, "fgsm", EPS,
                                        source=source)
        gains.append(e_rob.adversarial_accuracy - e_ori.adversarial_accuracy)
        drops.append(e_ori.clean_accuracy - e_rob.clean_accuracy)
    gain, drop = median(gains), median(drops)
    elapsed = trend["elapsed"] + (time.perf_counter() - t0)
    ok = gain >= 0.20 and drop <= 0.05 and elapsed < 20 * 60
    report(7, ok, f"robust vs plain on the plain model's FGSM set: gain "
                  f"{gain:.3f} (>=0.20), clean drop {drop:.3f} (<=0.05); "
                  f"{elapsed:.0f}s < 20min")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_loss_scans_recover_top_eigenvalue(trend):
    t0 = time.perf_counter()
    model, probe, runs = trend["model"], trend["probe"], trend["runs"]
    checkpoints = [("plain", 64, 0), ("plain", 64, 1), ("plain", 64, 2),
                   ("plain", 256, 0), ("plain", 256, 1)]
    worst_fit, worst_grid0 = 0.0, 0.0
    for key in checkpoints:
        theta = runs[key]["result"].theta
        res = theta_spectrum(model, theta, probe, k=1, tol=1e-4, max_iter=1000,
                             seed=0)
        pair = res.pairs[0]
        ts = grid(2e-3, 9)
        scan = scan_1d(model, theta, pair.vector, ts, probe)
        fit = quadratic_coefficient(scan.ts, scan.losses)
        worst_fit = max(worst_fit, abs(fit - pair.value) / abs(pair.value))
        direct, _ = model.loss_and_accuracy(theta, *probe)
        worst_grid0 = max(worst_grid0, abs(scan.losses[4] - direct))
    elapsed = time.perf_counter() - t0
    ok = worst_fit <= 0.20 and worst_grid0 <= 1e-12 and elapsed < 300
    report(8, ok, f"quadratic fit vs lam1 on 5 checkpoints: worst rel error "
                  f"{worst_fit:.1%} (<=20%), grid-0 loss gap {worst_grid0:.1e} "
                  f"(<=1e-12), {elapsed:.0f}s < 300s")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_cg_soundness_and_damped_limit():
    t0 = time.perf_counter()
    models = tiny_models()
    solves = 0
    violations = 0
    worst_resid, worst_dense = 0.0, 0.0
    tol = 1e-6
    for index, model in enumerate(models):
        bn = model.new_bn_state() or None
        for trial in range(10):
            theta = model.init_params(seed=500 + 10 * index + trial)
            rng = np.random.default_rng(500 + 10 * index + trial)
            x = rng.random(model.in_shape)
            h = input_hessian(model, theta, x, bn_state=bn)
            lam1 = float(np.linalg.eigvalsh(h)[-1])
            mu = max(1e-3 * lam1, 1e-6)
            a = h + mu * np.eye(h.shape[0])
            for rhs in range(10):
                b = rng.standard_normal(h.shape[0])
                try:
                    z, _, _, resid = cg_solve(lambda v: a @ v, b, tol=tol,
                                              max_iter=10 * h.shape[0])
                except PSDViolationError:
                    violations += 1
                    continue
                solves += 1
                worst_resid = max(worst_resid,
                                  resid / float(np.linalg.norm(b)))
                if solves <= 50:
                    ref = np.linalg.solve(a, b)
                    worst_dense = max(worst_dense,
                                      float(np.linalg.norm(z - ref))
                                      / float(np.linalg.norm(ref)))

    # with overwhelming damping the Newton direction collapses to the
    # gradient direction, so the signed steps must coincide
    model = models[0]
    theta = model.init_params(seed=77)
    rng = np.random.default_rng(77)
    x = 0.3 + 0.4 * rng.random((10,) + model.in_shape)
    y = rng.integers(0, model.classes, 10)
    damping = Damping(damping_scale=1e9, damping_floor=1e9)
    fhsm = attack_batch(model, theta, x, y, "fhsm", eps=0.05, damping=damping)
    fgsm = attack_batch(model, theta, x, y, "fgsm", eps=0.05)
    worst_cos = 0.0
    for i in range(10):
        d1 = (fhsm.x_adv[i] - x[i]).reshape(-1)
        d2 = (fgsm.x_adv[i] - x[i]).reshape(-1)
        cos = d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2))
        worst_cos = max(worst_cos, 1.0 - cos)

    elapsed = time.perf_counter() - t0
    ok = solves == 500 and violations == 0 and worst_resid <= tol \
        and worst_dense <= 1e-3 and worst_cos <= 1e-6 and elapsed < 300
    report(9, ok, f"{solves} damped-Hessian CG solves, {violations} PSD "
                  f"violations (==0), worst residual {worst_resid:.1e} "
                  f"(<= {tol:g}), worst vs dense {worst_dense:.1e}, "
                  f"damped-limit cosine distance {worst_cos:.1e} (<=1e-6), "
                  f"{elapsed:.0f}s < 300s")


# ------------------------------------------------------------- criterion 10


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "model": "m1_desk",
        "data": {"n_train": 64, "n_test": 32, "separation": 3.0, "noise": 0.2},
        "train": {"batch_size": 32, "lr": 0.01, "epochs": 2,
                  "target_loss": 5.0, "halve_every": 0},
        "spectrum": {"k": 2, "tol": 1e-2, "max_iter": 150, "batch_size": 64,
                     "save_vectors": True},
        "attack": {"name": "l2hess", "samples": 2, "save_adversarial": True},
        "landscape": {"radius": 0.1, "points": 5, "batch_size": 64},
        "sweep": {"batch_sizes": [16, 32], "seeds": [0], "eval_samples": 16},
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))

    artifacts = {
        "train": ["metrics.csv", "checkpoint.bin"],
        "spectrum": ["spectrum.csv", "vectors.npy"],
        "attack": ["attack.csv", "adversarial.bin"],
        "landscape": ["landscape.csv"],
        "sweep": ["sweep.csv"],
    }
    mismatches = []
    for side in ("a", "b"):
        root = tmp_path / side
        main(["train", "--config", str(config), "--out", str(root / "train")])
        ck = str(root / "train" / "checkpoint.bin")
        for command in ("spectrum", "attack", "landscape"):
            main([command, "--config", str(config),
                  "--out", str(root / command), "--checkpoint", ck])
        main(["sweep", "--config", str(config), "--out", str(root / "sweep")])
    for command, names in artifacts.items():
        for name in names:
            a = (tmp_path / "a" / command / name).read_bytes()
            b = (tmp_path / "b" / command / name).read_bytes()
            if a != b:
                mismatches.append(f"{command}/{name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 600
    report(10, ok, f"5 commands rerun: byte-identical artifacts"
                   f"{' except ' + ', '.join(mismatches) if mismatches else ''}"
                   f", {elapsed:.0f}s < 600s")
