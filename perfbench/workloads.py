"""The six benchmark workloads.

Each workload has a set-up (data and any checkpoint it needs), a round (the
unit of work that is timed and repeated) and a check of the outputs the last
rounds produced.  Every input is synthetic blobs (separation 3, noise 0.2).

* ``train_m1``: one epoch of plain SGD with momentum on ``m1_desk`` from the
  seeded initialisation, batch 64.  First-order path only, no HVPs.
* ``spectrum_m1``: ``hesslens spectrum`` (theta, k=5, tol=1e-3, probe batch
  64, vectors saved) through the CLI, on a checkpoint trained in set-up by
  ``hesslens train``.  Its inputs do not depend on ``--seed``.  With these
  fixed seeds one pair stalls to ``max_iter`` (545 HVPs per command); start
  seeds 1 to 4 on the same checkpoint cost 548, 1041, 80 and 67 HVPs, so a
  seed-dependent spectrum would measure luck, not code.
* ``landscape_m1``: ``hesslens landscape`` along the top eigenvector of the
  same checkpoint, which set-up finds with a k=1 ``hesslens spectrum``.  The
  radius is fixed: for about one radius in seven ``landscape.grid`` misses
  t=0 exactly.
* ``attack_grad_m1``: the gradient attacks ``fgsm`` and ``l2grad`` on 256 and
  ``fgsm10`` on 32 seeded test samples of an ``m1_desk`` checkpoint trained
  and saved in set-up; the sample counts give each attack about a third of
  the round.
* ``attack_newton_m1``: the Newton attacks ``fhsm`` and ``l2hess`` on 32
  seeded test samples of the same kind of checkpoint.  They build one graph
  per sample at batch 1.
* ``robust_c1``: one epoch of min-max training of ``c1_desk`` with ``fgsm``
  inside every step and the top eigenvalue tracked every epoch (k=1, the
  default 100-step cap).  Its inputs do not depend on ``--seed``: the
  tracker stops after 7 to 17 steps depending on the data, so a
  seed-dependent epoch would measure luck.  With seed 0 it stops after 9.
"""

import contextlib
import csv
import json
import os
import sys
import time

import numpy as np

from hesslens import attacks, autodiff, cli, dataio, nn, training

from . import checks

SEPARATION = 3.0
NOISE = 0.2

SIZES = {
    "full": {
        "train_m1": {"n_train": 2048, "n_test": 512, "batch": 64},
        "robust_c1": {"n_train": 512, "n_test": 128, "batch": 64},
        "attack_grad_m1": {"n_train": 2048, "n_test": 512,
                           "samples": {"fgsm": 256, "l2grad": 256, "fgsm10": 32},
                           "checked": {"fgsm10": 8}},
        "attack_newton_m1": {"n_train": 2048, "n_test": 256,
                             "samples": {"fhsm": 32, "l2hess": 32}, "checked": {}},
        "spectrum_m1": {"n_train": 5000, "n_test": 256, "epochs": 2, "target_loss": 6e-4,
                        "k": 5, "max_iter": 500, "probe": 64},
        "landscape_m1": {"n_train": 5000, "n_test": 256, "epochs": 2, "target_loss": 6e-4,
                         "k": 1, "max_iter": 500, "probe": 64, "points": 41,
                         "radius": 0.005},
    },
    "smoke": {
        "train_m1": {"n_train": 128, "n_test": 32, "batch": 32},
        "robust_c1": {"n_train": 64, "n_test": 16, "batch": 32},
        "attack_grad_m1": {"n_train": 128, "n_test": 32,
                           "samples": {"fgsm": 8, "l2grad": 8, "fgsm10": 4},
                           "checked": {"fgsm10": 2}},
        "attack_newton_m1": {"n_train": 128, "n_test": 16,
                             "samples": {"fhsm": 4, "l2hess": 4}, "checked": {}},
        "spectrum_m1": {"n_train": 256, "n_test": 32, "epochs": 1, "target_loss": 100.0,
                        "k": 2, "max_iter": 200, "probe": 16},
        "landscape_m1": {"n_train": 256, "n_test": 32, "epochs": 1, "target_loss": 100.0,
                         "k": 1, "max_iter": 200, "probe": 16, "points": 11,
                         "radius": 0.0005},
    },
}


class Workload:
    """Set-up, timed round and output check of one workload."""

    ops_per_round = 1
    min_rounds = 3

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.detail = {}

    def record(self, name, value):
        self.detail.setdefault(name, []).append(value)


class TrainM1(Workload):
    """One epoch of SGD per round, always from the same seeded start."""

    name = "train_m1"
    model_name = "m1_desk"

    @property
    def data_seed(self):
        return self.seed

    def train_config(self):
        return training.TrainConfig(model=self.model_name, batch_size=self.size["batch"],
                                    lr=0.01, momentum=0.9, epochs=1, target_loss=0.0,
                                    halve_every=0, seed=self.data_seed)

    def setup(self):
        self.model = nn.build_model(self.model_name)
        self.data = dataio.synth_blobs(self.size["n_train"], self.size["n_test"],
                                       in_shape=self.model.in_shape, seed=self.data_seed,
                                       separation=SEPARATION, noise=NOISE)
        self.config = self.train_config()
        self.runs = []

    def round(self):
        self.runs.append(training.sgd_train(self.model, self.data, self.config))
        return 0

    def check(self):
        model, data = self.model, self.data
        start = model.init_params(self.config.seed)
        bn = model.new_bn_state()
        before, _ = model.loss_and_accuracy(start, data.x_train, data.y_train, bn_state=bn)
        out = checks.loss_falls(before, self.runs[-1].history[-1]["train_loss"])
        out += checks.bit_identical([r.theta.data for r in self.runs])
        b = self.size["batch"]
        batch = (data.x_train[:b], data.y_train[:b])
        loss_fn = model.make_theta_loss(mode="train", bn_state=bn)
        _, g = autodiff.value_and_grad(loss_fn, start, batch)

        def loss_at(theta):
            return float(loss_fn(autodiff.constant(theta), batch).value)

        direction = np.random.default_rng(self.seed).standard_normal(model.param_count)
        out += checks.gradient_matches_fd(loss_at, start.data, g.data, direction)
        return out


class RobustC1(TrainM1):
    """One epoch of min-max training per round, with lambda1 tracked."""

    name = "robust_c1"
    model_name = "c1_desk"
    data_seed = 0

    def train_config(self):
        eps = attacks.eps_preset(self.model.in_shape, "linf")
        return training.TrainConfig(model=self.model_name, batch_size=self.size["batch"],
                                    lr=0.01, momentum=0.9, epochs=1, target_loss=0.0,
                                    halve_every=0, seed=self.data_seed, attack="fgsm", eps=eps,
                                    lambda1_every=1)

    def check(self):
        """Rerun one epoch with every inner fgsm step and the tracked lambda1 checked."""
        found = []
        original_attack = training.attack_batch
        original_spectrum = training.theta_spectrum

        def checked_attack(model, theta, x, y, name, eps, **kwargs):
            rep = original_attack(model, theta, x, y, name, eps, **kwargs)
            found.extend(checks.within_box_and_ball(x, rep.x_adv, eps, "linf",
                                                    what="fgsm step inside training"))
            found.extend(checks.norms_equal_eps(rep.pre_clamp_norms, eps,
                                                "fgsm step inside training"))
            return rep

        # Only the solver's own certificate is checked: c1_desk's ReLU and maxpool
        # kinks make a finite difference of its gradient jump (h = 1e-5 gives a
        # residual of 11.4 where the HVP gives 0.37).
        def checked_spectrum(*args, **kwargs):
            res = original_spectrum(*args, **kwargs)
            found.extend(checks.tracked_lambda1(res))
            return res

        training.attack_batch = checked_attack
        training.theta_spectrum = checked_spectrum
        try:
            self.runs.append(training.sgd_train(self.model, self.data, self.config))
        finally:
            training.attack_batch = original_attack
            training.theta_spectrum = original_spectrum
        return sorted(set(found)) + super().check()


class AttackM1(Workload):
    """Attacks on the same seeded test samples every round; ``size`` says how many each."""

    @property
    def ops_per_round(self):
        return sum(self.size["samples"].values())

    def setup(self):
        s = self.size
        self.model = nn.build_model("m1_desk")
        data = dataio.synth_blobs(s["n_train"], s["n_test"], seed=self.seed,
                                  separation=SEPARATION, noise=NOISE)
        config = training.TrainConfig(model="m1_desk", batch_size=64, lr=0.01, momentum=0.9,
                                      epochs=1, target_loss=0.0, halve_every=0, seed=self.seed)
        run = training.sgd_train(self.model, data, config)
        path = os.path.join(self.workdir, "checkpoint.bin")
        dataio.save_checkpoint(path, self.model, run.state)
        _, self.state = dataio.load_checkpoint(path)
        n = max(s["samples"].values())
        pick = np.random.default_rng(self.seed).choice(s["n_test"], n, replace=False)
        self.x, self.y = data.x_test[pick], data.y_test[pick]
        self.reports = {}

    def round(self):
        failed = 0
        for name, n in self.size["samples"].items():
            eps = attacks.eps_preset(self.model.in_shape, attacks.ATTACK_NORMS[name])
            t0 = time.perf_counter()
            rep = attacks.attack_batch(self.model, self.state.theta, self.x[:n], self.y[:n],
                                       name, eps, bn_state=self.state.bn_state)
            self.record(f"{name}_ms", 1e3 * (time.perf_counter() - t0) / n)
            self.reports[name] = rep
            if rep.cg_converged is not None:
                failed += int(np.sum(~rep.cg_converged))
        return failed

    def jacobian(self, x):
        return self.model.input_jacobian(self.state.theta, x, bn_state=self.state.bn_state)

    def check(self):
        out = []
        jacobians = {}
        for name, rep in self.reports.items():
            norm = attacks.ATTACK_NORMS[name]
            x, y = self.x[: rep.x_adv.shape[0]], self.y[: rep.x_adv.shape[0]]
            out += checks.within_box_and_ball(x, rep.x_adv, rep.eps, norm, what=name)
            out += checks.norms_equal_eps(rep.pre_clamp_norms, rep.eps, name)
            for i in range(min(len(x), self.size["checked"].get(name, len(x)))):
                what, label = f"{name} sample {i}", int(y[i])
                if name == "fgsm10":
                    ref = checks.fgsm10_reference(self.jacobian, x[i], label, rep.eps)
                    out += checks.same_point(rep.x_adv[i], ref, what)
                    continue
                if i not in jacobians:
                    jacobians[i] = self.jacobian(x[i])
                jac, logits = jacobians[i]
                if name in ("fhsm", "l2hess"):
                    ref = checks.newton_direction(jac, logits, label, rep.dampings[i])
                    rtol = 1e-3 if name == "fhsm" else 1e-2
                else:
                    ref = checks.input_gradient(jac, logits, label)
                    rtol = 1e-9 if name == "fgsm" else 1e-8
                out += checks.step_matches(x[i], rep.x_adv[i], ref, rep.eps, norm, what, rtol)
        return out


class AttackGradM1(AttackM1):
    """``fgsm``, ``fgsm10`` and ``l2grad``: batched input gradients."""

    name = "attack_grad_m1"


class AttackNewtonM1(AttackM1):
    """``fhsm`` and ``l2hess``: one graph, lambda1 estimate and CG solve per sample."""

    name = "attack_newton_m1"


class SpectrumM1(Workload):
    """``hesslens spectrum`` on a checkpoint trained in set-up by ``hesslens train``."""

    name = "spectrum_m1"
    min_rounds = 1
    TOL = 1e-3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.config_path = os.path.join(workdir, "config.json")
        self.checkpoint = os.path.join(workdir, "checkpoint.bin")

    def config(self):
        s = self.size
        return {
            "model": "m1_desk",
            "data": {"kind": "blobs", "n_train": s["n_train"], "n_test": s["n_test"],
                     "seed": 0, "separation": SEPARATION, "noise": NOISE},
            "train": {"batch_size": 64, "lr": 0.01, "momentum": 0.9, "epochs": s["epochs"],
                      "target_loss": s["target_loss"], "halve_every": 0, "seed": 0},
            "spectrum": {"target": "theta", "k": s["k"], "tol": self.TOL,
                         "max_iter": s["max_iter"], "seed": 0, "batch_size": s["probe"],
                         "save_vectors": True},
        }

    def cli(self, command):
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([command, "--config", self.config_path, "--out", self.workdir,
                             *(["--checkpoint", self.checkpoint] if command != "train" else [])])

    def run_cli(self, command):
        code = self.cli(command)
        if code != 0:
            raise RuntimeError(f"hesslens {command} exited with {code}")

    def setup(self):
        with open(self.config_path, "w") as f:
            json.dump(self.config(), f)
        self.run_cli("train")

    def round(self):
        return int(self.cli("spectrum") != 0)

    def probe(self):
        """(loss function, theta, batch) of the probe batch the commands use."""
        _, state = dataio.load_checkpoint(self.checkpoint)
        model = nn.build_model("m1_desk")
        d = self.config()["data"]
        data = dataio.synth_blobs(d["n_train"], d["n_test"], seed=d["seed"],
                                  separation=d["separation"], noise=d["noise"])
        n = self.size["probe"]
        loss_fn = model.make_theta_loss(mode="eval", bn_state=state.bn_state)
        return loss_fn, state.theta, (data.x_train[:n], data.y_train[:n])

    def eigenvalues(self):
        return [float(r["eigenvalue"]) for r in read_csv(os.path.join(self.workdir,
                                                                      "spectrum.csv"))]

    def check(self):
        rows = read_csv(os.path.join(self.workdir, "spectrum.csv"))
        out = [] if all(r["converged"] == "1" for r in rows) else ["spectrum.csv flags a pair "
                                                                    "as not converged"]
        vectors = np.load(os.path.join(self.workdir, "vectors.npy"))
        loss_fn, theta, batch = self.probe()

        def grad_at(t):
            return autodiff.value_and_grad(loss_fn, theta.with_data(t), batch)[1].data

        def hv_of(v, h=1e-5):
            return (grad_at(theta.data + h * v) - grad_at(theta.data - h * v)) / (2.0 * h)

        return out + checks.spectrum_pairs(self.eigenvalues(), vectors, hv_of, self.TOL)


class LandscapeM1(SpectrumM1):
    """``hesslens landscape`` along v1, which set-up finds with a k=1 spectrum."""

    name = "landscape_m1"
    min_rounds = 3

    def config(self):
        s = self.size
        return {**super().config(),
                "landscape": {"mode": "line", "radius": s["radius"], "points": s["points"],
                              "direction": "eigvec",
                              "vectors": os.path.join(self.workdir, "vectors.npy"),
                              "batch_size": s["probe"]}}

    def setup(self):
        super().setup()
        self.run_cli("spectrum")

    def round(self):
        return int(self.cli("landscape") != 0)

    def check(self):
        scan = read_csv(os.path.join(self.workdir, "landscape.csv"))
        ts = np.array([float(r["t"]) for r in scan])
        losses = np.array([float(r["loss"]) for r in scan])
        out = checks.parabola_curvature(ts, losses, self.eigenvalues()[0])
        loss_fn, theta, batch = self.probe()
        direct, _ = autodiff.value_and_grad(loss_fn, theta, batch)
        return out + checks.base_loss(ts, losses, direct)


def read_csv(path):
    """Rows of a hesslens CSV artifact (leading ``#`` provenance lines skipped)."""
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


WORKLOADS = {w.name: w for w in (TrainM1, SpectrumM1, LandscapeM1, AttackGradM1,
                                 AttackNewtonM1, RobustC1)}
