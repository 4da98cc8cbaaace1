"""Minibatch SGD with heavy-ball momentum, plain and adversarial.

The trainer is deliberately plain: shuffle, walk fixed-size minibatches
(keeping the trailing partial batch), apply

    m <- momentum * m + g
    theta <- theta - lr * m

and halve the learning rate on a fixed epoch schedule.  Training stops when
the full-training-set loss reaches the target or the epoch cap runs out.
All randomness flows from one counter-based generator seeded by the config,
so a rerun reproduces the trajectory bit for bit.

Adversarial (robust) training replaces each minibatch by its attacked
version — generated against the current parameters — before the gradient
step.  With ``eps = 0`` the perturbation is exactly zero, so the robust
trajectory coincides bitwise with the plain one; that invariant is the
cheapest end-to-end check that the two paths share their arithmetic.

Optionally the top parameter-Hessian eigenvalue is measured every few
epochs on a fixed probe batch, giving a curvature trace alongside the loss
curve at bounded cost.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attacks import ATTACK_NORMS, attack_batch
from .errors import (AT_LEAST_1, NON_NEGATIVE, NON_NEGATIVE_FINITE, POSITIVE, POSITIVE_FINITE,
                     ConfigError, ContractError, DivergenceError, NumericError, check_rule)
from .spectrum import theta_spectrum
from .tensorops import make_rng

METRIC_FIELDS = ("epoch", "lr", "train_loss", "train_acc", "test_loss",
                 "test_acc", "lambda1")

LOSS_BLOWUP = 1e8
LAMBDA1_BATCH_CAP = 320


@dataclass(frozen=True)
class TrainConfig:
    model: str = "m1_desk"
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 40
    target_loss: float = 0.01
    halve_every: int = 10  # 0 disables the schedule
    seed: int = 0
    # robust-training fields; attack None means plain training
    attack: str = None
    eps: float = 0.0
    # curvature trace; 0 disables
    lambda1_every: int = 0
    lambda1_tol: float = 1e-3
    lambda1_iters: int = 100

    # {field: (test, requirement)}, read by validate() and the config schema
    _RULES = {
        "batch_size": AT_LEAST_1,
        "lr": POSITIVE_FINITE,
        "momentum": (lambda v: 0 <= v < 1, "in [0, 1)"),
        "epochs": AT_LEAST_1,
        "halve_every": NON_NEGATIVE,
        "attack": (lambda v: v is None or v in ATTACK_NORMS,
                   f"null or one of {sorted(ATTACK_NORMS)}"),
        "eps": NON_NEGATIVE_FINITE,
        "lambda1_every": NON_NEGATIVE,
        "lambda1_tol": POSITIVE,
        "lambda1_iters": AT_LEAST_1,
    }

    def validate(self):
        """Raise :class:`ConfigError`, message led by the field name, unless
        every setting is usable."""
        for key, rule in self._RULES.items():
            check_rule(rule, key, getattr(self, key), ConfigError)
        return self


@dataclass
class TrainState:
    """Everything needed to resume: parameters, momentum, normalizer
    statistics, epoch counter and the generator state."""

    theta: ad.ParamVector
    momentum: np.ndarray
    bn_state: dict
    epoch: int
    rng_state: dict


@dataclass
class TrainResult:
    theta: ad.ParamVector
    bn_state: dict
    momentum: np.ndarray
    history: list
    converged: bool
    epochs_run: int
    final_loss: float
    elapsed: float
    rng_state: dict = field(repr=False, default=None)
    config: TrainConfig = field(repr=False, default=None)
    # wall seconds of each epoch run by this call, and of its end-of-epoch
    # train- and test-set evaluation; kept out of ``history`` so the metric
    # rows stay deterministic
    epoch_seconds: list = field(default_factory=list)
    eval_seconds: list = field(default_factory=list)

    @property
    def state(self):
        """Resume point equivalent to this run's end."""
        return TrainState(self.theta, self.momentum, self.bn_state,
                          self.epochs_run, self.rng_state)


def _epoch_lr(config, epoch):
    if config.halve_every <= 0:
        return config.lr
    return config.lr / (2.0 ** (epoch // config.halve_every))


def sgd_train(model, data, config, init=None):
    """Train ``model`` on ``data`` (anything with x_train/y_train/x_test/y_test).

    ``init`` resumes from a :class:`TrainState`; a negative ``epoch`` in it
    raises :class:`ContractError`.  A step loss above
    ``LOSS_BLOWUP`` or a non-finite value anywhere in an epoch (robust
    attack, step, evaluation, lambda1 solve) raises :class:`DivergenceError`.
    """
    config.validate()
    x_train = np.asarray(data.x_train, dtype=np.float64)
    y_train = np.asarray(data.y_train)
    x_test = np.asarray(data.x_test, dtype=np.float64)
    y_test = np.asarray(data.y_test)
    n = x_train.shape[0]
    start = time.perf_counter()

    if init is None:
        theta = model.init_params(config.seed)
        vel = np.zeros(model.param_count, dtype=np.float64)
        bn_state = model.new_bn_state()
        first_epoch = 0
        rng = make_rng((config.seed, "shuffle"))
    else:
        check_rule(NON_NEGATIVE, "init.epoch", init.epoch, ContractError)
        theta = init.theta.copy()
        vel = init.momentum.copy()
        bn_state = {k: {kk: vv.copy() for kk, vv in v.items()}
                    for k, v in init.bn_state.items()}
        first_epoch = init.epoch
        rng = make_rng((config.seed, "shuffle"))
        if init.rng_state is not None:
            rng.bit_generator.state = init.rng_state

    probe_n = min(LAMBDA1_BATCH_CAP, n)
    probe_batch = (x_train[:probe_n], y_train[:probe_n])
    lambda1 = np.nan

    history = []
    epoch_seconds, eval_seconds = [], []
    converged = False
    full_loss = np.inf
    epoch = first_epoch
    try:
        for epoch in range(first_epoch, config.epochs):
            epoch_start = time.perf_counter()
            lr = _epoch_lr(config, epoch)
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                xb, yb = x_train[idx], y_train[idx]
                if config.attack is not None and config.eps > 0.0:
                    xb = attack_batch(model, theta, xb, yb, config.attack,
                                      config.eps, bn_state=bn_state).x_adv
                loss, g = _batch_step_grad(model, theta, xb, yb, bn_state)
                if loss > LOSS_BLOWUP:
                    raise DivergenceError(f"loss blew up to {loss:.3e} at epoch {epoch}")
                vel *= config.momentum
                vel += g
                theta = theta.with_data(theta.data - lr * vel)

            eval_start = time.perf_counter()
            full_loss, train_acc = model.loss_and_accuracy(theta, x_train, y_train,
                                                           bn_state=bn_state)
            test_loss, test_acc = model.loss_and_accuracy(theta, x_test, y_test,
                                                          bn_state=bn_state)
            eval_seconds.append(time.perf_counter() - eval_start)
            if config.lambda1_every > 0 and (epoch - first_epoch) % config.lambda1_every == 0:
                res = theta_spectrum(model, theta, probe_batch, k=1,
                                     tol=config.lambda1_tol,
                                     max_iter=config.lambda1_iters,
                                     seed=config.seed, bn_state=bn_state)
                lambda1 = res.top
            row = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": full_loss,
                "train_acc": train_acc,
                "test_loss": test_loss,
                "test_acc": test_acc,
                "lambda1": lambda1,
            }
            history.append(row)
            epoch_seconds.append(time.perf_counter() - epoch_start)
            if full_loss <= config.target_loss:
                converged = True
                epoch += 1
                break
        else:
            epoch = config.epochs
    except NumericError as exc:
        raise DivergenceError(f"non-finite value at epoch {epoch}: {exc}") from exc

    return TrainResult(theta, bn_state, vel, history, converged, epoch,
                       float(full_loss), time.perf_counter() - start,
                       rng.bit_generator.state, config, epoch_seconds,
                       eval_seconds)


def _batch_step_grad(model, theta, xb, yb, bn_state):
    theta_node = ad.constant(theta.data)
    loss = model.batch_loss_node(theta_node, ad.constant(xb), yb, mode="train",
                                 bn_state=bn_state, update_running=True)
    # a recorded sweep that keeps every value until the graph is freed: a
    # step that frees values during its sweep lowers the heap's resting size
    # below its peak, and glibc then trims and page-faults the difference
    # back in every step of a process that has freed no large array
    (g,) = ad.grad(loss, [theta_node])
    return float(loss.value), g.value


def metrics_rows(history):
    """CSV-ready string rows in fixed column order."""
    rows = []
    for h in history:
        rows.append({
            "epoch": str(int(h["epoch"])),
            "lr": repr(float(h["lr"])),
            "train_loss": repr(float(h["train_loss"])),
            "train_acc": repr(float(h["train_acc"])),
            "test_loss": repr(float(h["test_loss"])),
            "test_acc": repr(float(h["test_acc"])),
            "lambda1": "" if np.isnan(h["lambda1"]) else repr(float(h["lambda1"])),
        })
    return rows
