"""A non-finite value in a model pass fails closed, through one check.

Every model pass builds its logits in ``Model.forward``, which raises
``NumericError`` when a logit is not finite.  Each entry point below must
therefore raise that one error on a parameter vector holding a NaN, and on
one scaled by 1e80 (finite, so it passes every checkpoint check, but its
logits overflow).  Training maps the error to ``DivergenceError``.
"""

import numpy as np
import pytest

from hesslens.attacks import ATTACK_NAMES, _step, attack_batch
from hesslens.dataio import synth_blobs
from hesslens.errors import DivergenceError, NumericError
from hesslens.landscape import interpolate_models, random_direction, scan_1d, scan_2d
from hesslens.nn import build_model
from hesslens.spectrum import InputHvpOperator, ThetaHvpOperator
from hesslens.training import TrainConfig, sgd_train

MODEL = build_model("m1_desk")
DATA = synth_blobs(64, 8, in_shape=MODEL.in_shape, classes=10, seed=0,
                   separation=3.0, noise=0.2)
X, Y = DATA.x_test[:4], DATA.y_test[:4]


def _nan_theta():
    theta = MODEL.init_params(0)
    data = theta.data.copy()
    data[0] = np.nan
    return theta.with_data(data)


def _huge_theta():
    theta = MODEL.init_params(0)
    return theta.with_data(theta.data * 1e80)


def _direction(index):
    return random_direction(MODEL.param_count, index)


ENTRY_POINTS = {
    "loss_and_accuracy": lambda th: MODEL.loss_and_accuracy(th, X, Y),
    **{f"attack_batch-{name}": (lambda th, name=name: attack_batch(MODEL, th, X, Y, name, 0.1))
       for name in ATTACK_NAMES},
    "ThetaHvpOperator": lambda th: ThetaHvpOperator(MODEL, th, (X, Y)),
    "InputHvpOperator": lambda th: InputHvpOperator(MODEL, th, (X[0], int(Y[0]))),
    "input_jacobians": lambda th: MODEL.input_jacobians(th, X),
    "scan_1d": lambda th: scan_1d(MODEL, th, _direction(0), [-0.1, 0.0, 0.1], (X, Y)),
    "scan_2d": lambda th: scan_2d(MODEL, th, _direction(0), _direction(1), [0.0, 0.1],
                                  [0.0, 0.1], (X, Y)),
    "interpolate_models": lambda th: interpolate_models(
        MODEL, th, MODEL.init_params(1), [0.0, 0.5, 1.0], (X, Y)),
}


@pytest.mark.parametrize("theta", [_nan_theta, _huge_theta], ids=["nan", "x1e80"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_model_pass_raises_on_non_finite_logits(entry, theta):
    with np.errstate(all="ignore"), pytest.raises(NumericError) as ei:
        ENTRY_POINTS[entry](theta())
    assert str(ei.value).startswith("non-finite forward value (first at node ")
    assert ei.value.node_id is not None


@pytest.mark.parametrize("n_train", [32, 64], ids=["at-evaluation", "at-second-step"])
@pytest.mark.parametrize("attack", [None, "fgsm"])
def test_huge_learning_rate_diverges_anywhere_in_the_epoch(attack, n_train):
    # one batch: the end-of-epoch evaluation meets the overflow; two: the
    # second batch's attack (robust) or step (plain) meets it first
    data = synth_blobs(n_train, 8, in_shape=MODEL.in_shape, classes=10, seed=0,
                       separation=3.0, noise=0.2)
    config = TrainConfig(batch_size=32, lr=1e300, epochs=1, attack=attack,
                         eps=0.1 if attack else 0.0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as ei:
        sgd_train(MODEL, data, config)
    assert str(ei.value).startswith("non-finite value at epoch 0: ")


def test_l2_step_of_overflowing_length_raises_naming_the_sample():
    direction = np.ones((3, 2, 2))
    direction[1] *= 1e200  # finite entries whose squares overflow
    with np.errstate(over="ignore"), pytest.raises(NumericError) as ei:
        _step(direction, 1.0, "l2", "input gradient")
    assert str(ei.value) == ("non-finite length of the input gradient for "
                             "sample index 1")


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_linf_step_along_a_non_finite_entry_raises_naming_the_sample(bad):
    direction = np.ones((3, 2, 2))
    direction[2, 1, 0] = bad
    with pytest.raises(NumericError) as ei:
        _step(direction, 0.1, "linf", "input gradient")
    assert str(ei.value) == ("non-finite length of the input gradient for "
                             "sample index 2")


def test_l2grad_on_an_overflowing_gradient_raises():
    # x 1e40: finite logits, but input gradients above 1e154 whose L2 length
    # overflows, so dividing by it would give a zero step
    theta = MODEL.init_params(0)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="sample index 0"):
        attack_batch(MODEL, theta.with_data(theta.data * 1e40), X, Y, "l2grad", 0.1)


def test_infinite_mean_loss_from_finite_logits_raises():
    # zero weights make the logits the last layer's bias: finite, but spread
    # by more than the largest double, so the loss of label 1 is +inf
    last = MODEL.layout[-1]
    data = np.zeros(MODEL.param_count)
    data[last.offset:last.offset + 2] = [1.7e308, -1.7e308]
    theta = MODEL.init_params(0).with_data(data)
    assert np.all(np.isfinite(MODEL.logits(theta, X[:1])))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="mean loss inf"):
        MODEL.loss_and_accuracy(theta, X[:1], [1])
