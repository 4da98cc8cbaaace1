"""Independent reference computations used across the test suite.

Finite differences, the cross-entropy of one sample and dense linear
algebra (``np.linalg.eigvalsh`` of a materialized operator) provide the
ground truth the library is checked against.  Some helpers use the
package's differentiation engine:

* ``input_gradient`` takes one sample's input gradient by one reverse pass,
  independently of the batched, chunked ``attacks.batch_input_gradients``.
* ``hvp_theta`` and ``hvp_input`` differentiate a freshly recorded gradient
  graph, independently of the operators in ``hesslens.spectrum`` and of the
  closed-form input-Hessian algebra.
* ``kink_margin`` (behind ``kink_free_batch``) runs one eval-mode forward
  pass with ``autodiff.relu`` and ``autodiff.maxpool`` wrapped, and reads
  the distance to the nearest ReLU or pooling switch off their inputs.

``read_csv`` reads the CSV artifacts back with the standard ``csv`` module,
and ``param_view`` reads one named parameter off a ``ParamVector``'s layout.
"""

import csv

import numpy as np

from hesslens import autodiff as ad
from hesslens.nn import LayerSpec, Model, ModelConfig
from hesslens.tensorops import make_rng


def param_view(theta, name):
    """The named parameter of a ``ParamVector`` as a shaped view of its flat data."""
    for e in theta.layout:
        if e.name == name:
            return theta.data[e.offset : e.offset + int(np.prod(e.shape))].reshape(e.shape)
    raise KeyError(name)


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at 1-d point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hvp(grad_f, x, v, h=1e-5):
    """Central difference of a gradient field along direction v."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return (grad_f(x + h * v) - grad_f(x - h * v)) / (2.0 * h)


def dense_from_hvp(apply_h, dim):
    h = np.zeros((dim, dim))
    e = np.zeros(dim)
    for i in range(dim):
        e[i] = 1.0
        h[:, i] = apply_h(e)
        e[i] = 0.0
    return h


def input_gradient(loss_fn, at, x, y):
    """Loss value and exact gradient w.r.t. the input array ``x``."""
    xn = ad.constant(x)
    out = loss_fn(ad.constant(ad.param_data(at)), xn, y)
    ad.check_finite(out)
    (g,) = ad.grad(out, [xn])
    return float(out.value), g.value


def hvp_theta(loss_fn, at, batch, v):
    """Hessian-vector product w.r.t. parameters by double backprop."""
    theta = ad.constant(ad.param_data(at))
    out = loss_fn(theta, batch)
    ad.check_finite(out)
    (g,) = ad.grad(out, [theta])
    gv = ad.sum_all(ad.mul(g, ad.constant(ad.param_data(v))))
    (h,) = ad.grad(gv, [theta])
    return ad._rewrap(h.value, at)


def hvp_input(loss_fn, at, sample, u):
    """Hessian-vector product w.r.t. the input of a single sample.

    ``loss_fn(theta_node, x_node, y)`` must build the scalar loss for one
    sample; the second derivative is taken through the recorded gradient
    graph, exactly as for the parameter Hessian.
    """
    x, y = sample
    theta = ad.constant(ad.param_data(at))
    xn = ad.constant(x)
    out = loss_fn(theta, xn, y)
    ad.check_finite(out)
    (g,) = ad.grad(out, [xn])
    gu = ad.sum_all(ad.mul(g, ad.constant(np.asarray(u, dtype=np.float64))))
    (h,) = ad.grad(gu, [xn])
    return h.value


def blobs_reference(n_train, n_test, in_shape=(1, 28, 28), classes=10, seed=0,
                    separation=1.0, noise=0.1):
    """``synth_blobs``' arrays by its direct full-size formula:
    ``(x_train, y_train, x_test, y_test)``."""
    rng = make_rng((seed, "blobs"))
    dim = int(np.prod(in_shape))
    centers = 0.5 + 0.1 * separation * rng.standard_normal((classes, dim))
    out = []
    for n in (n_train, n_test):
        y = rng.integers(0, classes, size=n)
        x = centers[y] + noise * rng.standard_normal((n, dim))
        out += [np.clip(x, 0.0, 1.0).reshape((n,) + tuple(in_shape)), y.astype(np.int64)]
    return tuple(out)


def ref_softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def ref_ce(z, y):
    p = ref_softmax(z)
    return -np.log(p[y])


def tiny_models():
    """Five miniature architectures, each with at most 200 parameters."""
    configs = [
        ModelConfig("t_fc", (1, 3, 3), 3, (LayerSpec("fc", out=8), LayerSpec("relu"),
                                           LayerSpec("fc", out=3))),
        ModelConfig("t_fc_deep", (1, 4, 4), 2,
                    (LayerSpec("fc", out=6), LayerSpec("relu"),
                     LayerSpec("fc", out=5), LayerSpec("relu"),
                     LayerSpec("fc", out=2))),
        ModelConfig("t_conv", (1, 6, 6), 3,
                    (LayerSpec("conv", k=3, stride=2, out=2), LayerSpec("relu"),
                     LayerSpec("fc", out=3))),
        ModelConfig("t_conv_pool", (1, 8, 8), 2,
                    (LayerSpec("conv", k=3, stride=1, out=2), LayerSpec("relu"),
                     LayerSpec("maxpool", win=2),
                     LayerSpec("fc", out=2))),
        ModelConfig("t_conv_bn", (2, 6, 6), 3,
                    (LayerSpec("conv", k=3, stride=2, out=3), LayerSpec("relu"),
                     LayerSpec("batchnorm"),
                     LayerSpec("fc", out=3))),
    ]
    models = [Model(c) for c in configs]
    assert all(m.param_count <= 200 for m in models)
    return models


def random_batch(model, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n,) + model.in_shape)
    y = rng.integers(0, model.classes, n)
    return x, y


def pool_margin(x_value, geom):
    """Smallest (max - runner-up) gap across all windows; inf for 1x1 windows.

    Windows whose top two entries are exactly 0 are skipped: those are
    clamped units (pooling follows a ReLU), the window output is locally
    the constant 0, and there is no switching surface nearby — the distance
    to the clamp itself is already measured on the pre-activations.
    """
    w = ad._pool_windows(x_value, geom)
    if w.shape[0] < 2:
        return np.inf
    top2 = np.partition(w, w.shape[0] - 2, axis=0)[-2:]
    gaps = top2[1] - top2[0]
    live = ~((gaps == 0.0) & (top2[1] == 0.0))
    return float(np.min(gaps[live])) if np.any(live) else np.inf


def kink_margin(model, theta, x, bn_state=None):
    """Distance of an eval-mode batch to the nearest ReLU/pooling switching
    surface: the minimum over all ReLU pre-activation magnitudes and all
    pooling max-vs-runner-up gaps (:func:`pool_margin`); inf without either.

    ``Model.forward`` looks ``relu`` and ``maxpool`` up in ``autodiff`` at
    each call, so wrapping them there for one pass sees every input.
    """
    margins = []
    relu, maxpool = ad.relu, ad.maxpool

    def probed_relu(v):
        margins.append(float(np.min(np.abs(v.value))))
        return relu(v)

    def probed_maxpool(v, geom):
        margins.append(pool_margin(v.value, geom))
        return maxpool(v, geom)

    ad.relu, ad.maxpool = probed_relu, probed_maxpool
    try:
        model.logits(theta, x, bn_state=bn_state)
    finally:
        ad.relu, ad.maxpool = relu, maxpool
    return float(min(margins, default=np.inf))


def kink_free_batch(model, theta, n, seed, bn_state=None, margin=1e-3, tries=50):
    """A batch at least ``margin`` away from every ReLU/pooling switch."""
    for attempt in range(tries):
        x, y = random_batch(model, n, (seed + 1) * 1000 + attempt)
        if kink_margin(model, theta, x, bn_state=bn_state) >= margin:
            return x, y
    raise AssertionError("could not sample a kink-free batch")


def batch_loss_value(model, theta_data, x, y, mode="eval", bn_state=None):
    node = model.batch_loss_node(ad.constant(theta_data), ad.constant(x), y,
                                 mode=mode, bn_state=bn_state)
    return float(node.value)


def perturbed_bn_state(model, seed):
    """Running statistics away from their (0, 1) start, so eval-mode
    batch normalization actually scales and shifts."""
    rng = np.random.default_rng(seed)
    state = model.new_bn_state()
    for st in state.values():
        st["mean"] += 0.2 * rng.standard_normal(st["mean"].shape)
        st["var"] *= np.exp(0.5 * rng.standard_normal(st["var"].shape))
    return state


def read_csv(path):
    """``(comments, fieldnames, rows)`` of a CSV artifact: leading ``#`` lines
    without the marker, then the header and one dict per row."""
    with open(path, newline="") as f:
        lines = f.read().splitlines(keepends=True)
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    reader = csv.DictReader(lines[n:])
    rows = list(reader)
    return [line[1:].strip() for line in lines[:n]], reader.fieldnames or [], rows
