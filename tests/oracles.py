"""Independent reference computations used across the test suite.

Finite differences, Kahan summation and dense linear algebra provide the
ground truth the library is checked against.  The double-backprop
Hessian-vector products below are the one exception that uses the package's
differentiation engine: ``hvp_theta`` and ``hvp_input`` differentiate a
freshly recorded gradient graph, independently of the operators in
``hesslens.spectrum`` and of the closed-form input-Hessian algebra.
"""

import numpy as np

from hesslens import autodiff as ad
from hesslens.nn import LayerSpec, Model, ModelConfig


def kahan_dot(a, b):
    """Compensated-summation dot product (reference for cancellation cases)."""
    s = 0.0
    c = 0.0
    for x, y in zip(a, b):
        t = float(x) * float(y) - c
        u = s + t
        c = (u - s) - t
        s = u
    return s


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


def hvp_theta(loss_fn, at, batch, v):
    """Hessian-vector product w.r.t. parameters by double backprop."""
    theta = ad.leaf(ad._unwrap(at))
    out = loss_fn(theta, batch)
    ad._check_finite_scalar(out)
    (g,) = ad.grad(out, [theta])
    gv = ad.sum_all(ad.mul(g, ad.constant(ad._unwrap(v))))
    (h,) = ad.grad(gv, [theta])
    return ad._rewrap(h.value, at)


def hvp_input(loss_fn, at, sample, u):
    """Hessian-vector product w.r.t. the input of a single sample.

    ``loss_fn(theta_node, x_node, y)`` must build the scalar loss for one
    sample; the second derivative is taken through the recorded gradient
    graph, exactly as for the parameter Hessian.
    """
    x, y = sample
    theta = ad.constant(ad._unwrap(at))
    xn = ad.leaf(x)
    out = loss_fn(theta, xn, y)
    ad._check_finite_scalar(out)
    (g,) = ad.grad(out, [xn])
    gu = ad.sum_all(ad.mul(g, ad.constant(np.asarray(u, dtype=np.float64))))
    (h,) = ad.grad(gu, [xn])
    return h.value


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


def kink_free_batch(model, theta, n, seed, bn_state=None, margin=1e-3, tries=50):
    """A batch at least ``margin`` away from every ReLU/pooling switch."""
    for attempt in range(tries):
        x, y = random_batch(model, n, (seed + 1) * 1000 + attempt)
        if model.kink_margin(theta, x, bn_state=bn_state) >= margin:
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
