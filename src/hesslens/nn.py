"""Small convolutional classifiers with exactly differentiable graphs.

Two desk-scale presets are provided:

* ``m1_desk`` — Conv(5x5,8)/2, Conv(5x5,16)/2, FC(64), FC(10) on 1x28x28
  inputs (54,314 parameters).
* ``c1_desk`` — Conv(5x5,16)/2, MaxPool(3), BatchNorm, Conv(5x5,16)/2,
  MaxPool(3), BatchNorm, FC(96), FC(48), FC(10) on 3x32x32 inputs
  (14,474 parameters).

ReLU follows every convolution and every hidden fully-connected layer; the
final layer emits logits and the loss is mean softmax cross-entropy.  All
parameters live in one flat :class:`~hesslens.autodiff.ParamVector` so that
Hessian-vector products and optimizer updates operate on plain vectors.

Batch normalization keeps its running statistics outside the parameter
vector (they are state, not optimized weights).  In train mode the batch
statistics participate in the graph; in eval mode the running statistics
enter as constants, which makes the whole network piecewise-affine in its
input — the property that makes the input-Hessian factorization below exact.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import CapacityError, ConfigError, DimensionError, NumericError
from .tensorops import make_rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
INPUT_DIM_MAX = 4096
# Samples per chunk of an eval-mode pass over many samples (evaluation,
# input gradients, input Jacobians).  Eval-mode samples are independent, so
# the chunk size changes only which arrays are alive at once.  At 64,
# m1_desk's largest patch buffer (conv2) is 5 MB instead of 40 MB at 512:
# small enough to be reused from the heap rather than mapped and
# page-faulted afresh for every chunk, and closer to a core's cache.
SAMPLE_CHUNK = 64


@dataclass(frozen=True)
class LayerSpec:
    """One layer in a model recipe; unused fields stay at 0."""

    kind: str  # conv | relu | maxpool | batchnorm | fc
    k: int = 0  # conv kernel size (square)
    stride: int = 0  # conv stride
    out: int = 0  # conv output channels / fc output units
    win: int = 0  # pooling window (square, stride = window)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    in_shape: tuple  # (channels, height, width)
    classes: int
    layers: tuple = field(default_factory=tuple)


def conv(k, stride, out):
    return LayerSpec("conv", k=k, stride=stride, out=out)


def relu():
    return LayerSpec("relu")


def maxpool(win):
    return LayerSpec("maxpool", win=win)


def batchnorm():
    return LayerSpec("batchnorm")


def fc(out):
    return LayerSpec("fc", out=out)


def m1_desk():
    return ModelConfig(
        name="m1_desk",
        in_shape=(1, 28, 28),
        classes=10,
        layers=(
            conv(5, 2, 8), relu(),
            conv(5, 2, 16), relu(),
            fc(64), relu(),
            fc(10),
        ),
    )


def c1_desk():
    return ModelConfig(
        name="c1_desk",
        in_shape=(3, 32, 32),
        classes=10,
        layers=(
            conv(5, 2, 16), relu(), maxpool(3), batchnorm(),
            conv(5, 2, 16), relu(), maxpool(3), batchnorm(),
            fc(96), relu(),
            fc(48), relu(),
            fc(10),
        ),
    )


PRESETS = {"m1_desk": m1_desk, "c1_desk": c1_desk}


def build_model(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown model preset {name!r} (have {sorted(PRESETS)})")
    return Model(PRESETS[name]())


# ---------------------------------------------------------------------------
# Softmax cross-entropy closed forms (per sample, logits z of length c; the
# gradient and Hessian helpers also take a leading batch axis).
# ---------------------------------------------------------------------------


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce_value(z, y):
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1)
    return float(np.log(np.exp(z - m[..., None]).sum(axis=-1)) + m - z[..., y])


def softmax_ce_grad(z, y):
    """Gradient of CE w.r.t. logits: p - e_y (``y`` one label per row of z)."""
    p = softmax(z)
    return p - np.eye(p.shape[-1])[y]


def softmax_ce_hessian(z):
    """Hessian of CE w.r.t. logits: diag(p) - p p^T (independent of the label)."""
    p = softmax(z)[..., :, None]
    return p * np.eye(p.shape[-2]) - p * np.swapaxes(p, -1, -2)


def softmax_ce_hessian_sqrt(z):
    """Symmetric S^1/2 of :func:`softmax_ce_hessian`, eigenvalues clipped at 0."""
    w, u = np.linalg.eigh(softmax_ce_hessian(z))
    return (u * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.swapaxes(u, -1, -2)


def _ce_mean_node(logits, y):
    """Mean softmax cross-entropy as a graph node. ``y`` is an int vector."""
    b, c = logits.value.shape
    m = logits.value.max(axis=1, keepdims=True)  # constant shift, exact derivative
    zs = ad.add(logits, ad.constant(-m))
    lse = ad.log(ad.sum_axis(ad.exp(zs), 1))
    onehot = np.zeros((b, c), dtype=np.float64)
    onehot[np.arange(b), y] = 1.0
    zy = ad.sum_axis(ad.mul_const(logits, onehot), 1)
    per = ad.add(ad.add(lse, ad.constant(m)), ad.scale(zy, -1.0))
    return ad.scale(ad.sum_all(per), 1.0 / b)


# ---------------------------------------------------------------------------
# Model: layout construction, forward graph, losses, derivatives.
# ---------------------------------------------------------------------------


class Model:
    def __init__(self, config):
        self.config = config
        self.classes = config.classes
        self.in_shape = tuple(config.in_shape)
        self.input_dim = int(np.prod(self.in_shape))
        self._ops = []
        self._layout = []
        self._bn_names = []
        offset = 0

        def alloc(name, shape):
            nonlocal offset
            self._layout.append(ad.LayoutEntry(name, offset, tuple(shape)))
            offset += int(np.prod(shape))
            return self._layout[-1]

        c, h, w = self.in_shape
        flat = None
        for i, spec in enumerate(config.layers):
            tag = f"L{i}.{spec.kind}"
            if spec.kind == "conv":
                if flat is not None:
                    raise ConfigError("conv after flatten is unsupported")
                geom = ad.conv_geom(c, h, w, spec.k, spec.k, spec.stride)
                we = alloc(tag + ".w", (geom.patch, spec.out))
                be = alloc(tag + ".b", (spec.out,))
                self._ops.append(("conv", geom, we, be))
                c, h, w = spec.out, geom.out_h, geom.out_w
            elif spec.kind == "relu":
                self._ops.append(("relu",))
            elif spec.kind == "maxpool":
                geom = ad.pool_geom(c, h, w, spec.win)
                self._ops.append(("pool", geom))
                h, w = geom.out_h, geom.out_w
            elif spec.kind == "batchnorm":
                ge = alloc(tag + ".gamma", (c,))
                be = alloc(tag + ".beta", (c,))
                self._ops.append(("bn", tag, c, ge, be))
                self._bn_names.append(tag)
            elif spec.kind == "fc":
                if flat is None:
                    flat = c * h * w
                    self._ops.append(("flatten", flat))
                we = alloc(tag + ".w", (flat, spec.out))
                be = alloc(tag + ".b", (spec.out,))
                self._ops.append(("fc", we, be))
                flat = spec.out
            else:
                raise ConfigError(f"unknown layer kind {spec.kind!r}")
        if flat != config.classes:
            raise ConfigError(
                f"model ends with {flat} units but declares {config.classes} classes"
            )
        self.layout = tuple(self._layout)
        self.param_count = offset

    # -- parameters and state ------------------------------------------------

    def init_params(self, seed):
        """He-normal weights, zero biases, unit BatchNorm scale."""
        rng = make_rng(seed)
        data = np.zeros(self.param_count, dtype=np.float64)
        pv = ad.ParamVector(data, self.layout)
        for e in self.layout:
            v = pv.data[e.offset : e.offset + int(np.prod(e.shape))]
            if e.name.endswith(".w"):
                fan_in = e.shape[0]
                v[:] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=v.shape)
            elif e.name.endswith(".gamma"):
                v[:] = 1.0
            # biases and beta stay zero
        return pv

    def new_bn_state(self):
        state = {}
        for op in self._ops:
            if op[0] == "bn":
                _, tag, ch = op[0], op[1], op[2]
                state[tag] = {
                    "mean": np.zeros(ch, dtype=np.float64),
                    "var": np.ones(ch, dtype=np.float64),
                }
        return state

    def _theta_node_views(self, theta):
        views = {}
        for e in self.layout:
            n = int(np.prod(e.shape))
            views[e.name] = ad.reshape(ad.slice1d(theta, e.offset, e.offset + n), e.shape)
        return views

    # -- forward graph ---------------------------------------------------------

    def forward(self, theta, x, mode="eval", bn_state=None, update_running=False,
                probe=None):
        """Logits node for a batch.

        ``theta`` and ``x`` are graph nodes ((P,) and (B,C,H,W)).  In train
        mode BatchNorm uses in-graph batch statistics (and, when
        ``update_running`` is set, folds them into ``bn_state``); in eval
        mode the running statistics enter as constants.  ``probe``, when
        given, collects the smallest ReLU pre-activation magnitude and
        pooling max-vs-runner-up margin seen anywhere in the pass.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        if x.value.ndim != 4 or x.value.shape[1:] != self.in_shape:
            raise DimensionError(
                f"expected input batch of shape (B,{','.join(map(str, self.in_shape))}), "
                f"got {x.value.shape}"
            )
        if mode == "eval" and self._bn_names and bn_state is None:
            raise ConfigError("eval mode needs bn_state for this model")
        views = self._theta_node_views(theta)
        cur = x
        for op in self._ops:
            kind = op[0]
            if kind == "conv":
                _, geom, we, be = op
                b, out = cur.value.shape[0], we.shape[1]
                # im2col's memory is (patch, out_h*out_w, B): one matmul and no
                # copy, giving the next activation with the batch innermost
                cols = ad.transpose(ad.im2col(cur, geom), (2, 1, 0))
                cols = ad.reshape(cols, (geom.patch, geom.out_h * geom.out_w * b))
                z = ad.matmul(ad.transpose(views[we.name]), cols)
                z = ad.add(z, ad.reshape(views[be.name], (out, 1)))
                z = ad.reshape(z, (out, geom.out_h, geom.out_w, b))
                cur = ad.transpose(z, (3, 0, 1, 2))
            elif kind == "relu":
                if probe is not None:
                    probe.setdefault("relu", []).append(
                        float(np.min(np.abs(cur.value)))
                    )
                cur = ad.relu(cur)
            elif kind == "pool":
                geom = op[1]
                if probe is not None:
                    probe.setdefault("pool", []).append(ad.pool_margin(cur.value, geom))
                cur = ad.maxpool(cur, geom)
            elif kind == "bn":
                _, tag, ch, ge, be = op
                gamma = ad.reshape(views[ge.name], (1, ch, 1, 1))
                beta = ad.reshape(views[be.name], (1, ch, 1, 1))
                if mode == "train":
                    mu = ad.mean_axis(cur, (0, 2, 3))
                    xc = ad.sub(cur, mu)
                    var = ad.mean_axis(ad.mul(xc, xc), (0, 2, 3))
                    inv = ad.power(ad.add_scalar(var, BN_EPS), -0.5)
                    xn = ad.mul(xc, inv)
                    if update_running:
                        st = bn_state[tag]
                        st["mean"] *= 1.0 - BN_MOMENTUM
                        st["mean"] += BN_MOMENTUM * mu.value.reshape(ch)
                        st["var"] *= 1.0 - BN_MOMENTUM
                        st["var"] += BN_MOMENTUM * var.value.reshape(ch)
                else:
                    st = bn_state[tag]
                    rm = st["mean"].reshape(1, ch, 1, 1)
                    rinv = 1.0 / np.sqrt(st["var"].reshape(1, ch, 1, 1) + BN_EPS)
                    xn = ad.mul_const(ad.add(cur, ad.constant(-rm)), rinv)
                cur = ad.add(ad.mul(xn, gamma), beta)
            elif kind == "flatten":
                b = cur.value.shape[0]
                cur = ad.reshape(cur, (b, op[1]))
            elif kind == "fc":
                _, we, be = op
                cur = ad.add(ad.matmul(cur, views[we.name]), views[be.name])
        return cur

    # -- losses ----------------------------------------------------------------

    def batch_loss_node(self, theta, x, y, mode="eval", bn_state=None,
                        update_running=False):
        logits = self.forward(theta, x, mode=mode, bn_state=bn_state,
                              update_running=update_running)
        return _ce_mean_node(logits, np.asarray(y))

    def make_theta_loss(self, mode="eval", bn_state=None):
        """``loss_fn(theta_node, (X, y)) -> scalar node`` for parameter-space
        derivatives.  Running statistics are never updated through this path.
        """

        def loss_fn(theta, batch):
            x, y = batch
            return self.batch_loss_node(theta, ad.constant(x), y, mode=mode,
                                        bn_state=bn_state)

        return loss_fn

    def make_input_loss(self, bn_state=None):
        """``loss_fn(theta_node, x_node, y) -> scalar node`` for one sample.

        Always eval mode, so the network is a fixed piecewise-affine map of
        the input and the loss curvature comes entirely from the softmax.
        """

        def loss_fn(theta, x_node, y):
            if x_node.value.ndim == 3:
                x_node = ad.reshape(x_node, (1,) + tuple(x_node.value.shape))
            elif x_node.value.ndim == 1:
                x_node = ad.reshape(x_node, (1,) + self.in_shape)
            logits = self.forward(theta, x_node, mode="eval", bn_state=bn_state)
            return _ce_mean_node(logits, np.asarray([int(y)]))

        return loss_fn

    # -- evaluation helpers ------------------------------------------------------

    def logits(self, theta, x, bn_state=None):
        """Eval-mode logits as a plain array for a batch array ``x``."""
        node = self.forward(ad.constant(theta.data if isinstance(theta, ad.ParamVector)
                                        else theta),
                            ad.constant(x), mode="eval", bn_state=bn_state)
        return node.value

    def loss_and_accuracy(self, theta, x, y, bn_state=None, chunk=SAMPLE_CHUNK):
        """Mean eval-mode cross-entropy and top-1 accuracy over a dataset,
        evaluated ``chunk`` samples at a time."""
        y = np.asarray(y)
        n = x.shape[0]
        z = np.empty((n, self.classes))
        for lo in range(0, n, chunk):
            z[lo : lo + chunk] = self.logits(theta, x[lo : lo + chunk], bn_state=bn_state)
        m = z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]
        total = float(np.sum(lse - z[np.arange(n), y]))
        return total / n, int(np.sum(z.argmax(axis=1) == y)) / n

    def kink_margin(self, theta, x, bn_state=None):
        """Distance to the nearest ReLU/pooling switching surface.

        Returns the minimum over all ReLU pre-activation magnitudes and all
        pooling max-vs-runner-up gaps for the given batch; large values mean
        the local piecewise region is comfortably wide.
        """
        probe = {}
        self.forward(ad.constant(theta.data if isinstance(theta, ad.ParamVector)
                                 else theta),
                     ad.constant(x), mode="eval", bn_state=bn_state, probe=probe)
        vals = probe.get("relu", []) + probe.get("pool", [])
        return float(min(vals)) if vals else np.inf

    # -- input-space curvature ----------------------------------------------------

    def input_jacobians(self, theta, x, bn_state=None):
        """Per-sample input Jacobians of the eval-mode logits for a batch.

        Returns ``(J, logits)`` with ``J[b, k, :] = d logit_{b,k} / d x_b``
        of shape (B, C, D) and logits of shape (B, C), from one forward pass
        and one reverse pass per class.  Summing logit k over the batch is
        exact because eval-mode samples are independent: batch normalization
        uses its running statistics.  Raises :class:`NumericError` when a
        logit or a Jacobian entry is not finite.
        """
        theta_node = ad.constant(theta.data if isinstance(theta, ad.ParamVector)
                                 else theta)
        xn = ad.leaf(np.asarray(x, dtype=np.float64).reshape((-1,) + self.in_shape))
        b = xn.value.shape[0]
        logits = self.forward(theta_node, xn, mode="eval", bn_state=bn_state)
        if not np.all(np.isfinite(logits.value)):
            raise NumericError("non-finite logits while building input Jacobians",
                               node_id=ad.find_first_nonfinite(logits))
        jac = np.empty((b, self.classes, self.input_dim), dtype=np.float64)
        for k in range(self.classes):
            ek = np.zeros((b, self.classes), dtype=np.float64)
            ek[:, k] = 1.0
            (gx,) = ad.grad(ad.sum_all(ad.mul_const(logits, ek)), [xn])
            jac[:, k] = gx.value.reshape(b, -1)
        if not np.all(np.isfinite(jac)):
            raise NumericError("non-finite input Jacobian")
        return jac, logits.value

    def input_jacobian(self, theta, x, bn_state=None):
        """J[k, :] = d logit_k / d x for one sample: the B=1 case of
        :meth:`input_jacobians`."""
        x = np.asarray(x, dtype=np.float64).reshape((1,) + self.in_shape)
        jac, logits = self.input_jacobians(theta, x, bn_state)
        return jac[0], logits[0]

    def input_hessian(self, theta, x, bn_state=None):
        """Explicit loss Hessian w.r.t. the input: J^T (diag(p) - p p^T) J.

        Exact wherever the network is locally affine in x (i.e. away from
        ReLU/pooling switching surfaces), positive semi-definite by
        construction, and of rank at most the class count.
        """
        if self.input_dim > INPUT_DIM_MAX:
            raise CapacityError(
                f"input dimension {self.input_dim} exceeds {INPUT_DIM_MAX}"
            )
        jac, z = self.input_jacobian(theta, x, bn_state=bn_state)
        hs = softmax_ce_hessian(z)
        return jac.T @ hs @ jac
