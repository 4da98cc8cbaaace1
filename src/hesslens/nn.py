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
input — the property that makes the input-Hessian factorization of
:func:`~hesslens.spectrum.projected_input_hessians` exact.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, NumericError
from .tensorops import make_rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Samples per chunk of an eval-mode pass over many samples (evaluation,
# input gradients, input Jacobians, and the graphs of a ThetaHvpOperator).
# Eval-mode samples are independent, so the chunk size changes only which
# arrays are alive at once.  At 64, m1_desk's largest patch buffer (conv2)
# is 5 MB instead of 40 MB at 512, below glibc's largest mmap threshold:
# evaluating 2048 samples took no minor page faults at 64 and about 16k at
# 512.  Each chunk loop does one chunk's work in a function, so a chunk's
# graph is freed before the next chunk records its own.
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


def softmax_ce_grad(z, y):
    """Gradient of CE w.r.t. logits: p - e_y (``y`` one label per row of z)."""
    p = softmax(z)
    return p - np.eye(p.shape[-1])[y]


def softmax_ce_hessian(z):
    """Hessian of CE w.r.t. logits: diag(p) - p p^T (independent of the label)."""
    p = softmax(z)[..., :, None]
    return p * np.eye(p.shape[-2]) - p * np.swapaxes(p, -1, -2)


def _ce_mean_node(logits, y):
    """Mean softmax cross-entropy as a graph node. ``y`` is an int vector."""
    b, c = logits.value.shape
    m = logits.value.max(axis=1, keepdims=True)  # constant shift, exact derivative
    zs = ad.add(logits, ad.constant(-m))
    lse = ad.log(ad.sum_axis(ad.exp(zs), 1))
    onehot = np.zeros((b, c), dtype=np.float64)
    onehot[np.arange(b), y] = 1.0
    zy = ad.sum_axis(ad.mul_const(logits, onehot), 1)
    per = ad.add(ad.add(lse, ad.constant(m)), ad.mul_const(zy, -1.0))
    return ad.mul_const(ad.sum_all(per), 1.0 / b)


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

        def alloc(name, shape, view_shape=None):
            # the (offset, shape) that ad.view reads the tensor with
            nonlocal offset
            self._layout.append(ad.LayoutEntry(name, offset, tuple(shape)))
            start, offset = offset, offset + int(np.prod(shape))
            return start, view_shape or tuple(shape)

        c, h, w = self.in_shape
        flat = None
        for i, spec in enumerate(config.layers):
            tag = f"L{i}.{spec.kind}"
            if spec.kind == "conv":
                if flat is not None:
                    raise ConfigError("conv after flatten is unsupported")
                geom = ad.conv_geom(c, h, w, spec.k, spec.k, spec.stride)
                we = alloc(tag + ".w", (geom.patch, spec.out))
                be = alloc(tag + ".b", (spec.out,), (spec.out, 1))
                self._ops.append(("conv", geom, we, be))
                c, h, w = spec.out, geom.out_h, geom.out_w
            elif spec.kind == "relu":
                self._ops.append(("relu",))
            elif spec.kind == "maxpool":
                geom = ad.pool_geom(c, h, w, spec.win)
                self._ops.append(("pool", geom))
                h, w = geom.out_h, geom.out_w
            elif spec.kind == "batchnorm":
                ge = alloc(tag + ".gamma", (c,), (c, 1, 1, 1))
                be = alloc(tag + ".beta", (c,), (c, 1, 1, 1))
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

    # -- forward graph ---------------------------------------------------------

    def forward(self, theta, x, mode="eval", bn_state=None, update_running=False):
        """Logits node for a batch.

        ``theta`` and ``x`` are graph nodes ((P,) and (B,C,H,W)).  In train
        mode BatchNorm uses in-graph batch statistics (and, when
        ``update_running`` is set, folds them into ``bn_state``); in eval
        mode the running statistics enter as constants.  Every model pass
        builds its logits here, so this is where a non-finite logit raises
        :class:`NumericError` (naming the first non-finite node).  Finite
        logits give a finite or +inf loss and a finite logit gradient.
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
        # each parameter tensor is one view of theta, in its layer's shape.
        # Every activation up to the flatten is a (C, H, W, B) array, the
        # layout the conv and pooling kernels compute in.
        cur = ad.transpose(x, (1, 2, 3, 0))
        for op in self._ops:
            kind = op[0]
            if kind == "conv":
                _, geom, we, be = op
                w = ad.view(theta, *we)
                b, out = cur.value.shape[-1], w.shape[1]
                z = ad.matmul(ad.transpose(w), ad.im2col(cur, geom))
                z = ad.add(z, ad.view(theta, *be))
                cur = ad.reshape(z, (out, geom.out_h, geom.out_w, b))
            elif kind == "relu":
                cur = ad.relu(cur)
            elif kind == "pool":
                cur = ad.maxpool(cur, op[1])
            elif kind == "bn":
                _, tag, ch, ge, be = op
                gamma = ad.view(theta, *ge)
                beta = ad.view(theta, *be)
                if mode == "train":
                    mu = ad.mean_axis(cur, (1, 2, 3))
                    xc = ad.sub(cur, mu)
                    var = ad.mean_axis(ad.mul(xc, xc), (1, 2, 3))
                    inv = ad.power(ad.add(var, ad.constant(BN_EPS)), -0.5)
                    xn = ad.mul(xc, inv)
                    if update_running:
                        st = bn_state[tag]
                        st["mean"] *= 1.0 - BN_MOMENTUM
                        st["mean"] += BN_MOMENTUM * mu.value.reshape(ch)
                        st["var"] *= 1.0 - BN_MOMENTUM
                        st["var"] += BN_MOMENTUM * var.value.reshape(ch)
                else:
                    st = bn_state[tag]
                    rm = st["mean"].reshape(ch, 1, 1, 1)
                    rinv = 1.0 / np.sqrt(st["var"].reshape(ch, 1, 1, 1) + BN_EPS)
                    xn = ad.mul_const(ad.add(cur, ad.constant(-rm)), rinv)
                cur = ad.add(ad.mul(xn, gamma), beta)
            elif kind == "flatten":
                # a view: the (C, H, W) features of each sample become one column
                cur = ad.transpose(ad.reshape(cur, (op[1], cur.value.shape[-1])))
            elif kind == "fc":
                _, we, be = op
                cur = ad.add(ad.matmul(cur, ad.view(theta, *we)), ad.view(theta, *be))
        ad.check_finite(cur)
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
        node = self.forward(ad.constant(ad.param_data(theta)), ad.constant(x),
                            mode="eval", bn_state=bn_state)
        return node.value

    def loss_and_accuracy(self, theta, x, y, bn_state=None):
        """Mean eval-mode cross-entropy and top-1 accuracy over a dataset,
        evaluated ``SAMPLE_CHUNK`` samples at a time.  Raises
        :class:`NumericError` when the mean is not finite: finite logits that
        spread by more than about 1e308 give a loss of +inf."""
        y = np.asarray(y)
        n = x.shape[0]
        z = np.empty((n, self.classes))
        for lo in range(0, n, SAMPLE_CHUNK):
            hi = lo + SAMPLE_CHUNK
            z[lo:hi] = self.logits(theta, x[lo:hi], bn_state=bn_state)
        m = z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]
        loss = float(np.sum(lse - z[np.arange(n), y])) / n
        if not np.isfinite(loss):
            raise NumericError(f"non-finite mean loss {loss} over {n} samples")
        return loss, int(np.sum(z.argmax(axis=1) == y)) / n

    # -- input-space curvature ----------------------------------------------------

    def input_jacobians(self, theta, x, bn_state=None):
        """Per-sample input Jacobians of the eval-mode logits for a batch.

        Returns ``(J, logits)`` with ``J[b, k, :] = d logit_{b,k} / d x_b``
        of shape (B, C, D) and logits of shape (B, C), from one forward pass
        and one reverse pass per class.  Summing logit k over the batch is
        exact because eval-mode samples are independent: batch normalization
        uses its running statistics.  Raises :class:`NumericError` when a
        logit (see :meth:`forward`) or a Jacobian entry is not finite.
        """
        theta_node = ad.constant(ad.param_data(theta))
        xn = ad.constant(np.asarray(x, dtype=np.float64).reshape((-1,) + self.in_shape))
        b = xn.value.shape[0]
        logits = self.forward(theta_node, xn, mode="eval", bn_state=bn_state)
        jac = np.empty((b, self.classes, self.input_dim), dtype=np.float64)
        for k in range(self.classes):
            ek = np.zeros((b, self.classes), dtype=np.float64)
            ek[:, k] = 1.0
            # the forward graph serves every class: it is not released
            (gx,) = ad.grad(ad.sum_all(ad.mul_const(logits, ek)), [xn], record=False)
            jac[:, k] = gx.reshape(b, -1)
        if not np.all(np.isfinite(jac)):
            raise NumericError("non-finite input Jacobian")
        return jac, logits.value

    def input_jacobian(self, theta, x, bn_state=None):
        """J[k, :] = d logit_k / d x for one sample: the B=1 case of
        :meth:`input_jacobians`."""
        x = np.asarray(x, dtype=np.float64).reshape((1,) + self.in_shape)
        jac, logits = self.input_jacobians(theta, x, bn_state)
        return jac[0], logits[0]
