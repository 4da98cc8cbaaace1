"""Reverse-mode differentiation with exact second-order support.

The engine records an eager DAG of ``Node`` objects; :func:`_apply` makes
each one but the constants from a :class:`Primitive` record.  Every backward
rule is built out of the same primitives, so the gradient graph can be
differentiated again: Hessian-vector products are obtained by
back-propagating through the recorded gradient computation (double
backprop), with no finite differences anywhere.

Structural ops come in exact adjoint pairs (``view``/``embed``,
``im2col``/``col2im``, ``pool_select``/``pool_spread``,
``broadcast_to``/``sum_to``), which keeps the rule set closed under
differentiation.  The adjoints of all the views of one node are written by
one multi-part ``embed``, so a parameter vector read through k views gets
one full-length adjoint, not k zero-filled ones and k - 1 adds.
Piecewise-linear selections (ReLU masks, pooling argmax) are frozen at their
forward values: the derivative of ReLU at 0 is defined as 0 and all second
derivatives of the selections are identically 0, which is the
almost-everywhere-correct convention and keeps every run deterministic.  A
ReLU mask is a boolean array, which multiplies as 1.0 and 0.0.

Only the records of ``mul``, ``matmul``, ``exp``, ``log`` and ``power`` are
flagged ``reads``: a product's rule reads each operand to form the other's
adjoint, the others their operand for its own.  Every other rule reads
shapes, its node's static arguments (masks, pooling indices, geometries) and
the adjoint it is given.  So a graph that will only be differentiated again,
toward known nodes, needs no more than the values of its root, its
constants and the operands those rules then read.  :func:`grad` applies
that rule to a forward graph before it sweeps, and :func:`release_unread`
to a finished graph, where it also drops the values of constants alone
whose records are flagged ``remake`` (``im2col`` and ``transpose``, such as
an input batch's patch matrix) for :func:`remake` to compute again.  A
dropped value becomes a read-only NaN array of its shape and dtype with no
buffer: should a rule ever read one, its product turns NaN and the
non-finite check of the caller fails loudly, where a zero would go wrong
silently.
"""

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NumericError

_ids = itertools.count()


@dataclass(frozen=True)
class Primitive:
    """One primitive: ``value(*parent_values, *static)`` computes a node's
    value, and the rule ``vjp(node, g, needed)`` maps the output adjoint
    ``g`` to one adjoint node per parent, or None where ``needed`` is False.
    ``reads``: the rule reads the parent values, not only shapes; ``remake``:
    the value is cheap to compute again (see :func:`release_unread`)."""

    name: str
    value: Callable
    vjp: Callable
    reads: bool = False
    remake: bool = False


class Node:
    """One value in the recorded DAG: ``prim`` applied to the values of
    ``parents`` and to ``static``.  A constant has no parents and no ``prim``."""

    __slots__ = ("value", "parents", "prim", "static", "nid")

    def __init__(self, value, parents=(), prim=None, static=()):
        self.value = value
        self.parents = parents
        self.prim = prim
        self.static = static
        self.nid = next(_ids)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        name = getattr(self.prim, "name", "constant")
        return f"Node(id={self.nid}, {name}, shape={self.value.shape})"


def constant(x):
    """A graph input; :func:`grad` can differentiate with respect to it."""
    return Node(np.asarray(x, dtype=np.float64))


def _apply(prim, parents, *static):
    return Node(prim.value(*[p.value for p in parents], *static), parents, prim, static)


def _sum_to_value(x, shape):
    extra = x.ndim - len(shape)
    if extra:
        x = x.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (xs, ts) in enumerate(zip(x.shape, shape)) if ts == 1 and xs != 1)
    if axes:
        x = x.sum(axis=axes, keepdims=True)
    return x


def sum_to(x, shape):
    """Adjoint of broadcasting: reduce ``x`` down to ``shape``."""
    shape = tuple(shape)
    if x.value.shape == shape:
        return x
    return _apply(_SUM_TO, (x,), shape)


def broadcast_to(x, shape):
    shape = tuple(shape)
    if x.value.shape == shape:
        return x
    return _apply(_BROADCAST_TO, (x,), shape)


def add(a, b):
    return _apply(_ADD, (a, b))


def sub(a, b):
    return _apply(_SUB, (a, b))


def mul(a, b):
    return _apply(_MUL, (a, b))


def mul_const(x, c):
    """Elementwise product with a fixed array (no gradient into ``c``).

    A boolean ``c`` stays boolean: NumPy multiplies by it as by 1.0 and 0.0,
    at an eighth of a float mask's memory.
    """
    c = np.asarray(c)
    if c.dtype != np.bool_:
        c = c.astype(np.float64, copy=False)
    return _apply(_MUL_CONST, (x,), c)


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-d operands")
    return _apply(_MATMUL, (a, b))


def transpose(x, axes=None):
    axes = tuple(reversed(range(x.value.ndim))) if axes is None else tuple(axes)
    return _apply(_TRANSPOSE, (x,), axes)


def reshape(x, shape):
    return _apply(_RESHAPE, (x,), tuple(shape))


def view(x, start, shape):
    """Entries ``start:start+prod(shape)`` of the 1-d ``x`` as a ``shape`` array.

    Its rule returns the part ``(g, start)`` rather than a node: :func:`grad`
    writes all the parts of one node's views with a single :func:`embed`.
    """
    return _apply(_VIEW, (x,), start, shape)


def embed(x, start, n, more=()):
    """Adjoint of :func:`view`: ``x``, row-major, at ``start`` of ``n`` zeros.

    ``more`` holds further ``(node, start)`` parts.  With several parts each
    is added onto the zeros in order, so a disjoint part reads ``x + 0.0``,
    bit for bit the sum of one single-part embed per part, and overlapping
    parts add up.
    """
    parents, starts = zip((x, start), *more)
    return _apply(_EMBED, parents, starts, n)


def _embed_value(*args):
    *values, starts, n = args
    v = np.zeros(n, dtype=np.float64)
    for p, s in zip(values, starts):
        # through a shaped view of the slice, so a transposed p is copied once
        seg = v[s : s + p.size].reshape(p.shape)
        if len(values) == 1:
            seg[...] = p
        else:
            seg += p
    return v


def sum_all(x):
    return _apply(_SUM_ALL, (x,))


def sum_axis(x, axis):
    """Sum over ``axis``, keeping the reduced axes with length 1."""
    return _apply(_SUM_AXIS, (x,), (axis,) if isinstance(axis, int) else tuple(axis))


def mean_axis(x, axis):
    axis = (axis,) if isinstance(axis, int) else tuple(axis)
    n = int(np.prod([x.value.shape[i] for i in axis]))
    return mul_const(sum_axis(x, axis), 1.0 / n)


def exp(x):
    return _apply(_EXP, (x,))


def log(x):
    return _apply(_LOG, (x,))


def power(x, p):
    return _apply(_POWER, (x,), float(p))


def relu(x):
    """max(x, 0) with derivative 0 at the origin and zero second derivative."""
    return mul_const(x, x.value > 0.0)


# ---------------------------------------------------------------------------
# Convolution lowering: exact adjoint pair im2col / col2im.
#
# Images are (C, H, W, B) arrays, batch innermost, and the patch matrix is
# (C*kh*kw, out_h*out_w*B) in the same order.  Every copy then moves
# contiguous runs of B values, and a convolution is one matmul W^T @ cols
# whose (out, out_h*out_w*B) result reshapes without a copy into the next
# (out, out_h, out_w, B) activation.  Any memory order of these shapes gives
# the same values; a C-contiguous one is only the fastest.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvGeom:
    """Patch-extraction geometry for one (input shape, kernel, stride)."""

    in_c: int
    in_h: int
    in_w: int
    kh: int
    kw: int
    stride: int
    pad_t: int
    pad_b: int
    pad_l: int
    pad_r: int
    out_h: int
    out_w: int

    @property
    def patch(self):
        return self.in_c * self.kh * self.kw


def conv_geom(in_c, in_h, in_w, kh, kw, stride):
    """'Same'-style geometry: output extent is ceil(input / stride)."""
    if kh < stride or kw < stride:
        raise DimensionError("kernel smaller than stride is unsupported")
    out_h = -(-in_h // stride)
    out_w = -(-in_w // stride)
    pad_h = max((out_h - 1) * stride + kh - in_h, 0)
    pad_w = max((out_w - 1) * stride + kw - in_w, 0)
    return ConvGeom(
        in_c, in_h, in_w, kh, kw, stride,
        pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2,
        out_h, out_w,
    )


def _im2col_value(x, geom):
    g = geom
    b = x.shape[-1]
    hp = g.in_h + g.pad_t + g.pad_b
    wp = g.in_w + g.pad_l + g.pad_r
    xp = np.zeros((g.in_c, hp, wp, b), dtype=np.float64)
    xp[:, g.pad_t : hp - g.pad_b, g.pad_l : wp - g.pad_r] = x
    cols = np.empty((g.in_c, g.kh, g.kw, g.out_h, g.out_w, b))
    s = g.stride
    for i in range(g.kh):
        for j in range(g.kw):
            cols[:, i, j] = xp[:, i : i + s * g.out_h : s, j : j + s * g.out_w : s]
    return cols.reshape(g.patch, g.out_h * g.out_w * b)


def _col2im_value(cols, geom):
    g = geom
    hp = g.in_h + g.pad_t + g.pad_b
    wp = g.in_w + g.pad_l + g.pad_r
    c6 = cols.reshape(g.in_c, g.kh, g.kw, g.out_h, g.out_w, -1)
    xp = np.zeros((g.in_c, hp, wp, c6.shape[-1]), dtype=np.float64)
    s = g.stride
    for i in range(g.kh):
        for j in range(g.kw):
            xp[:, i : i + s * g.out_h : s, j : j + s * g.out_w : s] += c6[:, i, j]
    return xp[:, g.pad_t : hp - g.pad_b, g.pad_l : wp - g.pad_r]


def im2col(x, geom):
    """(C, H, W, B) image -> (C*kh*kw, out_h*out_w*B) patch matrix."""
    return _apply(_IM2COL, (x,), geom)


def col2im(cols, geom):
    """Adjoint of :func:`im2col` (overlap-add back onto the image)."""
    return _apply(_COL2IM, (cols,), geom)


# ---------------------------------------------------------------------------
# Max pooling: argmax frozen at forward values, then a linear select/spread
# adjoint pair on (C, H, W, B) images and (C, out_h, out_w, B) outputs.
# Windows are non-overlapping (stride = window); trailing rows and columns
# that do not fill a window are dropped.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolGeom:
    channels: int
    in_h: int
    in_w: int
    win: int
    out_h: int
    out_w: int


def pool_geom(channels, in_h, in_w, win):
    if in_h < win or in_w < win:
        raise DimensionError(f"pool window {win} exceeds input {in_h}x{in_w}")
    return PoolGeom(channels, in_h, in_w, win, in_h // win, in_w // win)


def _pool_windows(x, geom):
    """(win*win, C, out_h, out_w, B) copy of the windows, row-major in the window."""
    g = geom
    b = x.shape[-1]
    v = x[:, : g.out_h * g.win, : g.out_w * g.win]
    v = v.reshape(g.channels, g.out_h, g.win, g.out_w, g.win, b)
    return v.transpose(2, 4, 0, 1, 3, 5).reshape(
        g.win * g.win, g.channels, g.out_h, g.out_w, b
    )


def pool_argmax(x_value, geom):
    """Flat within-window index of the first maximum, row-major, of a
    (C, H, W, B) array; (C, out_h, out_w, B)."""
    return np.argmax(_pool_windows(x_value, geom), axis=0)


def pool_select(x, idx, geom):
    return _apply(_POOL_SELECT, (x,), idx, geom)


def pool_spread(y, idx, geom):
    return _apply(_POOL_SPREAD, (y,), idx, geom)


def _pool_spread_value(y, idx, geom):
    g, w = geom, geom.win
    full = np.zeros((g.channels, g.in_h, g.in_w, y.shape[-1]), dtype=np.float64)
    for k in range(w * w):
        r, c = divmod(k, w)
        full[:, r : g.out_h * w : w, c : g.out_w * w : w] = np.where(idx == k, y, 0.0)
    return full


def maxpool(x, geom):
    return pool_select(x, pool_argmax(x.value, geom), geom)


# ---------------------------------------------------------------------------
# The primitive records.  A rule calls primitives by their public names.
# ---------------------------------------------------------------------------
_SUM_TO = Primitive("sum_to", _sum_to_value, lambda node, g, needed: (
    broadcast_to(g, node.parents[0].shape),))
_BROADCAST_TO = Primitive("broadcast_to", np.broadcast_to, lambda node, g, needed: (
    sum_to(g, node.parents[0].shape),))
_ADD = Primitive("add", operator.add, lambda node, g, needed: tuple(
    sum_to(g, p.shape) if need else None for p, need in zip(node.parents, needed)))
_SUB = Primitive("sub", operator.sub, lambda node, g, needed: (
    sum_to(g, node.parents[0].shape) if needed[0] else None,
    sum_to(mul_const(g, -1.0), node.parents[1].shape) if needed[1] else None))
_MUL = Primitive("mul", operator.mul, lambda node, g, needed: tuple(
    sum_to(mul(g, q), p.shape) if need else None
    for p, q, need in zip(node.parents, node.parents[::-1], needed)), reads=True)
_MUL_CONST = Primitive("mul_const", operator.mul, lambda node, g, needed: (
    sum_to(mul_const(g, node.static[0]), node.parents[0].shape),))
_MATMUL = Primitive("matmul", operator.matmul, lambda node, g, needed: (
    matmul(g, transpose(node.parents[1])) if needed[0] else None,
    matmul(transpose(node.parents[0]), g) if needed[1] else None), reads=True)
_TRANSPOSE = Primitive("transpose", np.transpose, lambda node, g, needed: (
    transpose(g, np.argsort(node.static[0])),), remake=True)
_RESHAPE = Primitive("reshape", np.reshape, lambda node, g, needed: (
    reshape(g, node.parents[0].shape),))
_VIEW = Primitive("view", lambda x, s, shape: x[s : s + int(np.prod(shape))].reshape(shape),
                  lambda node, g, needed: ((g, node.static[0]),))
_EMBED = Primitive("embed", _embed_value, lambda node, g, needed: tuple(
    view(g, s, p.shape) if need else None
    for p, s, need in zip(node.parents, node.static[0], needed)))
_SUM_ALL = Primitive("sum_all", lambda x: np.asarray(x.sum()), lambda node, g, needed: (
    broadcast_to(g, node.parents[0].shape),))
_SUM_AXIS = Primitive("sum_axis", lambda x, axis: x.sum(axis=axis, keepdims=True),
                      lambda node, g, needed: (broadcast_to(g, node.parents[0].shape),))
# exp(x) again, not ``node``: a release keeps the operands a rule reads, not its output
_EXP = Primitive("exp", np.exp, lambda node, g, needed: (
    mul(g, exp(node.parents[0])),), reads=True)
_LOG = Primitive("log", np.log, lambda node, g, needed: (
    mul(g, power(node.parents[0], -1.0)),), reads=True)
_POWER = Primitive("power", operator.pow, lambda node, g, needed: (mul_const(
    mul(g, power(node.parents[0], node.static[0] - 1.0)), node.static[0]),), reads=True)
_IM2COL = Primitive("im2col", _im2col_value, lambda node, g, needed: (
    col2im(g, node.static[0]),), remake=True)
_COL2IM = Primitive("col2im", _col2im_value, lambda node, g, needed: (
    im2col(g, node.static[0]),))
_POOL_SELECT = Primitive("pool_select", lambda x, idx, geom: np.take_along_axis(
    _pool_windows(x, geom), idx[None], axis=0)[0],
    lambda node, g, needed: (pool_spread(g, *node.static),))
_POOL_SPREAD = Primitive("pool_spread", _pool_spread_value, lambda node, g, needed: (
    pool_select(g, *node.static),))


# ---------------------------------------------------------------------------
# Backward pass.
# ---------------------------------------------------------------------------


def toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.nid in seen:
            continue
        seen.add(node.nid)
        stack.append((node, True))
        for p in node.parents:
            if p.nid not in seen:
                stack.append((p, False))
    return order


def _active(topo, wrt):
    """Ids of the nodes of ``topo`` (topologically ordered) that depend on a
    node of ``wrt``: the nodes :func:`grad` gives adjoints."""
    active = {w.nid for w in wrt}
    for node in topo:
        if node.nid not in active and any(p.nid in active for p in node.parents):
            active.add(node.nid)
    return active


def _reads(node, active):
    """The parents whose values ``node``'s rule reads when the graph is
    differentiated toward the sources of ``active``: a binary rule reads each
    operand for the other's adjoint, a unary one its operand for its own."""
    if not (node.prim and node.prim.reads):
        return ()
    ps = node.parents
    return [p for p, q in zip(ps, ps[::-1]) if q.nid in active]


def _unread(topo, active, root):
    """The nodes of ``topo`` whose values no rule reads (see :func:`_reads`),
    other than the root and the constants."""
    read = {p.nid for node in topo for p in _reads(node, active)}
    return [n for n in topo if n.parents and n is not root and n.nid not in read]


def grad(output, wrt, record=True, release=False):
    """Adjoints of a scalar ``output`` with respect to each node in ``wrt``.

    Recorded (the default), the adjoints are nodes of the DAG, so they can be
    fed back into :func:`grad` for second derivatives.  With
    ``record=False`` they are arrays: each adjoint is made a plain value,
    with no parents and no rule, as soon as it is formed, and is let go once
    its node's rule has consumed it, so a sweep holds its forward graph and
    the adjoints still pending.  The forward graph is left as it was and can
    be differentiated again.

    ``release=True`` drops (see :func:`drop`), before the sweep, each
    forward value other than the root's that no rule of the sweep reads,
    for a graph that is differentiated once, or only again toward ``wrt``;
    the graph can then no longer be evaluated again.  A recorded sweep keeps
    every adjoint it makes, and :func:`release_unread` then drops what
    differentiating them again will not read.

    Either way every rule runs in the same order on the same operands, and
    accumulation follows the fixed reverse-topological order, so the values
    are bit-reproducible and the same in every mode.
    """
    if output.value.ndim != 0:
        raise DimensionError("grad expects a scalar output")
    topo = toposort(output)
    active = _active(topo, wrt)
    if release:
        drop(_unread(topo, active, output))
    wanted = {w.nid for w in wrt}
    grads = {}  # nid -> the adjoint of that node, until its rule consumes it
    parts = {}  # nid -> the (adjoint, start) parts of that node's views

    def put(nid, g):
        prev = grads.get(nid)
        if prev is not None:
            g = add(prev, g)
        if not record:
            # the rule's intermediate nodes go with the links
            g.parents, g.prim, g.static = (), None, ()
        grads[nid] = g

    if output.nid in active:
        grads[output.nid] = constant(np.ones((), dtype=np.float64))
        for node in reversed(topo):
            ps = parts.pop(node.nid, None)
            if ps:
                put(node.nid, embed(*ps[0], node.value.shape[0], ps[1:]))
            g = grads.get(node.nid) if node.nid in wanted else grads.pop(node.nid, None)
            if g is not None:
                needed = tuple(p.nid in active for p in node.parents)
                if any(needed):
                    for p, pg in zip(node.parents, node.prim.vjp(node, g, needed)):
                        if isinstance(pg, tuple):
                            parts.setdefault(p.nid, []).append(pg)
                        elif pg is not None:
                            put(p.nid, pg)
    out = [grads.get(w.nid) or constant(np.zeros_like(w.value)) for w in wrt]
    return out if record else [g.value for g in out]


def release_unread(root, wrt):
    """Drop the values of ``root``'s graph that differentiating it with
    respect to ``wrt`` will not read, and those it can remake.

    A value stays when it is the root's or a constant's, or when a rule
    reads it (see :func:`_reads`), the rule by which :func:`grad` releases.
    Every other value becomes a NaN placeholder (see :func:`drop`).  So does
    every value that does not depend on ``wrt``, whose record is flagged
    ``remake`` and whose parents are constants or remade themselves; those
    nodes are returned in topological order.  Around each :func:`grad` over
    the graph, :func:`remake` them before and :func:`drop` them after: the
    derivatives are then bitwise the same as without the release.  The
    graph can no longer be evaluated again.
    """
    topo = toposort(root)
    active = _active(topo, wrt)
    remade, made = [], set()
    for node in topo:
        if (node.parents and node is not root and node.prim.remake
                and node.nid not in active
                and all(not p.parents or p.nid in made for p in node.parents)):
            remade.append(node)
            made.add(node.nid)
    drop([n for n in _unread(topo, active, root) if n.nid not in made] + remade)
    return remade


def remake(nodes):
    """Compute each node's value again from its parents', in order.  Each
    call allocates anew, so a value left remade is never one a later remake
    writes over."""
    for node in nodes:
        node.value = node.prim.value(*[p.value for p in node.parents], *node.static)


def drop(nodes):
    """Replace each node's value by a read-only NaN array of its shape and
    dtype that owns no buffer."""
    for node in nodes:
        v = node.value
        node.value = np.broadcast_to(np.array(np.nan, dtype=v.dtype), v.shape)


def check_finite(out):
    """Raise :class:`NumericError` unless every value of node ``out`` is
    finite, naming the earliest (topological) non-finite node of its graph."""
    if not np.all(np.isfinite(out.value)):
        bad = next(n for n in toposort(out) if not np.all(np.isfinite(n.value)))
        name = getattr(bad.prim, "name", "constant")
        raise NumericError(f"non-finite forward value (first at node {bad.nid}, {name})",
                           node_id=bad.nid)


# ---------------------------------------------------------------------------
# Flat parameter vector.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutEntry:
    name: str
    offset: int
    shape: tuple


class ParamVector:
    """All model parameters flattened into one float64 vector.

    The layout table assigns each named parameter tensor a contiguous slice,
    in fixed layer order, covering ``[0, size)`` exactly once.
    """

    __slots__ = ("data", "layout")

    def __init__(self, data, layout):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.data.ndim != 1:
            raise DimensionError("ParamVector data must be 1-d")
        total = sum(int(np.prod(e.shape)) for e in layout)
        if total != self.data.shape[0]:
            raise DimensionError(
                f"layout covers {total} entries but data has {self.data.shape[0]}"
            )
        self.layout = tuple(layout)

    @property
    def size(self):
        return self.data.shape[0]

    def with_data(self, data):
        return ParamVector(data, self.layout)

    def copy(self):
        return ParamVector(self.data.copy(), self.layout)


def param_data(theta):
    """The flat float64 parameter array of a :class:`ParamVector` or an array.

    An explicit type check rather than duck typing: a bare ndarray also has
    a ``.data`` attribute (a memoryview).
    """
    if isinstance(theta, ParamVector):
        return theta.data
    return np.asarray(theta, dtype=np.float64)


def _rewrap(arr, like):
    return like.with_data(arr) if isinstance(like, ParamVector) else arr


def value_and_grad(loss_fn, at, batch):
    """Loss value and exact parameter gradient.

    ``loss_fn(theta_node, batch)`` must build and return the scalar loss
    node.  The gradient comes from one reverse pass over that recording.
    """
    theta = constant(param_data(at))
    out = loss_fn(theta, batch)
    check_finite(out)
    (g,) = grad(out, [theta], record=False, release=True)
    return float(out.value), _rewrap(g, at)
