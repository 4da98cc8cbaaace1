"""Reverse-mode differentiation with exact second-order support.

The engine records an eager DAG of ``Node`` objects.  Every primitive's
backward rule is itself built out of the same primitives, so the gradient
graph can be differentiated again: Hessian-vector products are obtained by
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

Only the backward rules of ``mul``, ``matmul``, ``exp``, ``log`` and
``power`` read operand values: a product reads each operand to form the
other's adjoint, the others their operand for its own.  Every other rule
reads shapes, its own constants (masks, pooling indices, geometries) and the
adjoint it is given.  So a graph that will only be differentiated again,
toward known nodes, needs no more than the values of its root, its
constants and the operands those rules then read.  :func:`grad` applies
that rule while it sweeps: a sweep whose caller reads only numbers makes
each adjoint a plain value as soon as it is formed and lets it go once
consumed, a graph used once drops the forward values no rule of its sweep
reads, and a recorded sweep that releases drops each adjoint no rule reads
as soon as no pending node needs it.  :func:`release_unread` drops all the
other values of a finished graph, and also those of constants alone that
are cheap to compute again (``im2col`` and ``transpose``, such as an input
batch's patch matrix), which :func:`remake` recomputes around each
differentiation.  A
dropped value becomes a read-only NaN array of its shape and dtype with no
buffer: should a rule ever read one, its product turns NaN and the
non-finite check of the caller fails loudly, where a zero would go wrong
silently.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

_ids = itertools.count()


class Node:
    """One value in the recorded computation DAG.

    ``vjp(g, needed)`` maps the output adjoint ``g`` (a Node) to one adjoint
    Node per parent, skipping parents whose ``needed`` flag is False; a
    :func:`view` returns a part ``(g, start)`` instead.  A node without
    parents is a constant.  ``reads_parents`` says that ``vjp`` reads the
    parents' values, not only their shapes, and ``remake()``, when set,
    computes the value again from the parents' values (see
    :func:`release_unread`).
    """

    __slots__ = ("value", "parents", "vjp", "nid", "reads_parents", "remake")

    def __init__(self, value, parents=(), vjp=None, reads_parents=False):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.nid = next(_ids)
        self.reads_parents = reads_parents
        self.remake = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(id={self.nid}, shape={self.value.shape})"


def constant(x):
    """A graph input; :func:`grad` can differentiate with respect to it."""
    return Node(np.asarray(x, dtype=np.float64))


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
    out = Node(_sum_to_value(x.value, shape), (x,), None)
    out.vjp = lambda g, needed: (broadcast_to(g, x.value.shape),)
    return out


def broadcast_to(x, shape):
    shape = tuple(shape)
    if x.value.shape == shape:
        return x
    out = Node(np.broadcast_to(x.value, shape), (x,), None)
    out.vjp = lambda g, needed: (sum_to(g, x.value.shape),)
    return out


def add(a, b):
    out = Node(a.value + b.value, (a, b), None)
    out.vjp = lambda g, needed: (
        sum_to(g, a.value.shape) if needed[0] else None,
        sum_to(g, b.value.shape) if needed[1] else None,
    )
    return out


def sub(a, b):
    out = Node(a.value - b.value, (a, b), None)
    out.vjp = lambda g, needed: (
        sum_to(g, a.value.shape) if needed[0] else None,
        sum_to(mul_const(g, -1.0), b.value.shape) if needed[1] else None,
    )
    return out


def mul(a, b):
    out = Node(a.value * b.value, (a, b), None, reads_parents=True)
    out.vjp = lambda g, needed: (
        sum_to(mul(g, b), a.value.shape) if needed[0] else None,
        sum_to(mul(g, a), b.value.shape) if needed[1] else None,
    )
    return out


def mul_const(x, c):
    """Elementwise product with a fixed array (no gradient into ``c``).

    A boolean ``c`` stays boolean: NumPy multiplies by it as by 1.0 and 0.0,
    at an eighth of a float mask's memory.
    """
    c = np.asarray(c)
    if c.dtype != np.bool_:
        c = c.astype(np.float64, copy=False)
    out = Node(x.value * c, (x,), None)
    out.vjp = lambda g, needed: (sum_to(mul_const(g, c), x.value.shape),)
    return out


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-d operands")
    out = Node(a.value @ b.value, (a, b), None, reads_parents=True)
    out.vjp = lambda g, needed: (
        matmul(g, transpose(b)) if needed[0] else None,
        matmul(transpose(a), g) if needed[1] else None,
    )
    return out


def transpose(x, axes=None):
    if axes is None:
        axes = tuple(reversed(range(x.value.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Node(np.transpose(x.value, axes), (x,), None)
    out.vjp = lambda g, needed: (transpose(g, inv),)
    out.remake = lambda: np.transpose(x.value, axes)
    return out


def reshape(x, shape):
    shape = tuple(shape)
    out = Node(np.reshape(x.value, shape), (x,), None)
    out.vjp = lambda g, needed: (reshape(g, x.value.shape),)
    return out


def view(x, start, shape):
    """Entries ``start:start+prod(shape)`` of the 1-d ``x`` as a ``shape`` array.

    Its vjp returns the part ``(g, start)`` rather than a node: :func:`grad`
    writes all the parts of one node's views with a single :func:`embed`.
    """
    out = Node(x.value[start : start + int(np.prod(shape))].reshape(shape), (x,), None)
    out.vjp = lambda g, needed: ((g, start),)
    return out


def embed(x, start, n, more=()):
    """Adjoint of :func:`view`: ``x``, row-major, at ``start`` of ``n`` zeros.

    ``more`` holds further ``(node, start)`` parts.  With several parts each
    is added onto the zeros in order, so a disjoint part reads ``x + 0.0``,
    bit for bit the sum of one single-part embed per part, and overlapping
    parts add up.
    """
    parts = ((x, start),) + tuple(more)
    v = np.zeros(n, dtype=np.float64)
    for p, s in parts:
        # through a shaped view of the slice, so a transposed p is copied once
        seg = v[s : s + p.value.size].reshape(p.value.shape)
        if len(parts) == 1:
            seg[...] = p.value
        else:
            seg += p.value
    out = Node(v, tuple(p for p, _ in parts), None)
    out.vjp = lambda g, needed: tuple(
        view(g, s, p.value.shape) if need else None for (p, s), need in zip(parts, needed)
    )
    return out


def sum_all(x):
    out = Node(np.asarray(x.value.sum()), (x,), None)
    out.vjp = lambda g, needed: (broadcast_to(g, x.value.shape),)
    return out


def sum_axis(x, axis):
    """Sum over ``axis``, keeping the reduced axes with length 1."""
    axis = (axis,) if isinstance(axis, int) else tuple(axis)
    out = Node(x.value.sum(axis=axis, keepdims=True), (x,), None)
    out.vjp = lambda g, needed: (broadcast_to(g, x.value.shape),)
    return out


def mean_axis(x, axis):
    axis = (axis,) if isinstance(axis, int) else tuple(axis)
    n = int(np.prod([x.value.shape[i] for i in axis]))
    return mul_const(sum_axis(x, axis), 1.0 / n)


def exp(x):
    out = Node(np.exp(x.value), (x,), None, reads_parents=True)
    # exp(x) again rather than ``out``: a closure over its own node would
    # make every loss graph a reference cycle, freed only by the cyclic GC
    out.vjp = lambda g, needed: (mul(g, exp(x)),)
    return out


def log(x):
    out = Node(np.log(x.value), (x,), None, reads_parents=True)
    out.vjp = lambda g, needed: (mul(g, power(x, -1.0)),)
    return out


def power(x, p):
    p = float(p)
    out = Node(x.value**p, (x,), None, reads_parents=True)
    out.vjp = lambda g, needed: (mul_const(mul(g, power(x, p - 1.0)), p),)
    return out


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
    out = Node(_im2col_value(x.value, geom), (x,), None)
    out.vjp = lambda g, needed: (col2im(g, geom),)
    # through the module name, so a tracer of im2col sees the re-lowering
    out.remake = lambda: im2col(x, geom).value
    return out


def col2im(cols, geom):
    """Adjoint of :func:`im2col` (overlap-add back onto the image)."""
    out = Node(_col2im_value(cols.value, geom), (cols,), None)
    out.vjp = lambda g, needed: (im2col(g, geom),)
    return out


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
    val = np.take_along_axis(_pool_windows(x.value, geom), idx[None], axis=0)[0]
    out = Node(val, (x,), None)
    out.vjp = lambda g, needed: (pool_spread(g, idx, geom),)
    return out


def pool_spread(y, idx, geom):
    g = geom
    full = np.zeros((g.channels, g.in_h, g.in_w, y.value.shape[-1]), dtype=np.float64)
    for k in range(g.win * g.win):
        r, c = divmod(k, g.win)
        full[:, r : g.out_h * g.win : g.win, c : g.out_w * g.win : g.win] = np.where(
            idx == k, y.value, 0.0
        )
    out = Node(full, (y,), None)
    out.vjp = lambda gg, needed: (pool_select(gg, idx, geom),)
    return out


def maxpool(x, geom):
    return pool_select(x, pool_argmax(x.value, geom), geom)


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
    if not node.reads_parents:
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

    ``release=True`` drops (see :func:`drop`) every value that no rule
    reads, for a graph that is differentiated once, or only again toward
    ``wrt``: before the sweep, each forward value other than the root's that
    no rule of the sweep reads (the graph can then no longer be evaluated
    again), and in a recorded sweep each adjoint value as soon as no rule
    made so far reads it and no pending node still needs it.  The recorded
    graph then holds the values :func:`release_unread` would keep and the
    forward values the sweep read.

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
    made = _MadeValues(output.nid, active) if record and release else None

    def put(nid, g):
        prev = grads.get(nid)
        if prev is not None:
            g = add(prev, g)
        if not record:
            # the rule's intermediate nodes go with the links
            g.parents, g.vjp, g.remake = (), None, None
        grads[nid] = g

    if output.nid in active:
        grads[output.nid] = constant(np.ones((), dtype=np.float64))
        for node in reversed(topo):
            ps = parts.pop(node.nid, None)
            if ps:
                put(node.nid, embed(*ps[0], node.value.shape[0], ps[1:]))
            g = grads.get(node.nid) if node.nid in wanted else grads.pop(node.nid, None)
            if g is not None and node.vjp is not None:
                needed = tuple(p.nid in active for p in node.parents)
                if any(needed):
                    for p, pg in zip(node.parents, node.vjp(g, needed)):
                        if isinstance(pg, tuple):
                            parts.setdefault(p.nid, []).append(pg)
                        elif pg is not None:
                            put(p.nid, pg)
            if made is not None:
                made.release(grads, parts)
    out = [grads.get(w.nid) or constant(np.zeros_like(w.value)) for w in wrt]
    return out if record else [g.value for g in out]


class _MadeValues:
    """The nodes that a recorded sweep which releases has made, keyed by
    node id: which depend on ``wrt`` (added to ``active``), which values
    their rules read, and which values are alive but not read."""

    def __init__(self, newest, active):
        self.newest = newest  # every node with a larger id was made by the sweep
        self.active = active
        self.read = set()
        self.live = {}

    def release(self, grads, parts):
        """After one node's step: note the nodes made since the last call
        (each is reachable from a pending adjoint), then drop each made
        value that no rule reads and no pending node needs.  A value's
        readers are all made by the time its own rule, a sum or an embed
        has consumed it, so a value dropped here is never read."""
        pending = {g.nid: g for g in grads.values()}
        pending.update((p.nid, p) for ps in parts.values() for p, _ in ps)
        made, stack = {}, [g for g in pending.values() if g.nid > self.newest]
        while stack:
            n = stack.pop()
            if n.nid not in made:
                made[n.nid] = n
                stack.extend(p for p in n.parents if p.nid > self.newest)
        for nid in sorted(made):  # ids grow in topological order
            n = made[nid]
            if any(p.nid in self.active for p in n.parents):
                self.active.add(nid)
            self.read.update(p.nid for p in _reads(n, self.active))
        self.newest = max(made, default=self.newest)
        self.live.update((nid, n) for nid, n in made.items() if n.parents)
        for nid in list(self.live):
            if nid in self.read:
                del self.live[nid]
            elif nid not in pending:
                drop([self.live.pop(nid)])


def release_unread(root, wrt):
    """Drop the values of ``root``'s graph that differentiating it with
    respect to ``wrt`` will not read, and those it can remake.

    A value stays when it is the root's or a constant's, or when a rule
    reads it: a ``mul`` or ``matmul`` operand when the other operand depends
    on ``wrt``, an ``exp``, ``log`` or ``power`` operand when it depends on
    ``wrt`` itself.  This is the rule by which :func:`grad` releases.  Every
    other value becomes a NaN placeholder (see :func:`drop`).  So does every
    value that does not depend on ``wrt``, has a ``remake`` and whose
    parents are constants or remade themselves; those nodes are returned in
    topological order.  Around each :func:`grad` over the graph,
    :func:`remake` them before and :func:`drop` them after: the derivatives
    are then bitwise the same as without the release.  The graph can no
    longer be evaluated again.
    """
    topo = toposort(root)
    active = _active(topo, wrt)
    remade, made = [], set()
    for node in topo:
        if (node.parents and node is not root and node.remake is not None
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
        node.value = node.remake()


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
        nid = next(n.nid for n in toposort(out) if not np.all(np.isfinite(n.value)))
        raise NumericError(f"non-finite forward value (first at node {nid})", node_id=nid)


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
