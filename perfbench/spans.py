"""Span tracing of hesslens from outside the package.

The traced run swaps module attributes of ``hesslens`` for timing wrappers
and restores them afterwards; the package itself is not modified.  A name is
wrapped in every module that calls it, because Python looks a name up in the
caller's globals: ``power_iteration_topk`` is wrapped once as
``spectrum.power_iteration_topk`` (called by ``theta_spectrum``) and once as
``attacks.power_iteration_topk`` (called by the Newton attacks), and the two
count as different spans.  ``autodiff.col2im`` is patched in ``autodiff``
itself, where the vjp closures of ``im2col`` look it up.

Spans are aggregated in memory per name: calls, total seconds, seconds
covered by directly nested spans (for self time), Node objects created and
any work counters a span adds (flops, bytes, HVPs, samples).
"""

import time
from contextlib import contextmanager

from hesslens import attacks, autodiff, cli, config, dataio, nn, spectrum, training


def nodes_created():
    """Node ids handed out so far by the autodiff engine (its global counter)."""
    return int(repr(autodiff._ids)[len("count("):-1])


class Span:
    __slots__ = ("calls", "total", "child", "nodes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.nodes = 0


class Tracer:
    """Aggregating span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._stack = []
        self._patches = []

    def span(self, name):
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, work=None):
        stack = self._stack
        span = self.span(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            n0 = nodes_created()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                made = nodes_created() - n0
                stack.pop()
                span.calls += 1
                span.total += dt
                span.child += frame[0]
                span.nodes += made
                if stack:
                    stack[-1][0] += dt
            if work is not None:
                work(self, args, result, dt, made)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, work=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, work))

    def patch_item(self, mapping, key, name):
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(original, name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self):
        for owner, attr, name, work in _targets():
            self.patch(owner, attr, name, work)
        for command in ("train", "spectrum", "landscape"):
            self.patch_item(cli._COMMANDS, command, f"cli.{command}")


@contextmanager
def tracing(tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# -- work counters computed from array shapes ---------------------------------


def _matmul_flop(tr, args, out, dt, nodes):
    (m, k), n = args[0].value.shape, args[1].value.shape[1]
    tr.add("matmul_flop", 2 * m * k * n)


def _col2im_bytes(tr, args, out, dt, nodes):
    tr.add("col2im_bytes", args[0].value.nbytes + out.value.nbytes)


def _pairs(tr, args, out, dt, nodes):
    tr.add("spectrum.pairs", len(out))


def _cg_iters(tr, args, out, dt, nodes):
    tr.add("attacks.cg_iters", out[1])


def _attack(tr, args, out, dt, nodes):
    name, samples = args[4], args[2].shape[0]
    tr.add(f"attack.{name}.s", dt)
    tr.add(f"attack.{name}.samples", samples)
    tr.add("attack.nodes", nodes)
    tr.add("attack.samples", samples)
    if name in ("fhsm", "l2hess"):
        tr.add("attack.newton_samples", samples)


def _scan_points(tr, args, out, dt, nodes):
    tr.add("landscape.points", len(args[3]))


def _targets():
    """(owner, attribute, span name, work counter) for every traced call site."""
    theta_op = spectrum.ThetaHvpOperator
    input_op = spectrum.InputHvpOperator
    return [
        # autodiff primitives, looked up in autodiff by nn and by vjp closures
        (autodiff, "im2col", "autodiff.im2col", None),
        (autodiff, "col2im", "autodiff.col2im", _col2im_bytes),
        (autodiff, "matmul", "autodiff.matmul", _matmul_flop),
        (autodiff, "pool_select", "autodiff.pool", None),
        (autodiff, "pool_spread", "autodiff.pool", None),
        (autodiff, "grad", "autodiff.grad", None),
        (autodiff, "toposort", "autodiff.toposort", None),
        (nn.Model, "forward", "nn.forward", None),
        (nn.Model, "loss_and_accuracy", "nn.eval", None),
        # training and the layers it calls under its own names
        (training, "sgd_train", "training.sgd_train", None),
        (cli, "sgd_train", "training.sgd_train", None),
        (training, "_batch_step_grad", "training.step", None),
        (training, "attack_batch", "training.attack", _attack),
        (training, "theta_spectrum", "training.lambda1", None),
        # spectrum: operator build, products, solver
        (spectrum, "ThetaHvpOperator", "spectrum.operator_build", None),
        (theta_op, "__call__", "spectrum.hvp", None),
        (spectrum, "power_iteration_topk", "spectrum.power_iteration", _pairs),
        (spectrum, "orthonormalize_against", "tensorops.orthonormalize", None),
        # attacks: first-order gradients, Newton pieces
        (attacks, "attack_batch", "attacks.attack_batch", _attack),
        (attacks, "batch_input_gradients", "attacks.input_grad", None),
        (attacks, "InputHvpOperator", "attacks.operator_build", None),
        (input_op, "__call__", "attacks.hvp", None),
        (attacks, "power_iteration_topk", "attacks.lambda1", None),
        (attacks, "cg_solve", "attacks.cg", _cg_iters),
        (cli, "scan_1d", "landscape.scan", _scan_points),
        # files and data
        (cli, "load_checkpoint", "dataio.checkpoint_read", None),
        (dataio, "load_checkpoint", "dataio.checkpoint_read", None),
        (cli, "save_checkpoint", "dataio.checkpoint_write", None),
        (dataio, "save_checkpoint", "dataio.checkpoint_write", None),
        (cli, "write_csv", "dataio.csv_write", None),
        (dataio, "synth_blobs", "dataio.synth", None),
        (config, "synth_blobs", "dataio.synth", None),
        (cli, "load_data", "config.load_data", None),
    ]


# -- per-layer metrics -----------------------------------------------------------

# Layers whose work happens mostly in set-up: reported per set-up plus per round.
SETUP_LAYERS = {
    "dataio.checkpoint_read_s": "dataio.checkpoint_read",
    "dataio.checkpoint_write_s": "dataio.checkpoint_write",
    "dataio.csv_write_s": "dataio.csv_write",
    "dataio.synth_s": "dataio.synth",
    "config.load_data_s": "config.load_data",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, n_setups, rounds, n_rounds, round_s):
    """Per-layer values from a tracer of ``n_setups`` set-ups and one of ``n_rounds`` rounds.

    Times and counts are per round; ratios say per what in their name.  The
    keys are the ``per_layer`` metrics of ``BENCHMARK.json``.
    """
    s, c = rounds.spans, rounds.counters

    def total(*names):
        return sum(s[n].total for n in names if n in s)

    def calls(*names):
        return sum(s[n].calls for n in names if n in s)

    def nodes(*names):
        return sum(s[n].nodes for n in names if n in s)

    def self_time(name):
        return s[name].total - s[name].child if name in s else 0.0

    def per(x):
        return x / n_rounds

    hvp_calls = calls("spectrum.hvp", "attacks.hvp")
    newton = c.get("attack.newton_samples", 0)
    out = {
        "autodiff.im2col_s": per(total("autodiff.im2col")),
        "autodiff.col2im_s": per(total("autodiff.col2im")),
        "autodiff.matmul_s": per(total("autodiff.matmul")),
        "autodiff.pool_s": per(total("autodiff.pool")),
        "autodiff.grad_s": per(total("autodiff.grad")),
        "autodiff.toposort_s": per(total("autodiff.toposort")),
        "autodiff.nodes_per_step": _ratio(nodes("training.step"), calls("training.step")),
        "autodiff.nodes_per_hvp": _ratio(nodes("spectrum.hvp", "attacks.hvp"), hvp_calls),
        "autodiff.nodes_per_sample": _ratio(c.get("attack.nodes", 0), c.get("attack.samples", 0)),
        "autodiff.matmul_flop": per(c.get("matmul_flop", 0)),
        "autodiff.col2im_bytes": per(c.get("col2im_bytes", 0)),
        "nn.forward_s": per(total("nn.forward")),
        "nn.forward_calls": per(calls("nn.forward")),
        "nn.eval_s": per(total("nn.eval")),
        "training.steps": per(calls("training.step")),
        "training.self_s": per(self_time("training.sgd_train")),
        "training.attack_s": per(total("training.attack")),
        "training.lambda1_s": per(total("training.lambda1")),
        "spectrum.hvps": per(calls("spectrum.hvp")),
        "spectrum.hvps_per_pair": _ratio(calls("spectrum.hvp"), c.get("spectrum.pairs", 0)),
        "spectrum.hvp_ms": 1e3 * _ratio(total("spectrum.hvp"), calls("spectrum.hvp")),
        "spectrum.operator_build_s": per(total("spectrum.operator_build")),
        "spectrum.solver_s": per(total("spectrum.power_iteration") - total("spectrum.hvp")),
        "tensorops.orthonormalize_s": per(total("tensorops.orthonormalize")),
        "attacks.input_grad_s": per(total("attacks.input_grad")),
        "attacks.hvps_per_sample": _ratio(calls("attacks.hvp"), newton),
        "attacks.cg_iters_per_sample": _ratio(c.get("attacks.cg_iters", 0), newton),
        "attacks.lambda1_s": per(total("attacks.lambda1")),
        "attacks.cg_s": per(total("attacks.cg")),
        "attacks.operator_build_s": per(total("attacks.operator_build")),
        "attacks.hvp_ms": 1e3 * _ratio(total("attacks.hvp"), calls("attacks.hvp")),
        "landscape.points": per(c.get("landscape.points", 0)),
        "landscape.ms_per_point": 1e3 * _ratio(total("landscape.scan"),
                                               c.get("landscape.points", 0)),
        "cli.spectrum_s": per(total("cli.spectrum")),
        "cli.landscape_s": per(total("cli.landscape")),
        "trace.round_s": round_s,
    }
    for a in attacks.ATTACK_NAMES:
        out[f"attacks.{a}_ms"] = 1e3 * _ratio(c.get(f"attack.{a}.s", 0.0),
                                              c.get(f"attack.{a}.samples", 0))
    for metric, span in SETUP_LAYERS.items():
        setup_total = setup.spans[span].total if span in setup.spans else 0.0
        out[metric] = setup_total / n_setups + per(total(span))
    return out


def span_table(tracer):
    """Plain-data dump of a tracer for the result file."""
    return {
        "spans": {n: {"calls": s.calls, "total_s": s.total, "self_s": s.total - s.child,
                      "nodes": s.nodes} for n, s in sorted(tracer.spans.items())},
        "counters": dict(sorted(tracer.counters.items())),
    }
