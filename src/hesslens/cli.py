"""Command-line front end.

Subcommands: ``train``, ``spectrum``, ``attack``, ``landscape``, ``sweep``.
:func:`main` reads and checks the whole JSON config (see
:mod:`hesslens.config`) before any command runs, so a bad value exits 1
before a checkpoint or any data is read; this holds for the rules that
read two keys too, and each rule holds for every command, also for the
sections a command does not read.  Only a key that asks for more rows than
the data holds is refused by the command that reads it, once the data is
read and before any training or solve.  ``--seed`` exists for ``train``,
``spectrum`` and ``landscape``, the commands whose config section has a
seed, and overrides that seed.  Every command writes its artifacts into
``--out``: deterministic CSVs with provenance comments, binary
checkpoints/datasets, and JSON sidecars for timing and summaries
(wall-clock never leaks into the deterministic files).

Exit codes: 0 success; 1 configuration error; 2 training divergence,
including a non-finite value anywhere in a training epoch;
3 finished but something did not converge (artifacts are still written;
`train`, `spectrum` and `sweep` only);
4 I/O, format, or missing-dependency failure, or a non-finite value in a
model pass outside training.  A failure prints one line on stderr.

``HESSLENS_THREADS`` caps the linear-algebra thread pools; it must be set
in the environment before the process starts, because ``hesslens`` applies
it when it is imported, before NumPy loads its BLAS.  Any value but a
positive integer (or empty) is a configuration error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, thread_cap
from .attacks import ATTACK_NORMS, eps_preset, evaluate_adversarial
from .config import load_config, load_data
from .dataio import (
    Dataset,
    load_checkpoint,
    provenance_lines,
    save_checkpoint,
    save_dataset,
    sha256_file,
    write_csv,
    write_json,
    write_npy,
)
from .errors import ConfigError, DependencyError, DivergenceError, FormatError, HessLensError
from .landscape import (grid, interpolate_models, line_rows, plane_rows, quadratic_coefficient,
                        random_direction, scan_1d, scan_2d)
from .nn import build_model
from .spectrum import SPECTRUM_FIELDS, input_spectrum, spectrum_rows, theta_spectrum
from .training import LAMBDA1_BATCH_CAP, METRIC_FIELDS, metrics_rows, sgd_train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_UNCONVERGED = 3
EXIT_IO = 4


def _parser():
    p = argparse.ArgumentParser(prog="hesslens",
                                description="Hessian spectra, attacks, and "
                                            "robust training for small nets")
    p.add_argument("--version", action="version", version=f"hesslens {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False, seed=False):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=True, help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the seed in this command's config section")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True,
                            help="trained checkpoint to analyze")

    common(sub.add_parser("train", help="fit a model (plain or adversarial)"),
           seed=True)
    common(sub.add_parser("spectrum", help="top-k Hessian eigenpairs"),
           checkpoint=True, seed=True)
    common(sub.add_parser("attack", help="run one attack and measure accuracy"),
           checkpoint=True)
    common(sub.add_parser("landscape", help="loss scans along directions"),
           checkpoint=True, seed=True)
    common(sub.add_parser("sweep", help="batch-size sweep: train, curvature, "
                                        "attack accuracy"))
    return p


def _prov(cfg, seed, extras=()):
    return provenance_lines(__version__, cfg.to_dict(), seed, extras)


# the artifacts' bytes depend on the BLAS thread count (and the NumPy build)
THREAD_VARS = ("HESSLENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def _write_sidecar(out, name, summary):
    """Write ``summary`` as the JSON sidecar ``name`` in ``out``, with the
    thread variables in force (null when unset) and NumPy's version."""
    write_json(os.path.join(out, name), {
        **summary, "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_version": np.__version__})


def _check_rows(key, wanted, rows, split):
    """ConfigError when ``key`` asks for more rows than the data's ``split`` holds."""
    if wanted > rows:
        raise ConfigError(f"{key} asks for {wanted} rows but the data holds "
                          f"{rows} {split} rows")


def cmd_train(cfg, args):
    model = build_model(cfg.model)
    data = load_data(cfg, model)
    tc = cfg.train_config()
    _check_rows("train.batch_size", tc.batch_size, data.x_train.shape[0], "training")
    os.makedirs(args.out, exist_ok=True)
    result = sgd_train(model, data, tc)
    ck = os.path.join(args.out, "checkpoint.bin")
    state = result.state
    save_checkpoint(ck, model, state)
    write_csv(os.path.join(args.out, "metrics.csv"), METRIC_FIELDS,
              metrics_rows(result.history), _prov(cfg, tc.seed))
    _write_sidecar(args.out, "run.json", {
        "command": "train", "converged": result.converged,
        "epochs_run": result.epochs_run, "final_loss": result.final_loss,
        # all wall-clock timing sits under this one key, the only one that
        # differs between same-seed reruns
        "elapsed_seconds": {"total": result.elapsed,
                            "epoch_seconds": result.epoch_seconds,
                            "eval_seconds": result.eval_seconds},
        "checkpoint_sha256": sha256_file(ck),
    })
    if not result.converged:
        print(f"train: target loss {tc.target_loss} not reached "
              f"(final {result.final_loss:.6g})", file=sys.stderr)
        return EXIT_UNCONVERGED
    print(f"train: reached loss {result.final_loss:.6g} "
          f"in {result.epochs_run} epochs")
    return EXIT_OK


def _load_trained(path, model):
    """The training state in checkpoint ``path``, and the file's hash.

    ConfigError if the checkpoint holds another model than ``model``;
    FormatError if its arrays do not fit ``model``.
    """
    header, state = load_checkpoint(path)
    name = model.config.name
    if header["model"] != name:
        raise ConfigError(f"checkpoint {path} holds model {header['model']!r} "
                          f"but the config names {name!r}")
    ref = model.new_bn_state()
    if (state.theta.layout != model.layout or sorted(state.bn_state) != sorted(ref)
            or any(state.bn_state[t][s].shape != ref[t][s].shape
                   for t in ref for s in ref[t])):
        raise FormatError(f"{path}: parameters do not fit model {name!r}")
    return state, sha256_file(path)


def cmd_spectrum(cfg, args):
    sp = cfg.spectrum
    model = build_model(cfg.model)
    state, ck_hash = _load_trained(args.checkpoint, model)
    os.makedirs(args.out, exist_ok=True)
    if sp["target"] == "theta":
        n = sp["batch_size"]
        data = load_data(cfg, model, train_rows=n)
        _check_rows("spectrum.batch_size", n, data.x_train.shape[0], "training")
        res = theta_spectrum(model, state.theta, (data.x_train[:n], data.y_train[:n]),
                             k=sp["k"], tol=sp["tol"], max_iter=sp["max_iter"],
                             seed=sp["seed"], bn_state=state.bn_state)
    else:
        i = sp["sample_index"]
        data = load_data(cfg, model, train_rows=i + 1)
        if not i < data.x_train.shape[0]:
            raise ConfigError(f"spectrum.sample_index {i} out of range")
        res = input_spectrum(model, state.theta,
                             (data.x_train[i].copy(), int(data.y_train[i])),
                             k=sp["k"], tol=sp["tol"], seed=sp["seed"],
                             bn_state=state.bn_state)
    extras = [f"checkpoint_sha256={ck_hash}", f"target={sp['target']}",
              f"dim={res.dim}"]
    write_csv(os.path.join(args.out, "spectrum.csv"), SPECTRUM_FIELDS,
              spectrum_rows(res), _prov(cfg, sp["seed"], extras))
    if sp["save_vectors"]:
        write_npy(os.path.join(args.out, "vectors.npy"),
                  np.stack([p.vector for p in res.pairs], axis=0))
    _write_sidecar(args.out, "spectrum.json", {
        "command": "spectrum", "target": sp["target"], "dim": res.dim,
        "converged_all": res.converged_all, "elapsed_seconds": res.elapsed,
        "eigenvalues": [p.value for p in res.pairs],
        "residuals": [p.residual for p in res.pairs],
        "hvps": res.hvps,
    })
    if not res.converged_all:
        bad = sum(not p.converged for p in res.pairs)
        print(f"spectrum: {bad} of {len(res.pairs)} pairs did not converge",
              file=sys.stderr)
        return EXIT_UNCONVERGED
    print(f"spectrum: top eigenvalue {res.top:.6g} (dim {res.dim})")
    return EXIT_OK


def cmd_attack(cfg, args):
    at = cfg.attack
    model = build_model(cfg.model)
    state, ck_hash = _load_trained(args.checkpoint, model)
    n = at["samples"]
    data = load_data(cfg, model, test_rows=n)
    _check_rows("attack.samples", n, data.x_test.shape[0], "test")
    os.makedirs(args.out, exist_ok=True)
    x, y = data.x_test[:n], data.y_test[:n]
    eps = cfg.attack_eps(model)
    ev = evaluate_adversarial(model, state.theta, x, y, at["name"], eps,
                              bn_state=state.bn_state, damping=cfg.damping())
    rep = ev.report
    rows = [{"index": str(i), "label": str(int(y[i])),
             "pre_clamp_norm": repr(float(rep.pre_clamp_norms[i]))} for i in range(n)]
    extras = [f"checkpoint_sha256={ck_hash}", f"attack={at['name']}",
              f"eps={eps!r}", f"norm={ATTACK_NORMS[at['name']]}"]
    write_csv(os.path.join(args.out, "attack.csv"),
              ("index", "label", "pre_clamp_norm"), rows, _prov(cfg, None, extras))
    _write_sidecar(args.out, "attack.json", {
        "command": "attack", "attack": at["name"], "eps": eps,
        "norm": ATTACK_NORMS[at["name"]],
        "clean_accuracy": ev.clean_accuracy,
        "adversarial_accuracy": ev.adversarial_accuracy,
        "samples": n,
    })
    if at["save_adversarial"]:
        adv = Dataset(f"{data.name}-{at['name']}", rep.x_adv, y, x, y,
                      {"kind": "adversarial", "attack": at["name"], "eps": eps,
                       "source_checkpoint_sha256": ck_hash})
        save_dataset(os.path.join(args.out, "adversarial.bin"), adv)
    print(f"attack: {at['name']} eps={eps} clean={ev.clean_accuracy:.4f} "
          f"adversarial={ev.adversarial_accuracy:.4f}")
    return EXIT_OK


def cmd_landscape(cfg, args):
    ls = cfg.landscape
    model = build_model(cfg.model)
    state, ck_hash = _load_trained(args.checkpoint, model)
    n = ls["batch_size"]
    data = load_data(cfg, model, train_rows=n)
    _check_rows("landscape.batch_size", n, data.x_train.shape[0], "training")
    os.makedirs(args.out, exist_ok=True)
    batch = (data.x_train[:n], data.y_train[:n])
    ts = grid(ls["radius"], ls["points"])
    extras = [f"checkpoint_sha256={ck_hash}", f"mode={ls['mode']}"]

    def direction(index):
        if ls["direction"] == "random":
            return random_direction(model.param_count, (ls["seed"], index))
        if not ls["vectors"]:
            raise DependencyError(
                "landscape.direction 'eigvec' needs landscape.vectors — "
                "produce it with the spectrum command (spectrum.save_vectors)"
            )
        try:
            with open(ls["vectors"], "rb") as f:
                vecs = np.lib.format.read_array(f)
        except OSError as exc:
            raise DependencyError(
                f"cannot read eigenvector file {ls['vectors']}: {exc}; "
                f"produce it with the spectrum command") from exc
        except ValueError as exc:  # not one .npy array, or pickled objects
            raise FormatError(f"{ls['vectors']}: {exc}") from exc
        if vecs.ndim != 2 or index >= vecs.shape[0]:
            raise FormatError(f"{ls['vectors']}: need at least "
                              f"{index + 1} stacked eigenvectors")
        if vecs.shape[1] != model.param_count:
            raise FormatError(f"{ls['vectors']}: eigenvectors of length "
                              f"{vecs.shape[1]}, but {cfg.model} has "
                              f"{model.param_count} parameters")
        if vecs.dtype.kind != "f" or not np.all(np.isfinite(vecs[index])):
            raise FormatError(f"{ls['vectors']}: eigenvector {index} is not "
                              f"finite floating point")
        return vecs[index]

    summary = {"command": "landscape", "mode": ls["mode"]}
    if ls["mode"] == "line":
        scan = scan_1d(model, state.theta, direction(0), ts, batch,
                       bn_state=state.bn_state)
        fields, rows = ("t", "loss"), line_rows(scan)
        fit = quadratic_coefficient(scan.ts, scan.losses)
        summary["second_derivative"] = fit if np.isfinite(fit) else None
    elif ls["mode"] == "plane":
        scan = scan_2d(model, state.theta, direction(0), direction(1), ts, ts,
                       batch, bn_state=state.bn_state)
        fields, rows = ("i", "j", "t1", "t2", "loss"), plane_rows(scan)
    else:
        other, _ = _load_trained(ls["other_checkpoint"], model)
        ts01 = np.linspace(-0.25, 1.25, ls["points"])
        scan = interpolate_models(model, state.theta, other.theta, ts01, batch,
                                  bn_state=state.bn_state)
        fields, rows = ("t", "loss"), line_rows(scan)

    write_csv(os.path.join(args.out, "landscape.csv"), fields, rows,
              _prov(cfg, ls["seed"], extras))
    _write_sidecar(args.out, "landscape.json", {**summary, "base_loss": scan.base_loss})
    print(f"landscape: {ls['mode']} scan of {len(rows)} points written")
    return EXIT_OK


def cmd_sweep(cfg, args):
    sw = cfg.sweep
    model = build_model(cfg.model)
    data = load_data(cfg, model)
    _check_rows("sweep.batch_sizes", max(sw["batch_sizes"]), data.x_train.shape[0],
                "training")
    _check_rows("sweep.eval_samples", sw["eval_samples"], data.x_test.shape[0], "test")
    os.makedirs(args.out, exist_ok=True)
    eps = (float(sw["eps"]) if sw["eps"] is not None
           else cfg.attack_eps(model) if sw["attack"] == cfg.attack["name"]
           else None)
    if eps is None:
        eps = eps_preset(model.in_shape, ATTACK_NORMS[sw["attack"]])
    rows = []
    unconverged = unsolved = 0
    for bs in sw["batch_sizes"]:
        for seed in sw["seeds"]:
            tc = replace(cfg.train_config(), batch_size=int(bs), seed=int(seed))
            result = sgd_train(model, data, tc)
            unconverged += not result.converged
            n_h = min(LAMBDA1_BATCH_CAP, data.x_train.shape[0])
            res = theta_spectrum(model, result.theta,
                                 (data.x_train[:n_h], data.y_train[:n_h]),
                                 k=1, tol=1e-3, max_iter=200, seed=int(seed),
                                 bn_state=result.bn_state)
            unsolved += not res.converged_all
            n_e = sw["eval_samples"]
            ev = evaluate_adversarial(model, result.theta, data.x_test[:n_e],
                                      data.y_test[:n_e], sw["attack"], eps,
                                      bn_state=result.bn_state,
                                      damping=cfg.damping())
            rows.append({
                "batch_size": str(int(bs)), "seed": str(int(seed)),
                "epochs": str(result.epochs_run),
                "train_loss": repr(result.final_loss),
                "lambda1": repr(res.top),
                "clean_acc": repr(ev.clean_accuracy),
                "adv_acc": repr(ev.adversarial_accuracy),
            })
            print(f"sweep: B={bs} seed={seed} loss={result.final_loss:.4g} "
                  f"lambda1={res.top:.4g} clean={ev.clean_accuracy:.4f} "
                  f"adv={ev.adversarial_accuracy:.4f}")
    extras = [f"attack={sw['attack']}", f"eps={eps!r}"]
    write_csv(os.path.join(args.out, "sweep.csv"),
              ("batch_size", "seed", "epochs", "train_loss", "lambda1",
               "clean_acc", "adv_acc"), rows, _prov(cfg, None, extras))
    failures = []
    if unconverged:
        failures.append(f"{unconverged} of {len(rows)} runs did not reach target "
                        f"loss {cfg.train_config().target_loss}")
    if unsolved:
        failures.append(f"{unsolved} of {len(rows)} lambda1 solves did not converge")
    if failures:
        print(f"sweep: {'; '.join(failures)}", file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "spectrum": cmd_spectrum,
    "attack": cmd_attack,
    "landscape": cmd_landscape,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        thread_cap()
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            getattr(cfg, args.command)["seed"] = args.seed
        # a non-finite value ends a command with one error line; NumPy's
        # floating-point warnings would only add more lines for it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"hesslens: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"hesslens: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"hesslens: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HessLensError as exc:
        print(f"hesslens: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
