"""Command-line front end.

Subcommands: ``train``, ``spectrum``, ``attack``, ``landscape``, ``sweep``.
Every run reads one JSON config (see :mod:`hesslens.config`) and writes its
artifacts into ``--out``: deterministic CSVs with provenance comments,
binary checkpoints/datasets, and JSON sidecars for timing and summaries
(wall-clock never leaks into the deterministic files).

Exit codes: 0 success; 1 configuration error; 2 training divergence;
3 finished but something did not converge (artifacts are still written;
`train`, `spectrum` and `sweep` only);
4 I/O, format, or missing-dependency failure.

``HESSLENS_THREADS`` caps the linear-algebra thread pools; it must be set
in the environment before the process starts, because ``hesslens`` applies
it when it is imported, before NumPy loads its BLAS.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .attacks import ATTACK_NORMS, evaluate_adversarial
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
from .errors import (
    ConfigError,
    CorruptionError,
    DependencyError,
    DivergenceError,
    FormatError,
    HessLensError,
    VersionError,
)
from .landscape import grid, interpolate_models, line_rows, plane_rows, random_direction, scan_1d, scan_2d
from .nn import build_model
from .spectrum import input_spectrum, spectrum_rows, theta_spectrum
from .training import METRIC_FIELDS, metrics_rows, sgd_train

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

    def common(sp, checkpoint=False):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the relevant section seed")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True,
                            help="trained checkpoint to analyze")

    common(sub.add_parser("train", help="fit a model (plain or adversarial)"))
    common(sub.add_parser("spectrum", help="top-k Hessian eigenpairs"),
           checkpoint=True)
    common(sub.add_parser("attack", help="run one attack and measure accuracy"),
           checkpoint=True)
    common(sub.add_parser("landscape", help="loss scans along directions"),
           checkpoint=True)
    common(sub.add_parser("sweep", help="batch-size sweep: train, curvature, "
                                        "attack accuracy"))
    return p


def _prov(cfg, seed, extras=()):
    return provenance_lines(__version__, cfg.to_dict(), seed, extras)


def cmd_train(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.train["seed"] = args.seed
    model = build_model(cfg.model)
    data = load_data(cfg, model)
    tc = cfg.train_config()
    os.makedirs(args.out, exist_ok=True)
    result = sgd_train(model, data, tc)
    ck = os.path.join(args.out, "checkpoint.bin")
    state = result.state
    save_checkpoint(ck, model, state, cfg.to_dict())
    write_csv(os.path.join(args.out, "metrics.csv"), METRIC_FIELDS,
              metrics_rows(result.history), _prov(cfg, tc.seed))
    write_json(os.path.join(args.out, "run.json"), {
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


def _load_trained(args, cfg):
    header, state = load_checkpoint(args.checkpoint)
    if header["model"] != cfg.model:
        raise ConfigError(f"checkpoint {args.checkpoint} holds model "
                          f"{header['model']!r} but the config names {cfg.model!r}")
    model = build_model(cfg.model)
    _check_state(args.checkpoint, state, model)
    return header, state, model, sha256_file(args.checkpoint)


def _check_state(path, state, model):
    """FormatError unless a loaded checkpoint's arrays fit ``model``."""
    ref = model.new_bn_state()
    if (state.theta.layout != model.layout or sorted(state.bn_state) != sorted(ref)
            or any(state.bn_state[t][s].shape != ref[t][s].shape
                   for t in ref for s in ref[t])):
        raise FormatError(f"{path}: parameters do not fit model {model.config.name!r}")


def cmd_spectrum(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.spectrum["seed"] = args.seed
    sp = cfg.spectrum
    header, state, model, ck_hash = _load_trained(args, cfg)
    data = load_data(cfg, model)
    os.makedirs(args.out, exist_ok=True)
    if sp["target"] == "theta":
        n = min(sp["batch_size"], data.x_train.shape[0])
        # copies, so the operator's graph does not keep the whole dataset alive
        batch = (data.x_train[:n].copy(), data.y_train[:n].copy())
        del data  # the solve needs only the probe batch
        res = theta_spectrum(model, state.theta, batch, k=sp["k"], tol=sp["tol"],
                             max_iter=sp["max_iter"], seed=sp["seed"],
                             bn_state=state.bn_state)
    elif sp["target"] == "input":
        i = sp["sample_index"]
        if not 0 <= i < data.x_train.shape[0]:
            raise ConfigError(f"spectrum.sample_index {i} out of range")
        res = input_spectrum(model, state.theta,
                             (data.x_train[i].copy(), int(data.y_train[i])),
                             k=sp["k"], tol=sp["tol"], seed=sp["seed"],
                             bn_state=state.bn_state)
    else:
        raise ConfigError(f"spectrum.target must be 'theta' or 'input', "
                          f"got {sp['target']!r}")
    extras = [f"checkpoint_sha256={ck_hash}", f"target={sp['target']}",
              f"dim={res.dim}"]
    write_csv(os.path.join(args.out, "spectrum.csv"),
              ("index", "eigenvalue", "iterations", "converged"),
              spectrum_rows(res), _prov(cfg, sp["seed"], extras))
    if sp["save_vectors"]:
        write_npy(os.path.join(args.out, "vectors.npy"),
                  np.stack([p.vector for p in res.pairs], axis=0))
    write_json(os.path.join(args.out, "spectrum.json"), {
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


def cmd_attack(args):
    cfg = load_config(args.config)
    at = cfg.attack
    header, state, model, ck_hash = _load_trained(args, cfg)
    data = load_data(cfg, model)
    os.makedirs(args.out, exist_ok=True)
    n = min(at["samples"], data.x_test.shape[0])
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
    write_json(os.path.join(args.out, "attack.json"), {
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


def cmd_landscape(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.landscape["seed"] = args.seed
    ls = cfg.landscape
    header, state, model, ck_hash = _load_trained(args, cfg)
    data = load_data(cfg, model)
    os.makedirs(args.out, exist_ok=True)
    n = min(ls["batch_size"], data.x_train.shape[0])
    batch = (data.x_train[:n], data.y_train[:n])
    ts = grid(ls["radius"], ls["points"])
    extras = [f"checkpoint_sha256={ck_hash}", f"mode={ls['mode']}"]

    def direction(index):
        if ls["direction"] == "random":
            return random_direction(model.param_count, (ls["seed"], index))
        if ls["direction"] == "eigvec":
            if not ls["vectors"]:
                raise DependencyError(
                    "landscape.direction 'eigvec' needs landscape.vectors — "
                    "produce it with the spectrum command (spectrum.save_vectors)"
                )
            try:
                vecs = np.load(ls["vectors"])
            except OSError as exc:
                raise DependencyError(
                    f"cannot read eigenvector file {ls['vectors']}: {exc}; "
                    f"produce it with the spectrum command") from exc
            if vecs.ndim != 2 or index >= vecs.shape[0]:
                raise FormatError(f"{ls['vectors']}: need at least "
                                  f"{index + 1} stacked eigenvectors")
            return vecs[index]
        raise ConfigError(f"landscape.direction must be 'random' or 'eigvec', "
                          f"got {ls['direction']!r}")

    if ls["mode"] == "line":
        scan = scan_1d(model, state.theta, direction(0), ts, batch,
                       bn_state=state.bn_state)
        fields, rows = ("t", "loss"), line_rows(scan)
        summary = {"base_loss": scan.base_loss}
    elif ls["mode"] == "plane":
        scan = scan_2d(model, state.theta, direction(0), direction(1), ts, ts,
                       batch, bn_state=state.bn_state)
        fields, rows = ("i", "j", "t1", "t2", "loss"), plane_rows(scan)
        summary = {"base_loss": scan.base_loss}
    elif ls["mode"] == "interpolate":
        if not ls["other_checkpoint"]:
            raise ConfigError("landscape.other_checkpoint is required for "
                              "mode 'interpolate'")
        _, other = load_checkpoint(ls["other_checkpoint"])
        _check_state(ls["other_checkpoint"], other, model)
        ts01 = np.linspace(-0.25, 1.25, ls["points"])
        scan = interpolate_models(model, state.theta, other.theta, ts01, batch,
                                  bn_state=state.bn_state)
        fields, rows = ("t", "loss"), line_rows(scan)
        summary = {"base_loss": scan.base_loss}
    else:
        raise ConfigError(f"unknown landscape.mode {ls['mode']!r}")

    write_csv(os.path.join(args.out, "landscape.csv"), fields, rows,
              _prov(cfg, ls["seed"], extras))
    write_json(os.path.join(args.out, "landscape.json"),
               dict(summary, command="landscape", mode=ls["mode"]))
    print(f"landscape: {ls['mode']} scan of {len(rows)} points written")
    return EXIT_OK


def cmd_sweep(args):
    cfg = load_config(args.config)
    sw = cfg.sweep
    model = build_model(cfg.model)
    data = load_data(cfg, model)
    os.makedirs(args.out, exist_ok=True)
    eps = (float(sw["eps"]) if sw["eps"] is not None
           else cfg.attack_eps(model) if sw["attack"] == cfg.attack["name"]
           else None)
    if eps is None:
        from .attacks import eps_preset
        eps = eps_preset(model.in_shape, ATTACK_NORMS[sw["attack"]])
    rows = []
    any_unconverged = False
    for bs in sw["batch_sizes"]:
        for seed in sw["seeds"]:
            tc = cfg.train_config()
            tc = type(tc)(**{**tc.__dict__, "batch_size": int(bs),
                             "seed": int(seed)})
            result = sgd_train(model, data, tc)
            any_unconverged |= not result.converged
            n_h = min(320, data.x_train.shape[0])
            res = theta_spectrum(model, result.theta,
                                 (data.x_train[:n_h], data.y_train[:n_h]),
                                 k=1, tol=1e-3, max_iter=200, seed=int(seed),
                                 bn_state=result.bn_state)
            n_e = min(sw["eval_samples"], data.x_test.shape[0])
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
    return EXIT_UNCONVERGED if any_unconverged else EXIT_OK


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
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"hesslens: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"hesslens: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FormatError, CorruptionError, VersionError, DependencyError) as exc:
        print(f"hesslens: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"hesslens: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HessLensError as exc:
        print(f"hesslens: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
