"""
What adversarial training does to the Hessian
=============================================

Train the small conv net twice at batch size 256 -- once normally, once
on FGSM-perturbed batches (the min-max game) -- and compare:

  * the top of the parameter-Hessian spectrum at each solution,
  * accuracy under all five attacks,
  * a transfer attack: perturbations crafted on the plain model, applied
    to the robust one.

The robust minimum is flatter across the whole top of the spectrum, and
the flatness is what survives transfer.
"""

import argparse

import hesslens as hl


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--batch", type=int, default=256)
    ap.add_argument("--eps", type=float, default=0.1,
                    help="training and evaluation perturbation size (linf)")
    ap.add_argument("--samples", type=int, default=500,
                    help="test samples used for attack evaluation")
    ap.add_argument("--topk", type=int, default=5,
                    help="eigenvalues to report per model")
    args = ap.parse_args()

    data = hl.synth_blobs(5000, 1000, seed=0, separation=3.0, noise=0.2)
    model = hl.build_model("m1_desk")

    base = dict(model="m1_desk", batch_size=args.batch, lr=0.01, momentum=0.9,
                epochs=150, target_loss=0.01, halve_every=0, seed=0)
    plain = hl.sgd_train(model, data, hl.TrainConfig(**base))
    robust = hl.sgd_train(model, data,
                          hl.TrainConfig(attack="fgsm", eps=args.eps, **base))
    print(f"plain:  {plain.epochs_run} epochs, final loss {plain.final_loss:.4f}")
    print(f"robust: {robust.epochs_run} epochs, final loss {robust.final_loss:.4f}")
    print()

    probe = (data.x_train[:320], data.y_train[:320])
    spectra = {}
    for tag, result in (("plain", plain), ("robust", robust)):
        spec = hl.theta_spectrum(model, result.theta, probe, k=args.topk,
                                 tol=1e-3, max_iter=300, seed=0)
        spectra[tag] = [p.value for p in spec.pairs]
    print(f"top {args.topk} parameter-Hessian eigenvalues:")
    for tag in ("plain", "robust"):
        vals = "  ".join(f"{v:8.3f}" for v in spectra[tag])
        print(f"  {tag:>6}: {vals}")
    ratio = spectra["plain"][0] / spectra["robust"][0]
    print(f"  lambda_1 ratio plain/robust = {ratio:.1f}")
    print()

    xe, ye = data.x_test[:args.samples], data.y_test[:args.samples]
    print(f"{'attack':>7} {'norm':>5} {'eps':>6} {'plain acc':>10} "
          f"{'robust acc':>11}")
    for name in hl.ATTACK_NAMES:
        norm = hl.ATTACK_NORMS[name]
        eps = args.eps if norm == "linf" else hl.eps_preset(model.in_shape, "l2")
        evs = [hl.evaluate_adversarial(model, r.theta, xe, ye, name, eps)
               for r in (plain, robust)]
        print(f"{name:>7} {norm:>5} {eps:>6.2f} "
              f"{evs[0].adversarial_accuracy:>10.3f} "
              f"{evs[1].adversarial_accuracy:>11.3f}")

    # transfer: attack directions from the plain model, applied to the robust
    transfer = hl.evaluate_adversarial(model, robust.theta, xe, ye, "fgsm",
                                       args.eps,
                                       source=(model, plain.theta, None))
    direct = hl.evaluate_adversarial(model, robust.theta, xe, ye, "fgsm",
                                     args.eps)
    print()
    print(f"fgsm on robust model, perturbations from plain model: "
          f"{transfer.adversarial_accuracy:.3f}")
    print(f"fgsm on robust model, perturbations from itself:      "
          f"{direct.adversarial_accuracy:.3f}")
    print(f"clean accuracy of robust model:                       "
          f"{transfer.clean_accuracy:.3f}")


if __name__ == "__main__":
    main()
