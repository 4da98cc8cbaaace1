"""
Batch size, curvature, and adversarial fragility
================================================

Train the same small convolutional net on a synthetic blob problem with
four different batch sizes, then put each minimum under the microscope:

  * the largest parameter-Hessian eigenvalue (block Lanczos on exact
    Hessian-vector products),
  * clean test accuracy,
  * test accuracy after a one-step FGSM perturbation.

Large batches find sharper minima, and sharper minima lose more accuracy
to the same-size perturbation.  Small batches pay for their flatness with
more optimization steps.  Runs in about a minute on one core.
"""

import hesslens as hl

# one dataset, shared by every run: 10 gaussian blobs in 28x28 "images"
data = hl.synth_blobs(5000, 1000, seed=0, separation=3.0, noise=0.2)
model = hl.build_model("m1_desk")

# curvature is probed on a fixed batch so the numbers are comparable
probe = (data.x_train[:256], data.y_train[:256])
eps = hl.eps_preset(model.in_shape, "linf")

print(f"model={model.config.name}  params={model.param_count}  fgsm eps={eps}")
print(f"{'batch':>6} {'epochs':>7} {'final loss':>11} {'lambda_1':>10} "
      f"{'clean acc':>10} {'fgsm acc':>9} {'drop':>6}")

for batch in (16, 64, 256, 1024):
    cfg = hl.TrainConfig(model="m1_desk", batch_size=batch, lr=0.01,
                         momentum=0.9, epochs=150, target_loss=0.01,
                         halve_every=0, seed=0)
    result = hl.sgd_train(model, data, cfg)

    spec = hl.theta_spectrum(model, result.theta, probe, k=1, tol=1e-3,
                             max_iter=200, seed=0)
    lam1 = spec.pairs[0].value

    ev = hl.evaluate_adversarial(model, result.theta,
                                 data.x_test[:500], data.y_test[:500],
                                 "fgsm", eps)

    print(f"{batch:>6} {result.epochs_run:>7} {result.final_loss:>11.4f} "
          f"{lam1:>10.3f} {ev.clean_accuracy:>10.3f} "
          f"{ev.adversarial_accuracy:>9.3f} "
          f"{ev.clean_accuracy - ev.adversarial_accuracy:>6.3f}")

print()
print("Reading the table: lambda_1 grows with batch size while the FGSM")
print("column shrinks -- the sharper the minimum, the cheaper the attack.")
