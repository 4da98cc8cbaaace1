"""
Walking the loss surface along eigenvectors
===========================================

Three ways to look at the landscape around a trained minimum:

  1. a 1-D scan along the top Hessian eigenvector, where the best-fit
     parabola's second derivative should reproduce the eigenvalue that
     block Lanczos reported;
  2. a 2-D scan over the plane spanned by the top two eigenvectors;
  3. the straight segment between two independently trained minima.

All scans evaluate the true loss on a fixed batch -- no quadratic model
is assumed anywhere except in the *fit* of step 1, which is the point.
"""

import numpy as np

import hesslens as hl

data = hl.synth_blobs(5000, 1000, seed=0, separation=3.0, noise=0.2)
model = hl.build_model("m1_desk")
cfg = hl.TrainConfig(model="m1_desk", batch_size=256, lr=0.01, momentum=0.9,
                     epochs=150, target_loss=0.01, halve_every=0, seed=0)
run_a = hl.sgd_train(model, data, cfg)

probe = (data.x_train[:320], data.y_train[:320])
spec = hl.theta_spectrum(model, run_a.theta, probe, k=2, tol=1e-4,
                         max_iter=1000, seed=0)
v1, v2 = spec.pairs[0].vector, spec.pairs[1].vector
lam1, lam2 = spec.pairs[0].value, spec.pairs[1].value
print(f"block Lanczos: lambda_1 = {lam1:.4f}, lambda_2 = {lam2:.4f}")

# --- 1. line scan along v1; the radius is small enough that the surface
#        is genuinely quadratic, large enough that the loss change is far
#        above float noise
ts = hl.grid(2e-3, 9)
line = hl.scan_1d(model, run_a.theta, v1, ts, probe)
fit = hl.quadratic_coefficient(line.ts, line.losses)
print(f"parabola fit along v1: second derivative = {fit:.4f} "
      f"(relative gap {abs(fit - lam1) / lam1:.1e})")
print()

# --- 2. plane scan over (v1, v2): a 5x5 grid of true losses.  The wider
#        radius lets the quadratic term dominate the residual gradient, so
#        the bowl is visible by eye
ts5 = hl.grid(5e-2, 5)
plane = hl.scan_2d(model, run_a.theta, v1, v2, ts5, ts5, probe)
print("loss over the (v1, v2) plane, rows = t along v1, cols = t along v2:")
print(f"{'':>9}" + "".join(f"{t:>10.3f}" for t in ts5))
for i, t1 in enumerate(ts5):
    row = "".join(f"{plane.losses[i, j]:>10.5f}" for j in range(len(ts5)))
    print(f"{t1:>9.3f}{row}")
print("(a bowl centered near the minimum; moving along v1 costs more "
      "than moving along v2)")
print()

# --- 3. segment between two minima found from different initializations
cfg_b = hl.TrainConfig(model="m1_desk", batch_size=256, lr=0.01, momentum=0.9,
                       epochs=150, target_loss=0.01, halve_every=0, seed=1)
run_b = hl.sgd_train(model, data, cfg_b)
ts_seg = np.linspace(-0.25, 1.25, 13)
seg = hl.interpolate_models(model, run_a.theta, run_b.theta, ts_seg, probe)
print("loss along the straight segment between the two minima:")
for t, loss in zip(seg.ts, seg.losses):
    bar = "#" * min(60, int(loss * 20))
    print(f"  t={t:+.2f}  loss={loss:9.4f}  {bar}")
print("(both endpoints sit in basins; the straight path between them "
      "climbs over a barrier)")
