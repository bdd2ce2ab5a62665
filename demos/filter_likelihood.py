# Observation potentials: the update as a Kalman filter
# -------------------------------------------------------
# With l = y - h(x) and a quadratic outer function, one engine update
# per observation is exactly the EKF. Here a 2-state linear process is
# observed through its first component only; the filter still pins
# down the hidden second component through the dynamics.

import numpy as np

from sqc import ekf, engine, process

rng = np.random.default_rng(42)

a = np.array([[-0.05, 0.10], [0.00, -0.10]])
g_inv = np.diag([0.01, 0.01])
c = np.array([[1.0, 0.0]])
sigma_nu = np.array([[0.09]])

drift, jacobian = process.make_drift("linear", {"A": a}, 2)
model = process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jacobian, g_inv=g_inv)
obs_model = ekf.ObservationModel(h=lambda x, t: c @ x, h_jacobian=lambda x, t: c, sigma_nu=sigma_nu)

# 1. simulate a truth path and observe every third step
truth = process.simulate_open_loop(model, np.array([1.0, -1.0]), 90, rng)
steps = np.arange(0, 90, 3)
ys = truth[steps] @ c.T + 0.3 * rng.standard_normal((len(steps), 1))
stream = ekf.ObservationStream(steps=steps, values=ys)

# 2. filter from a vague prior
initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=4.0 * np.eye(2), step=0, tag="predicted")
mean, cov, logliks = ekf.filter_with_likelihood(model, obs_model, stream, initial)

# row i of the filtered arrays is step initial.step + i
filtered_steps = np.arange(initial.step, initial.step + len(mean))
err = mean - truth[filtered_steps]
print("rms estimation error, first vs last third of the run")
print("  x1 (observed):", f"{np.sqrt((err[:30, 0] ** 2).mean()):.3f}",
      "->", f"{np.sqrt((err[-30:, 0] ** 2).mean()):.3f}")
print("  x2 (hidden):  ", f"{np.sqrt((err[:30, 1] ** 2).mean()):.3f}",
      "->", f"{np.sqrt((err[-30:, 1] ** 2).mean()):.3f}")

print(f"\nfinal belief mean {np.round(mean[-1], 3)} vs truth {np.round(truth[filtered_steps[-1]], 3)}")
print(f"final std per component: {np.round(np.sqrt(np.diag(cov[-1])), 3)}")
print(f"cumulative log-likelihood over {len(steps)} observations: {np.nansum(logliks):.2f}")
