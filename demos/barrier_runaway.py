# Log barrier: why the bundled scenario escapes
# ----------------------------------------------
# V = -sum a_i ln(x_i) keeps both components positive only while the
# drift pushing against the wall stays below the barrier's maximum
# counter-force. On this drift it does not, and every run eventually
# leaves the domain. This script shows the failure and the force
# budget behind it.

import numpy as np

from sqc.control import run_scenario

print("barrier scenario, a = (10, 10), horizon 5000")
print("seed   completed   failed step")
for seed in range(8):
    result = run_scenario("barrier", seed=seed)
    step = "-" if result.completed else str(result.failed_step)
    print(f"{seed:4d}   {str(result.completed):9s}   {step}")

# The budget argument, on the deterministic belief path (no sampling
# noise involved):
result = run_scenario("barrier", overrides={"mode": "belief"}, seed=0)
xs = result.x
print(f"\nbelief mode also dies, at step {result.failed_step}")
print("x1 is monotone increasing:", bool(np.all(np.diff(xs[:, 0]) > 0)))

# Barrier shift on a component maxes out at sqrt(a * cov)/2, reached
# when the predicted mean sits at sqrt(a * cov). The downward drift on
# x2 grows with x1, so once x1 is large enough the wall has to give.
covs = result.cov[:, 1, 1]
max_counter = np.sqrt(10.0 * covs) / 2.0
drift_down = 0.005 * xs[:, 0] + 0.005 * (xs[:, 0] ** 2 - 1.0) * xs[:, 1]
k = np.argmax(drift_down > max_counter)
print(f"drift first exceeds the barrier's best response at step {k}"
      f" (x1 = {xs[k, 0]:.2f}); the run fails {result.failed_step - k} steps later")
