# Open-loop paths of the forced planar oscillator
# ------------------------------------------------
# No potential, no control: just the Euler scheme on the benchmark
# drift, to see what the recursion is up against before any
# constraining force is switched on.

import numpy as np

from sqc.process import ItoProcessModel, make_drift, simulate_open_loop

drift, jacobian = make_drift("vanderpol_forced", None, 2)
model = ItoProcessModel(
    dim=2, drift=drift, drift_jacobian=jacobian, g_inv=0.001 * np.eye(2)
)

print("forced oscillator, 5000 steps, g_inv = 0.001 I")
print("seed   final x1   final x2   max |x|")
for seed in range(5):
    states = simulate_open_loop(model, np.array([0.5, 0.5]), 5000, np.random.default_rng(seed))
    radius = np.abs(states).max()
    print(f"{seed:4d}   {states[-1, 0]:8.3f}   {states[-1, 1]:8.3f}   {radius:7.3f}")

# The drift scale 0.005 makes one oscillator period about 1250 steps;
# the paths wander around the unit cycle but never settle anywhere.
states = simulate_open_loop(model, np.array([0.5, 0.5]), 5000, np.random.default_rng(0))
quarters = np.split(states[1:], 4)
print("\nper-quarter mean of x1:", np.round([q[:, 0].mean() for q in quarters], 3))
