"""Acceptance suite: one check per shipped claim, one printed line each.

The report lines go to the real stdout so they stay visible under
pytest's capture; every number printed is also asserted, so a FAIL
line always comes with a failing test.
"""

import time

import numpy as np

from conftest import random_spd, rel_err
from sqc import control, ekf, engine, oracle, process
from sqc.potential import PotentialEvaluation


def report(capfd, ok: bool, label: str, detail: str) -> None:
    # Each check emits exactly one line, kept visible in a default
    # pytest run (not only on failure) by lifting the capture.
    with capfd.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


def test_1_update_form_agreement_and_determinant_identity(capfd):
    t0 = time.perf_counter()
    suite = oracle.identity_suite(seed=0, trials=500)
    elapsed = time.perf_counter() - t0
    worst_forms = max(
        suite["worst"]["forms_mean"], suite["worst"]["forms_cov"], suite["worst"]["cov_two_forms"]
    )
    ok = suite["passed"] and worst_forms <= 1e-8 and suite["worst"]["determinant"] <= 1e-8 and elapsed < 5.0
    report(capfd, ok, "1/8 update form agreement",
           f"500 instances dims 1-6, worst form err {worst_forms:.1e}, "
           f"worst determinant err {suite['worst']['determinant']:.1e}, {elapsed:.1f} s")
    assert suite["passed"] and not suite["failures"]
    assert worst_forms <= 1e-8
    assert suite["worst"]["determinant"] <= 1e-8
    assert elapsed < 5.0


def test_2_filter_reduction_and_textbook_fixture(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_step = 0.0
    for _ in range(200):
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c = rng.standard_normal((k, m))
        obs = ekf.ObservationModel(
            h=lambda x, t, c=c: c @ x, h_jacobian=lambda x, t, c=c: c,
            sigma_nu=random_spd(rng, k),
        )
        drift, jac = process.make_drift("zero", None, m)
        model = process.ItoProcessModel(dim=m, drift=drift, drift_jacobian=jac, g_inv=np.eye(m))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        y = rng.standard_normal(k)
        a = ekf.ekf_step(belief, model, obs, y, 0)
        b, _ = engine.update(belief, ekf.observation_potential(obs, y, belief.mean, 0), 1.0)
        worst_step = max(worst_step, rel_err(a.mean, b.mean), rel_err(a.cov, b.cov))

    # Full filter against a self-contained textbook implementation.
    a_mat = np.array([[-0.1, 0.05], [0.0, -0.2]])
    g_inv = np.diag([0.02, 0.03])
    c = np.array([[1.0, 0.0]])
    r = np.array([[0.04]])
    gen = np.random.default_rng(5)
    x = np.array([0.5, -0.5])
    ys = []
    for _ in range(60):
        ys.append(c @ x + 0.2 * gen.standard_normal(1))
        x = x + a_mat @ x + np.linalg.cholesky(g_inv) @ gen.standard_normal(2)
    drift, jac = process.make_drift("linear", {"A": a_mat}, 2)
    model = process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jac, g_inv=g_inv)
    obs = ekf.ObservationModel(h=lambda x, t: c @ x, h_jacobian=lambda x, t: c, sigma_nu=r)
    stream = ekf.ObservationStream(steps=np.arange(60), values=np.array(ys))
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")
    filtered_mean, filtered_cov, _ = ekf.filter_with_likelihood(model, obs, stream, initial)

    f = np.eye(2) + a_mat
    mean, cov = np.zeros(2), np.eye(2)
    worst_fixture = 0.0
    for row_mean, row_cov, y in zip(filtered_mean, filtered_cov, ys):
        s = c @ cov @ c.T + r
        gain = cov @ c.T @ np.linalg.inv(s)
        mean = mean + gain @ (y - c @ mean)
        cov = (np.eye(2) - gain @ c) @ cov
        worst_fixture = max(worst_fixture, rel_err(row_mean, mean), rel_err(row_cov, cov))
        mean, cov = f @ mean, f @ cov @ f.T + g_inv
    elapsed = time.perf_counter() - t0

    ok = worst_step <= 1e-10 and worst_fixture <= 1e-10 and elapsed < 5.0
    report(capfd, ok, "2/8 filter reduction",
           f"200 trials dims 1-4, worst step err {worst_step:.1e}; "
           f"60-step fixture worst err {worst_fixture:.1e}, {elapsed:.1f} s")
    assert worst_step <= 1e-10
    assert worst_fixture <= 1e-10
    assert elapsed < 5.0


def test_3_quadrature_exactness_and_expansion_error(capfd):
    t0 = time.perf_counter()
    checks = oracle.quadrature_checks()
    elapsed = time.perf_counter() - t0
    q1, q2 = checks["quadratic_1d"], checks["quadratic_2d"]
    worst_quadratic = max(
        q1["mean_err"], q1["cov_err"], q1["log_norm_err"],
        q2["mean_err"], q2["cov_err"], q2["log_norm_err"],
    )
    barrier_err = checks["barrier_expansion"]["mean_rel_err"]
    ok = worst_quadratic <= 1e-8 and barrier_err < 0.05 and elapsed < 10.0
    report(capfd, ok, "3/8 quadrature exactness",
           f"quadratic moments worst err {worst_quadratic:.1e}, "
           f"barrier expansion mean err {barrier_err:.3%} (< 5%), {elapsed:.1f} s")
    assert worst_quadratic <= 1e-8
    assert barrier_err < 0.05
    assert elapsed < 10.0


def test_4_kernel_residual_halving(capfd):
    t0 = time.perf_counter()
    cases = oracle.fp_convergence()
    elapsed = time.perf_counter() - t0
    ok = all(case["passed"] for case in cases.values()) and elapsed < 120.0
    detail = "; ".join(
        name + " ratios " + "/".join(f"{r:.2f}" for r in case["ratios"])
        for name, case in cases.items()
    )
    report(capfd, ok, "4/8 kernel residual halving", f"{detail}; {elapsed:.0f} s")
    for name, case in cases.items():
        assert case["passed"], (name, case["ratios"])
    assert elapsed < 120.0


def test_5_penalty_target_tracking_sweep(capfd):
    t0 = time.perf_counter()
    target = np.array([0.2, -0.1])
    hits = 0
    for seed in range(100):
        result = control.run_scenario("penalty", seed=seed)
        assert result.completed, f"seed {seed} failed: {result.failure}"
        tail = result.x[-500:]
        if np.all(np.abs(tail.mean(axis=0) - target) <= 0.05):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 90 and elapsed < 60.0
    report(capfd, ok, "5/8 penalty target tracking",
           f"{hits}/100 seeds hold the last-500 mean within 0.05 of (0.2, -0.1), {elapsed:.0f} s")
    assert hits >= 90
    assert elapsed < 60.0


def test_6_barrier_positivity_sweep(capfd):
    t0 = time.perf_counter()
    survivors = 0
    death_steps = []
    for seed in range(100):
        result = control.run_scenario("barrier", seed=seed)
        if result.completed:
            states = result.x[500:]
            if np.all(states > 0.0):
                survivors += 1
        else:
            death_steps.append(result.failed_step)
    elapsed = time.perf_counter() - t0
    ok = survivors >= 95 and elapsed < 60.0
    detail = f"{survivors}/100 seeds stay positive after the 500-step burn-in, {elapsed:.0f} s"
    if death_steps:
        detail += (f"; {len(death_steps)} runs left the domain, first failures "
                   f"at steps {min(death_steps)}..{max(death_steps)} "
                   f"(median {int(np.median(death_steps))})")
    report(capfd, ok, "6/8 barrier positivity", detail)
    assert elapsed < 60.0
    assert survivors >= 95, detail


def test_7_double_well_capture_sweep(capfd):
    t0 = time.perf_counter()
    per_component = 0
    same_sign_pair = 0
    for seed in range(100):
        result = control.run_scenario("doublewell", seed=seed)
        assert result.completed, f"seed {seed} failed: {result.failure}"
        tail_mean = result.x[-500:].mean(axis=0)
        if np.all(np.minimum(np.abs(tail_mean - 0.4), np.abs(tail_mean + 0.4)) <= 0.08):
            per_component += 1
        if np.all(np.abs(tail_mean - 0.4) <= 0.08) or np.all(np.abs(tail_mean + 0.4) <= 0.08):
            same_sign_pair += 1
    elapsed = time.perf_counter() - t0
    ok = per_component >= 90 and elapsed < 60.0
    report(capfd, ok, "7/8 double-well capture",
           f"{per_component}/100 seeds settle each component within 0.08 of +-0.4 "
           f"(same-sign pairs: {same_sign_pair}/100), {elapsed:.0f} s")
    assert per_component >= 90
    assert elapsed < 60.0


def test_8_structural_invariants(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    min_contraction = np.inf
    min_posterior_eig = np.inf
    worst_gauge = 0.0
    min_alignment = np.inf
    for _ in range(200):
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = PotentialEvaluation(
            l=np.zeros(k), value=float(rng.normal()), grad_l=rng.standard_normal(k),
            H=rng.standard_normal((k, m)), curvature=random_spd(rng, k),
            counter_curvature=np.zeros((m, m)),
        )
        dt = float(rng.choice([0.25, 1.0]))
        post, n0 = engine.update(belief, pot, dt)

        assert np.array_equal(post.cov, post.cov.T)
        min_posterior_eig = min(min_posterior_eig, float(np.linalg.eigvalsh(post.cov).min()))
        min_contraction = min(
            min_contraction, float(np.linalg.eigvalsh(belief.cov - post.cov).min())
        )

        shifted = PotentialEvaluation(
            l=pot.l, value=pot.value + 3.25, grad_l=pot.grad_l, H=pot.H,
            curvature=pot.curvature, counter_curvature=pot.counter_curvature,
        )
        post_shifted, n1 = engine.update(belief, shifted, dt)
        worst_gauge = max(
            worst_gauge,
            rel_err(post.mean, post_shifted.mean),
            rel_err(post.cov, post_shifted.cov),
            abs((n1.log_n - n0.log_n) - 3.25 * dt),
        )

        shift = post.mean - belief.mean
        force = pot.H.T @ pot.grad_l
        scale = max(1.0, float(np.linalg.norm(shift) * np.linalg.norm(force)))
        min_alignment = min(min_alignment, float(shift @ force) / scale)

    r1 = control.run_scenario("penalty", overrides={"horizon": 60}, seed=11)
    r2 = control.run_scenario("penalty", overrides={"horizon": 60}, seed=11)
    replay = np.array_equal(r1.x, r2.x)
    elapsed = time.perf_counter() - t0

    ok = (min_posterior_eig > 0 and min_contraction >= -1e-9 and worst_gauge <= 1e-8
          and min_alignment >= -1e-10 and replay and elapsed < 10.0)
    report(capfd, ok, "8/8 structural invariants",
           f"posterior SPD (min eig {min_posterior_eig:.1e}), contraction gap "
           f"{min_contraction:.1e}, gauge err {worst_gauge:.1e}, alignment min "
           f"{min_alignment:.1e}, replay {'ok' if replay else 'DIFFERS'}, {elapsed:.1f} s")
    assert min_posterior_eig > 0
    assert min_contraction >= -1e-9
    assert worst_gauge <= 1e-8
    assert min_alignment >= -1e-10
    assert replay
    assert elapsed < 10.0
