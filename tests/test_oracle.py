import tracemalloc

import numpy as np
import pytest

from conftest import random_spd, rel_err
from sqc import engine, linalg, oracle, process
from sqc.errors import DomainViolation, MassLoss, QuadratureDomain, ValidationError
from sqc.potential import PotentialEvaluation, eval_log_barrier, eval_quadratic_penalty


def test_quadrature_scalar_closed_form():
    # exp(-(x-1)^2/2) against N(0,1): posterior N(1/2, 1/2), mass
    # exp(-1/4)/sqrt(2).
    mean, cov, log_norm = oracle.weighted_gaussian_moments(
        np.array([0.0]), np.array([[1.0]]),
        lambda x: eval_quadratic_penalty(x, np.array([1.0]), np.array([[1.0]])),
    )
    np.testing.assert_allclose(mean, [0.5], atol=1e-12)
    np.testing.assert_allclose(cov, [[0.5]], atol=1e-12)
    assert log_norm == pytest.approx(-0.25 - 0.5 * np.log(2.0), abs=1e-12)


def test_quadrature_matches_engine_on_correlated_quadratic():
    mean0 = np.array([0.3, -0.2])
    cov0 = np.array([[1.0, 0.3], [0.3, 0.7]])
    d = np.array([1.0, 0.0])
    weights = np.array([[2.0, 0.0], [0.0, 0.5]])
    dt = 0.5

    belief = engine.GaussianBelief(mean=mean0, cov=cov0)
    pot = eval_quadratic_penalty(mean0, d, weights)
    upd, diag = engine.update(belief, pot, dt)
    qmean, qcov, qlog = oracle.weighted_gaussian_moments(
        mean0, cov0, lambda x: eval_quadratic_penalty(x, d, weights), dt
    )
    assert rel_err(upd.mean, qmean) < 1e-10
    assert rel_err(upd.cov, qcov) < 1e-10
    assert diag.log_n == pytest.approx(-qlog, abs=1e-10)


def test_quadrature_rejects_truncated_domain():
    # A sixth of the prior mass sits below zero where the barrier is
    # undefined; the oracle must refuse rather than silently renormalize.
    with pytest.raises(QuadratureDomain):
        oracle.weighted_gaussian_moments(
            np.array([0.5]), np.array([[0.25]]),
            lambda x: eval_log_barrier(x, np.array([2.0])),
        )


def test_quadrature_dim_limit():
    with pytest.raises(ValidationError):
        oracle.weighted_gaussian_moments(
            np.zeros(3), np.eye(3), lambda x: eval_quadratic_penalty(x, np.zeros(3), np.eye(3))
        )


# The eval_* references of quadrature_checks' cases, in the order it runs them.
QUADRATURE_REFERENCES = [
    lambda x: eval_quadratic_penalty(x, np.array([1.0]), np.array([[1.0]])),
    lambda x: eval_quadratic_penalty(x, np.array([1.0, 0.0]), np.array([[2.0, 0.0], [0.0, 0.5]])),
    lambda x: eval_log_barrier(x, np.array([10.0, 10.0])),
]


def node_values(fn, xs):
    """fn at each node, None where it raises DomainViolation."""
    out = []
    for x in xs:
        try:
            out.append(fn(x))
        except DomainViolation:
            out.append(None)
    return out


def test_quadrature_integrands_match_eval_functions_bit_for_bit(monkeypatch):
    references = iter(QUADRATURE_REFERENCES)
    outside = []
    moments = oracle.weighted_gaussian_moments

    def spy(x_hat, sigma, integrand, dt=1.0):
        # Compare at the call, on the nodes of both passes: the prior's,
        # then the first-pass moments' with 1.5 times the covariance.
        reference = next(references)
        xs, ws = oracle._gh_nodes(np.asarray(x_hat, dtype=float), np.asarray(sigma, dtype=float))
        ref = node_values(lambda x: reference(x).value, xs)
        keep = np.array([v is not None for v in ref])
        vals = np.array([v for v in ref if v is not None])
        mean1, cov1, _ = oracle._weighted_moments(xs[keep], ws[keep], -vals * dt)
        ys, _ = oracle._gh_nodes(mean1, linalg.symmetrize(1.5 * cov1))
        for nodes in (xs, ys):
            got = node_values(integrand, nodes)
            want = node_values(lambda x: reference(x).value, nodes)
            assert [g is None for g in got] == [w is None for w in want]
            outside.append(sum(w is None for w in want))
            kept = [(g, w) for g, w in zip(got, want) if w is not None]
            assert np.array([g for g, _ in kept]).tobytes() == np.array([w for _, w in kept]).tobytes()
        return moments(x_hat, sigma, integrand, dt)

    monkeypatch.setattr(oracle, "weighted_gaussian_moments", spy)
    oracle.quadrature_checks()
    assert next(references, None) is None
    # The barrier's prior reaches past its wall, so the domain check is exercised.
    assert len(outside) == 6 and outside[4] > 0


def test_quadrature_checks_build_no_evaluation_per_node(monkeypatch):
    calls = []
    trusted = PotentialEvaluation._trusted

    def counted(*args):
        calls.append(args)
        return trusted(*args)

    monkeypatch.setattr(PotentialEvaluation, "_trusted", counted)
    checks = oracle.quadrature_checks()
    assert all(entry["passed"] for entry in checks.values())
    # One eval_* per case, for the engine update.
    assert len(calls) == 3


def test_identity_suite_clean_run():
    report = oracle.identity_suite(seed=0, trials=120)
    assert report["passed"]
    assert not report["failures"]
    assert max(report["worst"].values()) < 1e-10
    assert list(report) == ["trials", "failures", "worst", "passed"] and report["trials"] == 120


def test_identity_suite_catches_corrupted_gain_update(monkeypatch):
    update = engine.update

    def corrupted(belief, pot, dt):
        out, diag = update(belief, pot, dt)
        return engine.GaussianBelief(
            mean=out.mean + 1e-4 * np.linalg.norm(out.mean), cov=out.cov,
            step=out.step, tag=out.tag,
        ), diag

    monkeypatch.setattr(engine, "update", corrupted)
    report = oracle.identity_suite(seed=0, trials=60)
    assert not report["passed"]
    assert any(f["check"] == "forms_mean" for f in report["failures"])


def test_identity_suite_catches_corrupted_precision_update(monkeypatch):
    reference = oracle._precision_update

    def corrupted(*args):
        mean, cov, log_n, script_n = reference(*args)
        return mean, cov * (1 + 1e-4), log_n, script_n

    monkeypatch.setattr(oracle, "_precision_update", corrupted)
    report = oracle.identity_suite(seed=0, trials=60)
    assert not report["passed"]
    assert any(f["check"] == "forms_cov" for f in report["failures"])


def test_identity_suite_catches_corrupted_precision_normalization(monkeypatch):
    reference = oracle._precision_update

    def corrupted(*args):
        mean, cov, log_n, script_n = reference(*args)
        return mean, cov, log_n * (1 + 1e-6), script_n

    monkeypatch.setattr(oracle, "_precision_update", corrupted)
    report = oracle.identity_suite(seed=0, trials=60)
    assert not report["passed"]
    assert any(f["check"] == "determinant" for f in report["failures"])


def test_identity_suite_fails_nan_errors(monkeypatch):
    # A nan error is no pass: err > 1e-8 and max() would both drop it.
    reference = oracle._precision_update

    def corrupted(*args):
        mean, cov, log_n, script_n = reference(*args)
        return mean, cov, np.full_like(log_n, np.nan), script_n

    monkeypatch.setattr(oracle, "_precision_update", corrupted)
    report = oracle.identity_suite(seed=0, trials=20)
    assert not report["passed"]
    assert sum(f["check"] == "determinant" for f in report["failures"]) == 20
    assert np.isnan(report["worst"]["determinant"])
    assert report["worst"]["forms_mean"] < 1e-10


def test_precision_form_factors_cov_and_precision_once(monkeypatch):
    # One factor of the prior covariance and one of P give every
    # inverse, solve and log-determinant of the reference.
    factored = []
    cholesky = linalg.spd_cholesky

    def counting(a):
        factored.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(linalg, "spd_cholesky", counting)
    rng = np.random.default_rng(3)
    for m, k in [(1, 1), (2, 3), (4, 2)]:
        cov = oracle._random_spd(rng, m)
        h = rng.standard_normal((k, m))
        pot = PotentialEvaluation._trusted(
            np.zeros(k), 0.7, rng.standard_normal(k), h, oracle._random_spd(rng, k), np.zeros((m, m))
        )
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=cov)
        factored.clear()
        oracle.precision_form(belief, pot, 0.5)
        assert len(factored) == 2
        np.testing.assert_array_equal(factored[0], belief.cov)


def test_identity_suite_catches_corrupted_inversion_lemma(monkeypatch):
    woodbury = oracle.woodbury_inverse

    def corrupted(a_inv, b, d, c):
        return woodbury(a_inv, b, d, c) * (1 + 1e-4)

    monkeypatch.setattr(oracle, "woodbury_inverse", corrupted)
    report = oracle.identity_suite(seed=0, trials=60)
    assert not report["passed"]
    assert any(f["check"] == "cov_two_forms" for f in report["failures"])


def test_stacked_reference_algebra_equals_one_instance_at_a_time():
    # identity_suite runs the precision form and the inversion lemma on
    # one (n, m, m) stack per (m, k); each instance must get the bits a
    # call on it alone gives, for every shape the suite draws.
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        for k in range(1, 7):
            n = 4
            cov = np.array([oracle._random_spd(rng, m) for _ in range(n)])
            curvature = np.array([oracle._random_spd(rng, k) for _ in range(n)])
            h = rng.standard_normal((n, k, m))
            h[1] = 0.0
            grad_l, mean = rng.standard_normal((n, k)), rng.standard_normal((n, m))
            value, dt = rng.standard_normal(n), rng.choice([0.25, 0.5, 1.0], size=n)
            post_mean, post_cov, log_n, script_n = oracle._precision_update(mean, cov, h, curvature, grad_l, value, dt)
            d = linalg.spd_inverse(curvature) / dt[:, None, None]
            wood = oracle.woodbury_inverse(cov, h.swapaxes(-1, -2), d, h)
            for i in range(n):
                belief = engine.GaussianBelief(mean=mean[i], cov=cov[i])
                pot = PotentialEvaluation._trusted(np.zeros(k), float(value[i]), grad_l[i], h[i], curvature[i], np.zeros((m, m)))
                one, diag = oracle.precision_form(belief, pot, float(dt[i]))
                assert np.array_equal(post_mean[i], one.mean) and np.array_equal(post_cov[i], one.cov), (m, k, i)
                assert (log_n[i], script_n[i]) == (diag.log_n, diag.script_n), (m, k, i)
                d_one = linalg.spd_inverse(curvature[i]) / float(dt[i])
                assert np.array_equal(d[i], d_one), (m, k, i)
                assert np.array_equal(wood[i], oracle.woodbury_inverse(cov[i], h[i].T, d_one, h[i])), (m, k, i)


def test_woodbury_symmetrizes_each_matrix_of_a_stack_on_its_own():
    # The symmetry test is per matrix: one asymmetric inverse in a stack
    # must not keep the others from being symmetrized, nor be
    # symmetrized itself.
    rng = np.random.default_rng(5)
    a_inv = np.array([oracle._random_spd(rng, 3) for _ in range(3)])
    b = rng.standard_normal((3, 3, 2))
    c = b.swapaxes(-1, -2).copy()
    c[1] += 1.0  # C != B^T: that inverse is not symmetric
    d = np.array([oracle._random_spd(rng, 2) for _ in range(3)])
    stacked = oracle.woodbury_inverse(a_inv, b, d, c)
    for i in range(3):
        assert np.array_equal(stacked[i], oracle.woodbury_inverse(a_inv[i], b[i], d[i], c[i]))
    assert not np.array_equal(stacked[1], stacked[1].T)
    assert np.array_equal(stacked[0], stacked[0].T) and np.array_equal(stacked[2], stacked[2].T)


def test_fp_convergence_residuals_equal_the_public_residual():
    # The study's two-step residuals, with shared drifts and diffusions,
    # have the bits of fokker_planck_residual on each case and dt.
    report = oracle.fp_convergence()
    grid = oracle.Grid1D(-9.0, 9.0, 2048)
    x = grid.points()
    density = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    cases = {
        "free_diffusion": (free_diffusion_model(), None),
        "linear_drift": (linear_drift_model(), None),
        "constant_potential": (free_diffusion_model(), lambda x: 0.5),
    }
    assert list(report) == list(cases)
    for name, (model, potential) in cases.items():
        dts = report[name]["dts"]
        assert dts == [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        expected = [oracle.fokker_planck_residual(model, potential, grid, density, dt) for dt in dts]
        assert report[name]["residuals"] == expected, name


def test_fp_convergence_diffuses_each_drift_and_dt_once(monkeypatch):
    # Two drifts (zero and linear) at four dts: 8 kernel passes, where
    # one fokker_planck_residual call per case and dt would make 12.
    passes = []
    diffuse = oracle._diffuse

    def counted(grid, density, drift, g_inv, dt):
        passes.append((drift.any(), dt))
        return diffuse(grid, density, drift, g_inv, dt)

    monkeypatch.setattr(oracle, "_diffuse", counted)
    oracle.fp_convergence()
    assert len(passes) == 8 and len(set(passes)) == 8


def free_diffusion_model():
    drift, jac = process.make_drift("zero", None, 1)
    return process.ItoProcessModel(dim=1, drift=drift, drift_jacobian=jac, g_inv=[[1.0]])


def standard_gaussian(grid):
    x = grid.points()
    return np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)


def test_grid_validation():
    with pytest.raises(ValidationError):
        oracle.Grid1D(-1.0, 1.0, 32)
    with pytest.raises(ValidationError):
        oracle.Grid1D(1.0, -1.0, 128)
    grid = oracle.Grid1D(0.0, 1.0, 101)
    assert grid.spacing == pytest.approx(0.01)
    assert len(grid.points()) == 101


def test_kernel_residual_shrinks_linearly_with_dt():
    grid = oracle.Grid1D(-9.0, 9.0, 1024)
    density = standard_gaussian(grid)
    model = free_diffusion_model()
    r_coarse = oracle.fokker_planck_residual(model, None, grid, density, 1e-2)
    r_fine = oracle.fokker_planck_residual(model, None, grid, density, 5e-3)
    assert 1.5 < r_coarse / r_fine < 3.0
    assert r_fine < 1e-2


def test_kernel_residual_constant_potential_mass_decay():
    grid = oracle.Grid1D(-9.0, 9.0, 1024)
    density = standard_gaussian(grid)
    model = free_diffusion_model()
    r1 = oracle.fokker_planck_residual(model, lambda x: 0.5, grid, density, 1e-2)
    r2 = oracle.fokker_planck_residual(model, lambda x: 0.5, grid, density, 5e-3)
    assert 1.5 < r1 / r2 < 3.0


def test_kernel_residual_guards():
    grid = oracle.Grid1D(-9.0, 9.0, 1024)
    density = standard_gaussian(grid)
    model = free_diffusion_model()
    for dt in (0.5, 0.0, -1e-3, float("nan")):
        with pytest.raises(ValidationError, match="0 < dt <= 1e-2"):
            oracle.fokker_planck_residual(model, None, grid, density, dt)
    with pytest.raises(ValidationError):
        oracle.fokker_planck_residual(model, None, grid, density[:-1], 1e-2)
    # Too narrow: the kernel leaks mass over the edge.
    narrow = oracle.Grid1D(-2.0, 2.0, 256)
    with pytest.raises(MassLoss):
        oracle.fokker_planck_residual(
            model, None, narrow, standard_gaussian(narrow), 1e-2
        )


def test_kernel_residual_refuses_a_model_of_another_dim():
    # A 2-D model would otherwise run on g_inv[0, 0] and its first drift entry.
    calls = []

    def drift(x, t):
        calls.append(t)
        return np.zeros(2)

    model = process.ItoProcessModel(
        dim=2, drift=drift, drift_jacobian=lambda x, t: np.zeros((2, 2)), g_inv=np.diag([1.0, 4.0])
    )
    grid = oracle.Grid1D(-9.0, 9.0, 1024)
    with pytest.raises(ValidationError, match="1-D"):
        oracle.fokker_planck_residual(model, None, grid, standard_gaussian(grid), 1e-2)
    assert not calls


def test_kernel_residual_carries_a_nan_drift_to_the_result():
    # A nan drift at one grid point makes that column's kernel entries
    # nan. They must reach the result: left at 0.0 they would drop the
    # column's mass, about 0.4 h = 3.5e-3 at x = 0, and raise MassLoss.
    grid = oracle.Grid1D(-9.0, 9.0, 2049)
    poisoned = grid.points()[1024]
    assert poisoned == 0.0

    def drift(x, t):
        return np.array([np.nan if x[0] == poisoned else 0.0])

    residual = oracle.fokker_planck_residual(model_with_drift(drift), None, grid, standard_gaussian(grid), 1e-2)
    assert np.isnan(residual)


def test_kernel_residual_reads_the_drift_float_form():
    drift, jac = process.make_drift("linear", {"A": [[-1.0]]}, 1)
    calls = []

    def counted(x, t):
        calls.append(t)
        return drift(x, t)

    counted.floats = drift.floats
    model = process.ItoProcessModel(dim=1, drift=counted, drift_jacobian=jac, g_inv=[[1.0]])
    grid = oracle.Grid1D(-9.0, 9.0, 1024)
    density = standard_gaussian(grid)
    residual = oracle.fokker_planck_residual(model, None, grid, density, 1e-2)
    assert not calls
    assert residual == oracle.fokker_planck_residual(linear_drift_model(), None, grid, density, 1e-2)


def dense_kernel_residual(model, potential, grid, density, dt, t=0):
    """fokker_planck_residual with the kernel built as one n x n matrix.

    The reference for the oracle's banded evaluation: the same formula
    over every (row, column) pair, underflowing entries included.
    """
    x = grid.points()
    h = grid.spacing
    g_inv = float(model.g_inv[0, 0])
    drift = np.array([model.drift(np.array([xi]), t)[0] for xi in x])
    u = np.zeros_like(x) if potential is None else np.array([float(potential(np.array([xi]))) for xi in x])
    quad_w = np.full(grid.n, h)
    quad_w[0] = quad_w[-1] = h / 2.0
    var = g_inv * dt
    centers = x + drift * dt
    kernel = np.exp(-((x[:, None] - centers[None, :]) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    evolved = np.exp(-u * dt) * (kernel @ (quad_w * density))
    rhs = (
        -oracle._derivative(drift * density, h, 1)
        + 0.5 * oracle._derivative(g_inv * density, h, 2)
        - u * density
    )
    residual = (evolved - density) / dt - rhs
    return float(np.sqrt(quad_w @ residual**2))


def model_with_drift(drift, g_inv=1.0):
    return process.ItoProcessModel(
        dim=1, drift=drift, drift_jacobian=lambda x, t: np.zeros((1, 1)), g_inv=[[g_inv]]
    )


def linear_drift_model():
    drift, jac = process.make_drift("linear", {"A": [[-1.0]]}, 1)
    return process.ItoProcessModel(dim=1, drift=drift, drift_jacobian=jac, g_inv=[[1.0]])


KERNEL_CASES = {
    "free_diffusion": (free_diffusion_model, None, (-9.0, 9.0)),
    "linear_drift": (linear_drift_model, None, (-9.0, 9.0)),
    "constant_potential": (free_diffusion_model, lambda x: 0.5, (-9.0, 9.0)),
    # x - 3 sin x is not monotone, so the kernel centers are unsorted.
    "folded_centers": (lambda: model_with_drift(lambda x, t: -300.0 * np.sin(x)), None, (-9.0, 9.0)),
    # x - 2 x = -x: the centers run backwards over the whole grid.
    "reversed_centers": (lambda: model_with_drift(lambda x, t: -200.0 * x), None, (-9.0, 9.0)),
    # The cut sqrt(2 * 4 * 746) = 77 nearly spans the whole grid.
    "kernel_wider_than_grid": (lambda: model_with_drift(lambda x, t: np.zeros(1), 400.0), None, (-40.0, 40.0)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_banded_kernel_matches_dense_kernel(case):
    make_model, potential, (lower, upper) = KERNEL_CASES[case]
    grid = oracle.Grid1D(lower, upper, 2048)
    density = standard_gaussian(grid)
    model = make_model()
    if case == "folded_centers":
        centers = grid.points() - 300.0 * np.sin(grid.points()) * 1e-2
        assert np.any(np.diff(centers) < 0)
    banded = oracle.fokker_planck_residual(model, potential, grid, density, 1e-2)
    dense = dense_kernel_residual(model, potential, grid, density, 1e-2)
    assert abs(banded - dense) <= 1e-13 * abs(dense)


def test_kernel_residual_memory_stays_banded():
    # numpy reports its buffers to tracemalloc. A dense 2048 x 2048
    # kernel and its temporaries peak at about 64 MiB.
    grid = oracle.Grid1D(-9.0, 9.0, 2048)
    density = standard_gaussian(grid)
    model = free_diffusion_model()
    tracemalloc.start()
    try:
        oracle.fokker_planck_residual(model, None, grid, density, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
