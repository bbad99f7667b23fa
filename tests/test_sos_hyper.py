import math

import numpy as np
import pytest

from halftest import testers
from halftest.distributions import MarginalSpec, sample_marginal
from halftest.oracle import brute_force_max_fourth_moment
from halftest.sdp import SdpSolution
from halftest.sos_hyper import (build_degree4_relaxation,
                                empirical_fourth_moment_tensor, multiplicity,
                                solve_relaxation, sorted_multisets)
from halftest.testers import hypercontractivity_test


def test_tensor_single_point():
    t = empirical_fourth_moment_tensor(np.array([[1.0, 0.0]]))
    assert t.entry(0, 0, 0, 0) == 1.0
    assert t.entry(1, 1, 1, 1) == 0.0
    assert t.entry(0, 0, 1, 1) == 0.0


def test_tensor_three_points():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = empirical_fourth_moment_tensor(pts)
    assert abs(t.entry(0, 0, 0, 0) - 2.0 / 3.0) < 1e-15
    assert abs(t.entry(1, 1, 1, 1) - 1.0 / 3.0) < 1e-15
    assert t.entry(0, 1, 0, 1) == 0.0


def test_tensor_gaussian_moments():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 100_000, seed=21)
    t = empirical_fourth_moment_tensor(pts)
    assert abs(t.entry(0, 0, 0, 0) - 3.0) < 0.15
    assert abs(t.entry(0, 0, 1, 1) - 1.0) < 0.1


def test_tensor_permutation_symmetry():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 50, seed=22)
    t = empirical_fourth_moment_tensor(pts)
    dense = t.dense()
    assert np.allclose(dense, np.transpose(dense, (1, 0, 2, 3)))
    assert np.allclose(dense, np.transpose(dense, (3, 2, 1, 0)))
    assert np.allclose(dense, np.transpose(dense, (2, 3, 0, 1)))


def test_tensor_matches_sample_mean():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 40, seed=23)
    t = empirical_fourth_moment_tensor(pts)
    direct = np.mean(pts[:, 0] * pts[:, 1] ** 2 * pts[:, 2])
    assert abs(t.entry(0, 1, 1, 2) - direct) < 1e-15


def test_relaxation_dimension_one_collapse():
    pts = np.array([[2.0], [1.0], [-1.0]])
    t = empirical_fourth_moment_tensor(pts)
    value, pm, sol = solve_relaxation(t)
    assert sol.optimal
    assert abs(value - t.entry(0, 0, 0, 0)) < 1e-6


def test_relaxation_dominates_true_maximum():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    value, _, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    assert value >= 2.0 / 3.0 - 1e-6


def test_relaxation_scaling():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 200, seed=24)
    t = empirical_fourth_moment_tensor(pts)
    base, _, _ = solve_relaxation(t)
    for s in (0.5, 4.0):
        scaled, _, _ = solve_relaxation(t.scaled(s))
        assert abs(scaled - s * base) <= 1e-5 * max(1.0, s * base)


def test_relaxation_rotation_invariance():
    rng = np.random.default_rng(25)
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 300, seed=25)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a, _, _ = solve_relaxation(empirical_fourth_moment_tensor(pts))
    b, _, _ = solve_relaxation(empirical_fourth_moment_tensor(pts @ q.T))
    assert abs(a - b) <= 1e-5 * max(1.0, abs(a))


# Relaxation values of the earlier inhomogeneous formulation (moment matrix
# over {1, v_i, v_i v_j} with sphere-ideal rows) on the same samples; the
# homogeneous pair-Gram program must reproduce them.
FIXED_VALUES = [
    (lambda: np.array([[1.0, 0.5], [0.0, 1.0]]), 0.8071244465035232),
    (lambda: sample_marginal(MarginalSpec("standard_gaussian", 3), 300, seed=25),
     3.1471901771926696),
    (lambda: sample_marginal(MarginalSpec("product_laplace", 4), 200, seed=29),
     6.185305255852501),
    (lambda: sample_marginal(MarginalSpec("student_t", 4, nu=3), 150, seed=31),
     17.14704308606308),
    (lambda: sample_marginal(MarginalSpec("uniform_cube", 5), 500, seed=30),
     3.502447688513943),
]


def test_problem_shape_and_constraint_kinds():
    for seed, (make_points, expected) in enumerate(FIXED_VALUES):
        pts = make_points()
        d = pts.shape[1]
        t = empirical_fourth_moment_tensor(pts)
        prob = build_degree4_relaxation(t)
        pairs = d * (d + 1) // 2
        assert prob.n == pairs
        rhs = [b for _, b in prob.constraints]
        # one normalization row; one consistency row per repeated quartic position
        assert rhs.count(1.0) == 1
        assert rhs.count(0.0) == len(rhs) - 1
        assert len(rhs) - 1 == pairs * (pairs + 1) // 2 - math.comb(d + 3, 4)
        value, _, sol = solve_relaxation(t)
        assert sol.optimal
        assert abs(value - expected) <= 1e-7 * abs(expected)
        brute, _ = brute_force_max_fourth_moment(pts, seed=seed)
        assert value >= brute - 1e-5


def test_pseudo_moment_matrix_invariants():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=26)
    t = empirical_fourth_moment_tensor(pts)
    value, pm, sol = solve_relaxation(t)
    assert sol.optimal
    m = pm.matrix
    # psd within solver tolerance
    assert np.linalg.eigvalsh(m)[0] >= -1e-6
    # normalization sum_ij E[v_i^2 v_j^2] = 1
    norm = sum(pm.expectation((i, i, j, j)) for i in range(3) for j in range(3))
    assert abs(norm - 1.0) <= 1e-6
    # moment consistency: every position naming a quartic holds its value
    pairs = sorted_multisets(3, 2)
    for a, pa in enumerate(pairs):
        for b, pb in enumerate(pairs):
            assert abs(m[a, b] - pm.expectation(pa + pb)) <= 1e-6
    # objective value consistency
    recomputed = sum(t.values[pos] * multiplicity(ms) * pm.expectation(ms)
                     for pos, ms in enumerate(sorted_multisets(3, 4)))
    assert abs(recomputed - value) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_relaxation_dominance_random(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(5, 200))
    pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
    brute, _ = brute_force_max_fourth_moment(pts, seed=seed)
    value, _, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    assert value >= brute - 1e-5


def test_hypercontractivity_zeros_accept():
    verdict = hypercontractivity_test(np.zeros((10, 3)), gamma=1.0)
    assert verdict.accepted
    assert verdict.diagnostics["sdp_value"] <= 1e-7


def test_hypercontractivity_gaussian_accepts():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, seed=27)
    verdict = hypercontractivity_test(pts, gamma=1.0, c_hyper=10.0)
    assert verdict.accepted
    assert verdict.diagnostics["sdp_value"] < 4.0


def test_hypercontractivity_spike_rejects():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, seed=28)
    spiked = pts.copy()
    spiked[:100] = 0.0
    spiked[:100, 0] = 10.0
    verdict = hypercontractivity_test(spiked, gamma=1.0, c_hyper=10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["sdp_value"] > 9.0


@pytest.mark.parametrize("seed", [15, 16])
def test_hypercontractivity_gaussian_d8_accepts(seed):
    # samples on which the earlier formulation stopped short of optimal
    pts = sample_marginal(MarginalSpec("standard_gaussian", 8), 20_000,
                          seed=seed, stream_id=60)
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert verdict.accepted
    assert verdict.diagnostics["sdp_value"] < 4.0


def test_hypercontractivity_solver_errors(monkeypatch):
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100, seed=29)

    def fail_with(exc):
        def solve(*args, **kwargs):
            raise exc
        monkeypatch.setattr(testers, "solve_relaxation", solve)

    fail_with(np.linalg.LinAlgError("not positive definite"))
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["solver_failure"] == "LinAlgError"
    # a programming error is not a numerical failure and must surface
    fail_with(TypeError("bad argument"))
    with pytest.raises(TypeError):
        hypercontractivity_test(pts, 1.0, 10.0)
    # a solve that ends without a certified value names why
    for status, value, failure in (("max_iterations", 1.0, "max_iterations"),
                                   ("optimal", math.inf, "non_finite_value")):
        sol = SdpSolution(X=np.zeros((1, 1)), value=value, dual_value=value,
                          status=status)
        monkeypatch.setattr(testers, "solve_relaxation",
                            lambda *args, sol=sol, **kwargs: (sol.value, None, sol))
        verdict = hypercontractivity_test(pts, 1.0, 10.0)
        assert not verdict.accepted
        assert verdict.diagnostics["solver_failure"] == failure
