import numpy as np
import pytest

from halftest.numerics import sym_eigendecompose
from halftest.sdp import (INFEASIBLE, MAX_ITERATIONS, OPTIMAL, SdpProblem, _presolve,
                          check_solution, solve_sdp)
from halftest.sos_hyper import (build_degree4_relaxation,
                                empirical_fourth_moment_tensor)


def _random_sym(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2


def test_pinned_objective():
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[np.eye(2)], b=[1.0])
    sol = solve_sdp(prob)
    assert sol.optimal
    assert abs(sol.value - 1.0) < 1e-6
    assert check_solution(prob, sol)


def test_eigenvalue_lp_diagonal():
    prob = SdpProblem(n=2, objective=np.diag([1.0, 0.0]),
                      constraints=[np.eye(2)], b=[1.0])
    sol = solve_sdp(prob)
    assert sol.optimal
    assert abs(sol.value - 1.0) < 1e-6
    assert np.allclose(sol.X, np.diag([1.0, 0.0]), atol=1e-5)


def test_offdiagonal_objective():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = SdpProblem(n=2, objective=c, constraints=[np.eye(2)], b=[1.0])
    sol = solve_sdp(prob)
    # eigen oracle: max eigenvalue of [[0,1],[1,0]] is 1
    oracle = sym_eigendecompose(c).eigenvalues[-1]
    assert sol.optimal
    assert abs(sol.value - oracle) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_against_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    c = _random_sym(rng, n)
    prob = SdpProblem(n=n, objective=c, constraints=[np.eye(n)], b=[1.0])
    sol = solve_sdp(prob)
    oracle = sym_eigendecompose(c).eigenvalues[-1]
    assert sol.optimal
    assert abs(sol.value - oracle) <= 1e-6
    assert check_solution(prob, sol)


def test_weak_duality_random_instances():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        x0 = rng.standard_normal((n, n))
        x0 = x0 @ x0.T + 0.5 * np.eye(n)  # strictly feasible witness
        # trace constraint keeps the feasible set (and the value) bounded
        mats = [np.eye(n)] + [_random_sym(rng, n) for _ in range(m)]
        b = [float(np.tensordot(a, x0)) for a in mats]
        prob = SdpProblem(n=n, objective=_random_sym(rng, n),
                          constraints=mats, b=b)
        sol = solve_sdp(prob)
        assert sol.optimal
        assert sol.value <= sol.dual_value + 1e-6 * (1 + abs(sol.value))
        assert check_solution(prob, sol)
        solved += 1
    assert solved == 10


def test_unbounded_primal_not_reported_optimal():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        x0 = rng.standard_normal((n, n))
        x0 = x0 @ x0.T + 0.5 * np.eye(n)
        a = _random_sym(rng, n)
        prob = SdpProblem(n=n, objective=np.eye(n),
                          constraints=[a], b=[float(np.tensordot(a, x0))])
        sol = solve_sdp(prob)
        assert sol.status in (INFEASIBLE, MAX_ITERATIONS)


def test_scaling_equivariance():
    rng = np.random.default_rng(11)
    c = _random_sym(rng, 5)
    prob = SdpProblem(n=5, objective=c, constraints=[np.eye(5)], b=[1.0])
    base = solve_sdp(prob).value
    for s in (0.5, 3.0, 17.0):
        scaled = SdpProblem(n=5, objective=s * c, constraints=[np.eye(5)], b=[1.0])
        assert abs(solve_sdp(scaled).value - s * base) <= 1e-6 * max(1.0, abs(s * base))


def test_infeasible_trace():
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[np.eye(2)], b=[-1.0])
    assert solve_sdp(prob).status == INFEASIBLE


def test_inconsistent_equalities():
    prob = SdpProblem(n=2, objective=np.eye(2),
                      constraints=[np.eye(2), 2 * np.eye(2)], b=[1.0, 3.0])
    assert solve_sdp(prob).status == INFEASIBLE


def test_redundant_equalities_ok():
    prob = SdpProblem(n=3, objective=np.diag([1.0, 0.0, 0.0]),
                      constraints=[np.eye(3), 2 * np.eye(3)], b=[1.0, 2.0])
    sol = solve_sdp(prob)
    assert sol.optimal
    assert abs(sol.value - 1.0) < 1e-6


def test_presolve_reduces_only_dependent_rows():
    pts = np.random.default_rng(12).standard_normal((50, 3))
    sos = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
    a, b, status = _presolve(sos)
    assert status is None
    assert a is sos.constraints and b is sos.b

    x = np.diag([0.5, 0.25, 0.25])
    mats = [np.eye(3), 2 * np.eye(3), np.diag([1.0, 0.0, 0.0])]
    prob = SdpProblem(n=3, objective=np.eye(3), constraints=mats,
                      b=[float(np.tensordot(a, x)) for a in mats])
    a, b, status = _presolve(prob)
    assert status is None and a.shape == (2, 3, 3)
    assert np.allclose(np.tensordot(a, a, axes=([1, 2], [1, 2])), np.eye(2))
    assert np.allclose(np.tensordot(a, x), b)


def test_unbounded_reported_infeasible_dual():
    # no constraints and an objective with positive eigenvalue: unbounded above
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[], b=[])
    assert solve_sdp(prob).status == INFEASIBLE


def test_tolerance_validation():
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[np.eye(2)], b=[1.0])
    with pytest.raises(ValueError):
        solve_sdp(prob, tol=0.0)


def test_numerical_breakdown_ends_with_a_status():
    # Draws of well-posed problems on which a Newton step breaks down: a
    # singular S (draws 11 and 88) and an overflowing Schur complement
    # (draw 153).  The solve must end with a status instead of raising.
    rng = np.random.default_rng(7)
    problems = []
    for _ in range(154):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        x0 = rng.standard_normal((n, n))
        x0 = x0 @ x0.T + 0.5 * np.eye(n)
        mats = [np.eye(n)] + [_random_sym(rng, n) for _ in range(m)]
        problems.append(SdpProblem(n=n, objective=_random_sym(rng, n), constraints=mats,
                                   b=[float(np.tensordot(a, x0)) for a in mats]))
    for draw in (11, 88, 153):
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_sdp(problems[draw])
        assert sol.status in (OPTIMAL, INFEASIBLE, MAX_ITERATIONS)
        assert not sol.optimal or check_solution(problems[draw], sol)
