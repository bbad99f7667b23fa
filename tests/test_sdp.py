import dataclasses
import math

import numpy as np
import pytest

from halftest.sdp import (MAX_ITERATIONS, OPTIMAL, TOL_FEAS, SdpProblem,
                          _dual_bound, _max_step, _nt_scaling, solve_sdp)
from halftest.sos_hyper import (build_degree4_relaxation,
                                empirical_fourth_moment_tensor,
                                flattening_dual_point, fourth_moment_witness)

TOL_PSD = 1e-7


def check_solution(problem, sol):
    """Verify the Optimal invariants: psd within tol, feasible, gap bound."""
    if not sol.optimal:
        return False
    lam_min = np.linalg.eigvalsh(sol.X)[0]
    if lam_min < -TOL_PSD * (1.0 + abs(np.trace(sol.X))):
        return False
    residual = np.tensordot(problem.constraints, sol.X) - problem.b
    return bool(np.all(np.abs(residual) <= TOL_FEAS * (1.0 + np.abs(problem.b))))


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
    oracle = np.linalg.eigvalsh(c)[-1]
    assert sol.optimal
    assert abs(sol.value - oracle) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_against_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    c = _random_sym(rng, n)
    prob = SdpProblem(n=n, objective=c, constraints=[np.eye(n)], b=[1.0])
    sol = solve_sdp(prob)
    oracle = np.linalg.eigvalsh(c)[-1]
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
        assert sol.status == MAX_ITERATIONS


def test_scaling_equivariance():
    rng = np.random.default_rng(11)
    c = _random_sym(rng, 5)
    prob = SdpProblem(n=5, objective=c, constraints=[np.eye(5)], b=[1.0])
    base = solve_sdp(prob).value
    for s in (0.5, 3.0, 17.0):
        scaled = SdpProblem(n=5, objective=s * c, constraints=[np.eye(5)], b=[1.0])
        assert abs(solve_sdp(scaled).value - s * base) <= 1e-6 * max(1.0, abs(s * base))


def test_infeasible_trace():
    # infeasibility is not detected: the solve never reports an optimum and
    # ends max_iterations (its iterates overflow on the way)
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[np.eye(2)], b=[-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_sdp(prob)
    assert not sol.optimal and sol.status == MAX_ITERATIONS


def test_inconsistent_equalities():
    prob = SdpProblem(n=2, objective=np.eye(2),
                      constraints=[np.eye(2), 2 * np.eye(2)], b=[1.0, 3.0])
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_sdp(prob)
    assert not sol.optimal and sol.status == MAX_ITERATIONS


def test_redundant_equalities_ok():
    prob = SdpProblem(n=3, objective=np.diag([1.0, 0.0, 0.0]),
                      constraints=[np.eye(3), 2 * np.eye(3)], b=[1.0, 2.0])
    sol = solve_sdp(prob)
    assert sol.optimal
    assert abs(sol.value - 1.0) < 1e-6


def test_inconsistent_random_equalities_never_optimal():
    # b outside the range of dependent rows breaks SdpProblem's precondition
    # and solve_sdp does not detect it, but it must not report an optimum or
    # raise
    rng = np.random.default_rng(15)
    for _ in range(3):
        n = int(rng.integers(2, 7))
        x0 = rng.standard_normal((n, n))
        x0 = x0 @ x0.T + 0.5 * np.eye(n)
        mats = [np.eye(n)] + [_random_sym(rng, n) for _ in range(int(rng.integers(1, 4)))]
        mats.append(np.tensordot(rng.standard_normal(len(mats)), mats, axes=1))
        b = [float(np.tensordot(a, x0)) for a in mats]
        b[-1] += 1.0
        prob = SdpProblem(n=n, objective=_random_sym(rng, n), constraints=mats, b=b)
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_sdp(prob)
        assert sol.status == MAX_ITERATIONS


def test_sos_rows_are_independent_and_depend_on_d_alone():
    # build_degree4_relaxation's docstring proves that the Gram matrix of its
    # rows has lambda_min >= 1/2; solve_sdp relies on independent rows
    rng = np.random.default_rng(12)
    for d in range(1, 11):
        first, second = (build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
                         for pts in (rng.standard_normal((50, d)),
                                     rng.exponential(2.0, (80, d))))
        assert np.array_equal(first.constraints, second.constraints)
        assert np.array_equal(first.b, second.b)
        rows = first.constraints.reshape(len(first.b), -1)
        assert np.linalg.eigvalsh(rows @ rows.T)[0] >= 0.5 - 1e-12


def test_constraint_stack_copied_only_when_not_symmetric():
    rng = np.random.default_rng(13)
    sym = np.stack([np.eye(3), _random_sym(rng, 3)])
    prob = SdpProblem(n=3, objective=np.eye(3), constraints=sym, b=[1.0, 0.0])
    assert prob.constraints is sym
    skew = sym.copy()
    skew[1, 0, 2] += 1.0
    prob = SdpProblem(n=3, objective=np.eye(3), constraints=skew, b=[1.0, 0.0])
    assert np.array_equal(prob.constraints, (skew + skew.transpose(0, 2, 1)) / 2)


def test_empty_constraint_stack_raises():
    with pytest.raises(ValueError):
        SdpProblem(n=2, objective=np.eye(2), constraints=[], b=[])
    with pytest.raises(ValueError):
        SdpProblem(n=2, objective=np.eye(2), constraints=np.zeros((0, 2, 2)), b=[])


def test_max_iterations_validation():
    prob = SdpProblem(n=2, objective=np.eye(2), constraints=[np.eye(2)], b=[1.0])
    with pytest.raises(ValueError):
        solve_sdp(prob, max_iterations=0)


def test_iteration_cap_returns_the_iterate_it_reports():
    pts = np.random.default_rng(14).standard_normal((100, 3))
    prob = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
    for cap in range(1, 6):
        sol = solve_sdp(prob, max_iterations=cap)
        assert sol.status == MAX_ITERATIONS and sol.iterations == cap
        assert sol.value == float(np.tensordot(prob.objective, sol.X))


def test_numerical_breakdown_ends_with_a_status():
    # Draws of well-posed problems whose iterates grow ill-conditioned (X and
    # S with condition numbers near 1e16).  Draw 153 overflows the Schur
    # complement, and a Newton step of draw 88 breaks down; the solve must end
    # with a status instead of raising.  Draw 11 broke down when S was
    # inverted; with no inverse it converges at its tenth iteration, with a
    # relative gap of 0.98e-8 against the 1e-8 tolerance, so a change to
    # the solver's rounding can move it.
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
    sol = solve_sdp(problems[11])
    assert sol.optimal
    assert check_solution(problems[11], sol)
    for draw in (88, 153):
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_sdp(problems[draw])
        assert sol.status in (OPTIMAL, MAX_ITERATIONS)
        assert not sol.optimal or check_solution(problems[draw], sol)


def _random_pd(rng, n, spread):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, spread, n)) @ q.T


@pytest.mark.parametrize("seed", range(6))
def test_nt_scaling_maps_x_and_s_to_one_diagonal(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 12))
    x, s = _random_pd(rng, n, 3.0), _random_pd(rng, n, 3.0)
    r, v = _nt_scaling(x, s)
    r_inv = np.linalg.inv(r)
    w = r @ r.T
    assert np.all(v > 0)
    assert np.linalg.norm(w @ s @ w - x) <= 1e-10 * np.linalg.norm(x)
    for scaled in (r_inv @ x @ r_inv.T, r.T @ s @ r):
        assert np.linalg.norm(scaled - np.diag(v)) <= 1e-10 * np.linalg.norm(v)
    # the Schur matrix of the scaled rows is a Gram product, exactly symmetric
    rows = (r.T @ np.stack([_random_sym(rng, n) for _ in range(7)]) @ r).reshape(7, -1)
    schur = rows @ rows.T
    assert np.array_equal(schur, schur.T)


def test_nt_scaling_rejects_indefinite_s():
    rng = np.random.default_rng(210)
    x = _random_pd(rng, 4, 1.0)
    s = _random_pd(rng, 4, 1.0) - 20.0 * np.outer(np.ones(4), np.ones(4))
    with pytest.raises(np.linalg.LinAlgError):
        _nt_scaling(x, s)


@pytest.mark.parametrize("seed", range(6))
def test_max_step_reaches_the_cone_boundary(seed):
    rng = np.random.default_rng(220 + seed)
    n = int(rng.integers(2, 10))
    v = np.logspace(-3, 1, n)
    rng.shuffle(v)
    d = _random_sym(rng, n)
    alpha = _max_step(v, d)
    assert 0 < alpha < np.inf
    assert abs(np.linalg.eigvalsh(np.diag(v) + alpha * d)[0]) <= 1e-12 * alpha * np.linalg.norm(d)
    assert np.linalg.eigvalsh(np.diag(v) + 0.99 * alpha * d)[0] > 0
    g = rng.standard_normal((n, n))
    assert _max_step(v, g @ g.T) == np.inf
    assert _max_step(v, np.zeros((n, n))) == np.inf


def test_one_factorization_per_iteration(monkeypatch):
    # An iteration that takes a step factors X (Cholesky), L^T S L (eigh) and
    # the Schur matrix (solve), and takes four eigvalsh for the step lengths.  S is never inverted.  A finite trace bound adds one
    # eigvalsh per iterate, for the certified bound.
    calls = {}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("cholesky", "eigh", "eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    pts = np.random.default_rng(12).standard_normal((200, 3))
    prob = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
    for trace_bound in (math.inf, prob.trace_bound):
        calls.clear()
        sol = solve_sdp(dataclasses.replace(prob, trace_bound=trace_bound))
        steps = sol.iterations - 1
        bounds = sol.iterations if math.isfinite(trace_bound) else 0
        assert sol.optimal and steps > 5
        assert calls == {"cholesky": steps, "eigh": steps,
                         "eigvalsh": 4 * steps + bounds, "solve": steps}


def test_dual_point_joins_only_the_first_check():
    # the point's bound competes with the first iterate's; the iterates and
    # every later bound are those of the solve without it
    pts = np.random.default_rng(15).standard_normal((300, 3))
    c = empirical_fourth_moment_tensor(pts)
    prob = build_degree4_relaxation(c)
    a, m = prob.constraints, len(prob.b)
    norms = np.linalg.norm(a.reshape(m, -1), axis=1)
    plain = solve_sdp(prob)
    first = solve_sdp(prob, max_iterations=1)
    flattening = flattening_dual_point(3, fourth_moment_witness(pts, c, math.inf)[0])
    wins = []
    for y in (flattening, np.random.default_rng(16).standard_normal(m),
              1e3 * np.random.default_rng(17).standard_normal(m)):
        point = solve_sdp(prob, dual_point=y)
        assert np.array_equal(point.X, plain.X)
        assert point.iterations == plain.iterations
        assert point.bound == plain.bound
        ub, _ = _dual_bound(np.tensordot(y, a, axes=1), y, prob.b,
                            prob.objective, norms, prob.trace_bound)
        cut = solve_sdp(prob, max_iterations=1, dual_point=y)
        assert cut.bound == min(ub, first.bound)
        wins.append(ub < first.bound)
    assert wins == [True, False, False]
    with pytest.raises(ValueError):
        solve_sdp(dataclasses.replace(prob, trace_bound=math.inf), dual_point=y)


def test_dual_bound_has_an_absolute_term_for_underflow():
    # the pair products of 2^-300 x underflow to zero, so C computes as 0
    # while the sample's fourth moments are positive: the bound at y = 0 was
    # 0.  At 2^-266 they are subnormal, a few thousand units in the last
    # place, and the bound must still cover the rescaled relaxation value
    pts = np.random.default_rng(17).standard_normal((2000, 3))
    value = solve_sdp(build_degree4_relaxation(
        empirical_fourth_moment_tensor(pts))).bound
    for k in (266, 300):
        c = empirical_fourth_moment_tensor(pts * 2.0**-k)
        assert np.all(np.abs(c) < np.finfo(float).tiny)
        prob = build_degree4_relaxation(c)
        m = len(prob.b)
        ub, lam = _dual_bound(np.zeros_like(c), np.zeros(m), prob.b, c,
                              prob.constraint_norms, prob.trace_bound)
        # the rescaled value, 0.0 in floating point at k = 300, is positive
        assert ub >= value * 2.0**(-4 * k) and ub > 0.0
        assert ub >= np.finfo(float).tiny and lam < 0.0


@pytest.mark.parametrize("changes, message", [
    ({"objective": np.eye(2)}, "objective must be n x n"),
    ({"objective": np.eye(4)}, "objective must be n x n"),
    ({"b": [1.0]}, "one entry per constraint"),
    ({"b": [1.0, 0.0, 0.0]}, "one entry per constraint"),
    ({"trace_bound": -1.0}, "trace_bound must be nonnegative"),
    ({"trace_bound": math.nan}, "trace_bound must be nonnegative")])
def test_sdp_problem_refuses_bad_shapes_and_trace_bounds(changes, message):
    fields = dict(n=3, objective=np.eye(3),
                  constraints=np.stack([np.eye(3), np.diag([1.0, -1.0, 0.0])]),
                  b=[1.0, 0.0])
    with pytest.raises(ValueError, match=message):
        SdpProblem(**dict(fields, **changes))
