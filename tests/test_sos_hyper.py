import itertools
import math

import numpy as np
import pytest

from halftest import testers
from halftest.distributions import MarginalSpec, sample_marginal
from halftest.errors import NonFiniteError, PreconditionError
from halftest.oracle import brute_force_max_fourth_moment, fourth_moment_tensor
from halftest.sdp import MAX_ITERATIONS, SdpSolution, _dual_bound, solve_sdp
from halftest import sdp, sos_hyper
from halftest.sos_hyper import (build_degree4_relaxation,
                                empirical_fourth_moment_tensor,
                                flattening_dual_point, fourth_moment_witness,
                                solve_relaxation)
from halftest.testers import hypercontractivity_test


def _pair_index(d):
    """(d, d) map from an index pair to its position in the pair basis."""
    index = np.empty((d, d), dtype=int)
    pi, pj = np.triu_indices(d)
    index[pi, pj] = index[pj, pi] = np.arange(len(pi))
    return index


def _entry(c, i, j, k, l):
    """E[x_i x_j x_k x_l] read off the pair-moment matrix at ((i,j), (k,l))."""
    d = (math.isqrt(8 * c.shape[0] + 1) - 1) // 2
    index = _pair_index(d)
    return c[index[i, j], index[k, l]] / ((1 if i == j else 2) * (1 if k == l else 2))


def test_tensor_single_point():
    c = empirical_fourth_moment_tensor(np.array([[1.0, 0.0]]))
    assert _entry(c, 0, 0, 0, 0) == 1.0
    assert _entry(c, 1, 1, 1, 1) == 0.0
    assert _entry(c, 0, 0, 1, 1) == 0.0


def test_tensor_three_points():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = empirical_fourth_moment_tensor(pts)
    assert abs(_entry(c, 0, 0, 0, 0) - 2.0 / 3.0) < 1e-15
    assert abs(_entry(c, 1, 1, 1, 1) - 1.0 / 3.0) < 1e-15
    assert _entry(c, 0, 1, 0, 1) == 0.0


def test_tensor_gaussian_moments():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 100_000, seed=21)
    c = empirical_fourth_moment_tensor(pts)
    assert abs(_entry(c, 0, 0, 0, 0) - 3.0) < 0.15
    assert abs(_entry(c, 0, 0, 1, 1) - 1.0) < 0.1


def test_tensor_matches_the_dense_oracle_tensor():
    # the oracle forms E[x_i x_j x_k x_l] from the (n, d^2) products x_i x_j
    # independently of the feature-major pair fill
    for d in range(1, 9):
        pts = sample_marginal(MarginalSpec("student_t", d, nu=5), 300, seed=40 + d)
        c = empirical_fourth_moment_tensor(pts)
        dense = fourth_moment_tensor(pts)
        for i, j, k, l in itertools.product(range(d), repeat=4):
            assert _entry(c, i, j, k, l) == pytest.approx(dense[i, j, k, l],
                                                          rel=1e-13, abs=0.0)


def test_tensor_permutation_symmetry():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 50, seed=22)
    dense = fourth_moment_tensor(pts)
    assert np.allclose(dense, np.transpose(dense, (1, 0, 2, 3)))
    assert np.allclose(dense, np.transpose(dense, (3, 2, 1, 0)))
    assert np.allclose(dense, np.transpose(dense, (2, 3, 0, 1)))


def test_tensor_matches_sample_mean():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 40, seed=23)
    c = empirical_fourth_moment_tensor(pts)
    direct = np.mean(pts[:, 0] * pts[:, 1] ** 2 * pts[:, 2])
    assert abs(_entry(c, 0, 1, 1, 2) - direct) < 1e-15


@pytest.mark.parametrize("spec", [MarginalSpec("standard_gaussian", 5),
                                  MarginalSpec("student_t", 4, nu=3)])
def test_pair_moments_give_directional_fourth_moments(spec):
    # psi(v)^T C psi(v) = E[<v,x>^4] for psi(v) = (v_i v_j)_{i<=j}, and the
    # true moments psi psi^T satisfy every row of the relaxation
    pts = sample_marginal(spec, 2000, seed=32)
    c = empirical_fourth_moment_tensor(pts)
    prob = build_degree4_relaxation(c)
    rng = np.random.default_rng(32)
    pi, pj = np.triu_indices(spec.dim)
    for _ in range(10):
        v = rng.standard_normal(spec.dim)
        v /= np.linalg.norm(v)
        psi = v[pi] * v[pj]
        expected = np.mean((pts @ v) ** 4)
        assert abs(psi @ c @ psi - expected) <= 1e-12 * expected
        rows = np.tensordot(prob.constraints, np.outer(psi, psi))
        assert np.max(np.abs(rows - prob.b)) <= 1e-14


def test_rows_match_a_loop_over_gram_positions():
    # reference: the normalization row, then one row M[a, b] - M[first] = 0
    # for every Gram position (a, b), a <= b, whose quartic appeared earlier
    for d in (1, 2, 3, 5):
        pairs = list(zip(*np.triu_indices(d)))
        n = len(pairs)
        squares = np.array([i == j for i, j in pairs], dtype=float)
        expected, first = [np.outer(squares, squares)], {}
        for a in range(n):
            for b in range(a, n):
                fa, fb = first.setdefault(tuple(sorted(pairs[a] + pairs[b])), (a, b))
                if (fa, fb) != (a, b):
                    row = np.zeros((n, n))
                    row[a, b] += 0.5
                    row[b, a] += 0.5
                    row[fa, fb] -= 0.5
                    row[fb, fa] -= 0.5
                    expected.append(row)
        prob = build_degree4_relaxation(np.eye(n))
        assert np.array_equal(prob.constraints, expected)
        assert np.array_equal(prob.b, [1.0] + [0.0] * (len(expected) - 1))


def test_constraint_stack_is_built_once_per_dimension():
    first = build_degree4_relaxation(np.eye(21))
    second = build_degree4_relaxation(2.0 * np.eye(21))
    assert first.constraints is second.constraints and first.b is second.b
    assert first.constraint_norms is second.constraint_norms
    assert not first.constraints.flags.writeable
    assert not first.constraint_norms.flags.writeable
    with pytest.raises(ValueError):
        first.constraints[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        first.b[0] = 2.0
    assert first.constraints[0, 0, 0] == 1.0 and first.b[0] == 1.0


def test_solve_takes_no_norm_of_the_constraint_stack(monkeypatch):
    # the norms ||A_i|| are taken once, when the stack is built
    prob = build_degree4_relaxation(empirical_fourth_moment_tensor(
        np.random.default_rng(18).standard_normal((500, 4))))
    m, n = len(prob.b), prob.n
    assert prob.constraint_norms.tobytes() == np.linalg.norm(
        prob.constraints.reshape(m, n * n), axis=1).tobytes()
    shapes = []
    norm = np.linalg.norm

    def recorded(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    assert solve_sdp(prob).optimal
    assert shapes and (m, n * n) not in shapes


def test_template_norms_solve_as_a_problem_built_from_its_own_stack():
    # criterion 04's 50 unthresholded solves: the norms a relaxation shares
    # with its template give the solve of norms taken from a fresh stack
    rng = np.random.default_rng(40)
    for trial in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(5, 201))
        scale = rng.uniform(0.3, 2.0)
        kind = ("standard_gaussian", "product_laplace", "uniform_cube",
                "student_t")[trial % 4]
        spec = MarginalSpec(kind, d, nu=3 if kind == "student_t" else None)
        pts = sample_marginal(spec, n, seed=400 + trial) * scale
        prob = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
        fresh = sdp.SdpProblem(prob.n, prob.objective, np.array(prob.constraints),
                               prob.b, prob.trace_bound)
        got, want = solve_sdp(prob), solve_sdp(fresh)
        assert (got.status, got.value.hex(), got.iterations) == (
            want.status, want.value.hex(), want.iterations)


def test_relaxation_rejects_malformed_c():
    for c in (np.eye(5), np.eye(7), np.zeros((0, 0)), np.ones((3, 6)), np.ones(3)):
        with pytest.raises(ValueError):
            build_degree4_relaxation(c)


def test_relaxation_dimension_one_collapse():
    pts = np.array([[2.0], [1.0], [-1.0]])
    c = empirical_fourth_moment_tensor(pts)
    value, sol = solve_relaxation(c)
    assert sol.optimal
    assert abs(value - c[0, 0]) < 1e-6


def test_relaxation_dominates_true_maximum():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    assert value >= 2.0 / 3.0 - 1e-6


def test_relaxation_scaling():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 200, seed=24)
    c = empirical_fourth_moment_tensor(pts)
    base, _ = solve_relaxation(c)
    for s in (0.5, 4.0):
        scaled, _ = solve_relaxation(s * c)
        assert abs(scaled - s * base) <= 1e-5 * max(1.0, s * base)


def test_relaxation_rotation_invariance():
    rng = np.random.default_rng(25)
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 300, seed=25)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a, _ = solve_relaxation(empirical_fourth_moment_tensor(pts))
    b, _ = solve_relaxation(empirical_fourth_moment_tensor(pts @ q.T))
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
        c = empirical_fourth_moment_tensor(pts)
        prob = build_degree4_relaxation(c)
        pairs = d * (d + 1) // 2
        assert prob.n == pairs
        rhs = list(prob.b)
        # one normalization row; one consistency row per repeated quartic position
        assert rhs.count(1.0) == 1
        assert rhs.count(0.0) == len(rhs) - 1
        assert len(rhs) - 1 == pairs * (pairs + 1) // 2 - math.comb(d + 3, 4)
        value, sol = solve_relaxation(c)
        assert sol.optimal
        assert abs(value - expected) <= 1e-7 * abs(expected)
        brute, _ = brute_force_max_fourth_moment(pts, seed=seed)
        assert value >= brute - 1e-5


def test_pseudo_moment_matrix_invariants():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=26)
    value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    m = sol.X
    # psd within solver tolerance
    assert np.linalg.eigvalsh(m)[0] >= -1e-6
    # pseudo-moments Etilde[v_i v_j v_k v_l], read at the position ((i,j), (k,l))
    index = _pair_index(3)
    moments = m[index[:, :, None, None], index[None, None, :, :]]
    # normalization sum_ij E[v_i^2 v_j^2] = 1
    assert abs(np.einsum("iijj->", moments) - 1.0) <= 1e-6
    # moment consistency: every position naming a quartic holds one value
    for perm in itertools.permutations(range(4)):
        assert np.max(np.abs(moments - np.transpose(moments, perm))) <= 1e-6
    # objective value consistency, against the oracle's dense tensor
    recomputed = np.sum(fourth_moment_tensor(pts) * moments)
    assert abs(recomputed - value) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_relaxation_dominance_random(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(5, 200))
    pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
    brute, _ = brute_force_max_fourth_moment(pts, seed=seed)
    value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    assert value >= brute - 1e-5


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["standard_gaussian", "product_laplace",
                                  "uniform_cube", "student_t"])
def test_relaxation_is_exact_at_d_up_to_3(kind, d):
    # nonnegative binary and ternary quartics are sums of squares (Hilbert,
    # 1888), so the relaxation value is the maximum itself; a gap above
    # rounding means the oracle fell short of the maximum
    spec = MarginalSpec(kind, d, nu=3 if kind == "student_t" else None)
    for seed in range(5):
        pts = sample_marginal(spec, 300, seed=seed)
        brute, _ = brute_force_max_fourth_moment(pts, seed=seed)
        value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
        assert sol.optimal
        assert 0.0 <= value - brute <= 1e-6 * value


def test_hypercontractivity_zeros_accept():
    verdict = hypercontractivity_test(np.zeros((10, 3)), gamma=1.0)
    assert verdict.accepted
    assert verdict.diagnostics["sdp_value"] <= 1e-7


def _accepts_below(pts, full_value_bound):
    # the full solve pins the relaxation value; the tester's early stop
    # reports the certified bound it accepted on, which is at most the
    # threshold but may exceed the relaxation value
    value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
    assert sol.optimal
    assert value < full_value_bound
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert verdict.accepted
    diag = verdict.diagnostics
    assert diag["stop_reason"] == "certified"
    assert diag["sdp_value"] <= diag["threshold"] == 9.0
    assert diag["slack"] == diag["threshold"] - diag["sdp_value"]
    return diag


def test_hypercontractivity_gaussian_accepts():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, seed=27)
    _accepts_below(pts, 4.0)


def test_hypercontractivity_spike_rejects():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, seed=28)
    spiked = pts.copy()
    spiked[:100] = 0.0
    spiked[:100, 0] = 10.0
    verdict = hypercontractivity_test(spiked, gamma=1.0, c_hyper=10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "witness"
    assert verdict.diagnostics["witness_value"] > 9.0


@pytest.mark.parametrize("seed", [15, 16])
def test_hypercontractivity_gaussian_d8_accepts(seed):
    # samples on which the earlier formulation stopped short of optimal
    pts = sample_marginal(MarginalSpec("standard_gaussian", 8), 20_000,
                          seed=seed, stream_id=60)
    diag = _accepts_below(pts, 4.0)
    assert diag["iterations"] <= 5


def test_hypercontractivity_solver_errors(monkeypatch):
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100, seed=29)

    def fail_with(exc):
        def solve(*args, **kwargs):
            raise exc
        monkeypatch.setattr(testers, "solve_relaxation", solve)

    fail_with(np.linalg.LinAlgError("not positive definite"))
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "LinAlgError"
    assert "sdp_value" not in verdict.diagnostics
    # a programming error is not a numerical failure and must surface
    fail_with(TypeError("bad argument"))
    with pytest.raises(TypeError):
        hypercontractivity_test(pts, 1.0, 10.0)
    # a solve that ends without a certified value names why and has no value
    sol = SdpSolution(X=np.zeros((1, 1)), value=1.0, dual_value=1.0,
                      status="max_iterations")
    monkeypatch.setattr(testers, "solve_relaxation",
                        lambda *args, **kwargs: (math.nan, sol))
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "max_iterations"
    assert "sdp_value" not in verdict.diagnostics


def test_hypercontractivity_overflow_rejects():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 5000, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        verdict = hypercontractivity_test(pts * 1e80, 1.0, 10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "NonFiniteError"
    assert "sdp_value" not in verdict.diagnostics
    # a non-finite sample is bad input, not a numerical failure
    pts[0, 0] = math.inf
    with pytest.raises(NonFiniteError):
        hypercontractivity_test(pts, 1.0, 10.0)


@pytest.mark.parametrize("kind, d, seed", [
    ("product_laplace", 4, 2), ("product_laplace", 5, 0),
    ("product_laplace", 5, 1), ("product_laplace", 5, 2),
    ("standard_gaussian", 5, 0),
])
def test_hypercontractivity_verdict_is_scale_free(kind, d, seed):
    # x -> s x with gamma -> s gamma leaves the test unchanged; with s a power
    # of two, s x / s = x exactly, so the whole verdict is identical
    # (criterion 05 samples)
    n = min(int((2 * d * math.log(16 * d)) ** 4), 100_000)
    pts = sample_marginal(MarginalSpec(kind, d), n, seed=seed)
    expected = hypercontractivity_test(pts, 1.0, 10.0)
    for k in (-200, -100, -20, -10, 10, 20, 100, 127, 128, 200):
        verdict = hypercontractivity_test(pts * 2.0**k, 2.0**k, 10.0)
        assert verdict.diagnostics == expected.diagnostics, k
        assert verdict.accepted == expected.accepted


def test_hypercontractivity_extreme_gamma_gives_a_verdict():
    # gamma^4 overflows at 1e80 and underflows to 0 at 1e-100; the test
    # never forms it, so each gamma returns a verdict on x / gamma
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 5000, seed=0)
    unit = hypercontractivity_test(pts, 1.0, 10.0)
    assert unit.accepted
    for gamma in (1e80, 1e-100):
        verdict = hypercontractivity_test(pts * gamma, gamma, 10.0)
        assert verdict.accepted
        assert verdict.diagnostics["stop_reason"] == "certified"
        assert verdict.diagnostics["sdp_value"] == pytest.approx(
            unit.diagnostics["sdp_value"], rel=1e-12)
    # the raw sample is tiny in units of 1e80 and overflows in units of 1e-100
    assert hypercontractivity_test(pts, 1e80, 10.0).accepted
    with np.errstate(over="ignore", invalid="ignore"):
        huge = hypercontractivity_test(pts, 1e-100, 10.0)
    assert not huge.accepted
    assert huge.diagnostics["stop_reason"] == "NonFiniteError"


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_hypercontractivity_parameters_must_be_finite_and_positive(bad):
    # gamma = inf would turn the sample into zeros and accept it
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100, seed=30)
    with pytest.raises(PreconditionError):
        hypercontractivity_test(pts, bad, 10.0)
    with pytest.raises(PreconditionError):
        hypercontractivity_test(pts, 1.0, bad)


def test_rescaled_gaussian_reject_is_optimal():
    # at 1e20 times the sample, gamma = 1, the solve runs to optimality and
    # its value is 1e80 times the unscaled maximum fourth moment; the tester
    # settles the same reject with a witness and no solve
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 5000, seed=0)
    brute, _ = brute_force_max_fourth_moment(pts)
    value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts * 1e20))
    assert sol.optimal
    assert value >= 1e80 * brute * (1.0 - 1e-9)
    verdict = hypercontractivity_test(pts * 1e20, 1.0, 10.0)
    assert not verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "witness"
    assert 9.0 < verdict.diagnostics["witness_value"] <= value


@pytest.mark.parametrize("scale", [1e20, 1e60])
def test_rescaled_gaussian_is_a_witness_reject_without_floating_point_errors(scale):
    # x scaled alone: the witness is E[<v,x>^4] of x, about 3.3 scale^4, and
    # no step of the test overflows (x 1e80 overflows C itself, a
    # NonFiniteError reject in test_hypercontractivity_overflow_rejects)
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 5000, seed=0)
    with np.errstate(all="raise"):
        verdict = hypercontractivity_test(pts * scale, 1.0, 10.0)
    diag = verdict.diagnostics
    assert not verdict.accepted and diag["stop_reason"] == "witness"
    v = np.array(diag["witness_direction"])
    expected = np.mean((pts @ v) ** 4) / np.linalg.norm(v) ** 4 * scale**4
    assert diag["witness_value"] == pytest.approx(expected, rel=1e-12)
    assert "sdp_value" not in diag and "iterations" not in diag


class _Rounded(Exception):
    """The witness reached its rounding step (see ``_rounded``)."""


def _rounded(v):
    # patched in for sos_hyper.unit, which the witness calls only to round
    raise _Rounded


def _flattening(c, d):
    """W = diag(r) C diag(r) - (e e^T - I) of fourth_moment_witness."""
    pi, pj = np.triu_indices(d)
    r = np.where(pi == pj, 1.0, math.sqrt(0.5))
    e = (pi == pj).astype(float)
    return r[:, None] * c * r - np.outer(e, e) + np.eye(len(r))


def test_no_witness_search_below_the_top_eigenvalue(monkeypatch):
    # lambda_max(W) <= threshold rules a witness out: the search stops
    # before its rounding step and the tester solves
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000, seed=27)
    c = empirical_fourth_moment_tensor(pts)
    top = np.linalg.eigvalsh(_flattening(c, 3))[-1]
    assert top < 9.0

    monkeypatch.setattr(sos_hyper, "unit", _rounded)
    mu, witness = fourth_moment_witness(pts, c, top * (1.0 + 1e-12))
    assert witness is None and mu == pytest.approx(top, rel=1e-13)
    with pytest.raises(_Rounded):
        fourth_moment_witness(pts, c, top * (1.0 - 1e-9))
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert verdict.accepted and verdict.diagnostics["stop_reason"] == "certified"


def _small_samples():
    """Twenty samples: Gaussian, Laplace, cube and Student-t nu=3 at
    d = 2..5 and n = 200..2000."""
    kinds = ("standard_gaussian", "product_laplace", "uniform_cube",
             "student_t")
    for i in range(20):
        kind = kinds[i % 4]
        spec = MarginalSpec(kind, 2 + (i // 4) % 4,
                            nu=3 if kind == "student_t" else None)
        yield sample_marginal(spec, (200, 500, 1000, 2000)[(i + i // 4) % 4],
                              seed=2700 + i)


def test_witness_skips_only_thresholds_no_direction_reaches(monkeypatch):
    # lambda_max(W) is at least the maximum fourth moment, so a threshold
    # just below the oracle's maximum reaches the rounding step; on these
    # samples it is also within 25% of it, so a threshold 25% above the
    # maximum stops before rounding
    monkeypatch.setattr(sos_hyper, "unit", _rounded)
    for pts in _small_samples():
        top, _ = brute_force_max_fourth_moment(pts)
        c = empirical_fourth_moment_tensor(pts)
        with pytest.raises(_Rounded):
            fourth_moment_witness(pts, c, top * (1.0 - 1e-9))
        assert fourth_moment_witness(pts, c, 1.25 * top)[1] is None


def test_witness_clears_the_threshold_by_its_rounding_margin():
    # the margin of fourth_moment_witness's docstring, restated: a threshold
    # inside it leaves the same direction unreported, one below it does not
    pts = _spiked(35)
    n, d = pts.shape
    c = empirical_fourth_moment_tensor(pts)
    _, (value, v) = fourth_moment_witness(pts, c, 9.0)
    squares = [i * d - i * (i - 1) // 2 for i in range(d)]
    fourth = np.sum(c[np.ix_(squares, squares)])
    margin = np.finfo(float).eps * (2 * n + 6 * d + 10) * fourth
    assert fourth_moment_witness(pts, c, value - 0.5 * margin)[1] is None
    _, (again, same) = fourth_moment_witness(pts, c, value - 2.0 * margin)
    assert again == value and np.array_equal(same, v)


def test_rounded_witness_clears_a_threshold_near_the_relaxation_value():
    # the relaxation value of this sample is about 7.08; the rounded top
    # eigenvector of W is a witness at 6
    pts = sample_marginal(MarginalSpec("product_laplace", 4), 5_000, seed=37)
    c = empirical_fourth_moment_tensor(pts)
    _, (value, _) = fourth_moment_witness(pts, c, 6.0)
    assert 6.0 < value <= solve_relaxation(c)[0]


def _criterion_05_06_samples():
    """Seed 0 of every criterion 05 cell, the first two of criterion 06 and
    a Student-t nu=3 d=6 sample."""
    for kind in ("standard_gaussian", "product_laplace", "uniform_cube"):
        for d in (2, 3, 4, 5):
            n = min(int((2 * d * math.log(16 * d)) ** 4), 100_000)
            yield sample_marginal(MarginalSpec(kind, d), n, seed=0)
    for seed in range(2):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000,
                              seed=600 + seed)
        gen = np.random.default_rng(seed)
        mask = gen.random(10_000) < 0.01
        pts[mask] = 0.0
        pts[mask, 0] = np.where(gen.random(int(mask.sum())) < 0.5, 10.0, -10.0)
        yield pts
    yield sample_marginal(MarginalSpec("student_t", 6, nu=3), 20_000, seed=0)


def test_sdp_value_is_the_certified_bound_on_every_verdict():
    # a solved verdict reports the certified bound it rests on; a witness
    # is a lower bound on the relaxation value, so it never exceeds the
    # certified optimum
    verdicts = {True: 0, False: 0}
    witnesses = 0
    for pts in _criterion_05_06_samples():
        value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
        assert sol.optimal and value == sol.bound
        # c_hyper 3 puts some completeness samples on the reject side
        for c_hyper in (3.0, 10.0):
            verdict = hypercontractivity_test(pts, 1.0, c_hyper)
            diag = verdict.diagnostics
            if diag["stop_reason"] == "witness":
                assert not verdict.accepted
                assert diag["threshold"] < diag["witness_value"] <= value
                witnesses += 1
            else:
                assert verdict.accepted == (diag["slack"] >= 0)
                assert diag["slack"] == diag["threshold"] - diag["sdp_value"]
            verdicts[verdict.accepted] += 1
        brute, _ = brute_force_max_fourth_moment(pts, mode="ascent")
        assert value >= brute
    assert min(verdicts.values()) >= 10, verdicts
    assert witnesses >= 10


def _spiked(seed):
    # 1% of the points moved to +-10 e1, as in criterion 06
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=seed)
    gen = np.random.default_rng(seed)
    mask = gen.random(len(pts)) < 0.01
    pts[mask] = 0.0
    pts[mask, 0] = np.where(gen.random(int(mask.sum())) < 0.5, 10.0, -10.0)
    return pts


@pytest.mark.parametrize("make_points", [
    lambda: sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=33),
    lambda: sample_marginal(MarginalSpec("student_t", 3, nu=3), 500, seed=34),
    lambda: _spiked(35),
], ids=["gaussian", "student_t3", "spike"])
def test_bound_of_a_cut_off_solve_dominates_brute_force(make_points):
    pts = make_points()
    brute, _ = brute_force_max_fourth_moment(pts, seed=0)
    prob = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
    bounds = []
    for k in range(1, 6):
        sol = solve_sdp(prob, max_iterations=k)
        assert sol.status == MAX_ITERATIONS and sol.iterations == k
        assert sol.bound >= brute
        bounds.append(sol.bound)
    # the best bound so far can only improve with more iterations
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize("seed", range(4))
def test_bound_holds_for_random_dual_points(seed):
    rng = np.random.default_rng(200 + seed)
    pts = sample_marginal(MarginalSpec("product_laplace", 3), 500, seed=200 + seed)
    c = empirical_fourth_moment_tensor(pts)
    prob = build_degree4_relaxation(c)
    value, sol = solve_relaxation(c)
    assert sol.optimal
    a = prob.constraints
    norms = np.linalg.norm(a.reshape(len(a), -1), axis=1)
    for scale in (1e-3, 1.0, 1e3):
        y = scale * rng.standard_normal(len(a))
        ub, _ = _dual_bound(np.tensordot(y, a, axes=1), y, prob.b, c, norms,
                            prob.trace_bound)
        assert ub >= value
    assert value <= sol.bound
    # at convergence the best bound meets the dual value; the primal value
    # of an X that is feasible only within tolerance may exceed both
    assert abs(sol.bound - sol.dual_value) <= 1e-9 * value


def test_certified_stop_follows_the_unthresholded_iterates():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 5_000, seed=36)
    prob = build_degree4_relaxation(empirical_fourth_moment_tensor(pts))
    early = solve_sdp(prob, threshold=4.0)
    assert early.status == "certified" and early.bound <= 4.0
    assert early.iterations > 1
    cut = solve_sdp(prob, max_iterations=early.iterations)
    assert np.array_equal(cut.X, early.X) and cut.bound == early.bound
    full = solve_sdp(prob)
    assert full.optimal and full.iterations > early.iterations


def test_hypercontractivity_accept_is_monotone_in_c_hyper():
    for seed in (37, 38):
        pts = sample_marginal(MarginalSpec("product_laplace", 4), 5_000, seed=seed)
        verdicts = [hypercontractivity_test(pts, 1.0, c_hyper)
                    for c_hyper in (2.0, 4.0, 6.0, 7.0, 8.0, 10.0, 100.0)]
        accepted = [v.accepted for v in verdicts]
        assert accepted == sorted(accepted) and accepted[-1]
        assert not accepted[0]
        iterations = [v.diagnostics["iterations"] for v in verdicts if v.accepted]
        assert iterations == sorted(iterations, reverse=True)


@pytest.mark.parametrize("d", range(2, 9))
def test_flattening_dual_point_has_a_closed_form_slack(d):
    # A^T y(mu) = (mu - 1) diag(s^2) + e e^T bit for bit, and b^T y = mu
    pi, pj = np.triu_indices(d)
    s2 = np.where(pi == pj, 1.0, 2.0)
    e = (pi == pj).astype(float)
    prob = build_degree4_relaxation(np.eye(len(e)))
    for mu in (1.0, 3.0, 4.146, 9.0, 1e6 + 0.25):
        y = flattening_dual_point(d, mu)
        assert np.count_nonzero(y) == (1 if mu == 1.0 else 1 + d * (d - 1) // 2)
        assert np.array_equal(np.tensordot(y, prob.constraints, axes=1),
                              (mu - 1.0) * np.diag(s2) + np.outer(e, e))
        assert prob.b @ y == mu


def _criterion_04_samples():
    """The 50 datasets of criterion 04."""
    rng = np.random.default_rng(40)
    for trial in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(5, 201))
        scale = rng.uniform(0.3, 2.0)
        kind = ("standard_gaussian", "product_laplace", "uniform_cube",
                "student_t")[trial % 4]
        spec = MarginalSpec(kind, d, nu=3 if kind == "student_t" else None)
        yield sample_marginal(spec, n, seed=400 + trial) * scale


def _benchmark_families():
    """One sample of each family of the sos-hyper benchmark workload (seed 1,
    n = 20000): Gaussian d=8, cube d=7, Laplace d=6, Student-t nu=3 d=6 and
    a Gaussian d=6 with 1% of its points moved to +-10 e1."""
    specs = (MarginalSpec("standard_gaussian", 8), MarginalSpec("uniform_cube", 7),
             MarginalSpec("product_laplace", 6), MarginalSpec("student_t", 6, nu=3),
             MarginalSpec("standard_gaussian", 6))
    for index, spec in enumerate(specs):
        pts = sample_marginal(spec, 20_000, seed=1, stream_id=60 + index)
        if index == 4:
            gen = np.random.default_rng([1, 60 + index])
            mask = gen.random(len(pts)) < 0.01
            pts[mask] = 0.0
            pts[mask, 0] = np.where(gen.random(int(mask.sum())) < 0.5, 10.0, -10.0)
        yield pts


@pytest.mark.parametrize("samples", [_criterion_04_samples, _benchmark_families],
                         ids=["criterion_04", "benchmark_families"])
def test_flattening_bound_dominates_the_relaxation_optimum(samples):
    # y(mu) at mu = lambda_max(W) is a dual point of the relaxation, so its
    # certified bound is at least the optimum, and it is certified at once
    for pts in samples():
        c = empirical_fourth_moment_tensor(pts)
        d = pts.shape[1]
        mu, witness = fourth_moment_witness(pts, c, math.inf)
        assert witness is None
        value, sol = solve_relaxation(c)
        assert sol.optimal
        prob = build_degree4_relaxation(c)
        y = flattening_dual_point(d, mu)
        a = prob.constraints
        ub, _ = _dual_bound(np.tensordot(y, a, axes=1), y, prob.b, c,
                            np.linalg.norm(a.reshape(len(a), -1), axis=1),
                            prob.trace_bound)
        assert ub >= value and ub == pytest.approx(mu, rel=1e-9)
        bound, early = solve_relaxation(c, threshold=ub, mu=mu)
        assert early.status == "certified" and early.iterations == 1
        assert value <= bound <= ub


@pytest.mark.parametrize("seed", [0, 15, 16])
def test_gaussian_d8_accepts_without_a_newton_step(monkeypatch, seed):
    def no_step(*args):
        raise AssertionError("a Newton step was taken")

    monkeypatch.setattr(sdp, "_nt_scaling", no_step)
    pts = sample_marginal(MarginalSpec("standard_gaussian", 8), 20_000,
                          seed=seed, stream_id=60)
    verdict = hypercontractivity_test(pts, 1.0, 10.0)
    assert verdict.accepted
    assert verdict.diagnostics["stop_reason"] == "certified"
    assert verdict.diagnostics["iterations"] == 1
    assert verdict.diagnostics["sdp_value"] < 4.0


@pytest.mark.parametrize("points", [np.empty((0, 3)), np.ones(3)])
def test_fourth_moment_tensor_refuses_an_empty_sample(points):
    with pytest.raises(ValueError, match="nonempty"):
        empirical_fourth_moment_tensor(points)
