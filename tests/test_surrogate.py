import numpy as np
import pytest

from halftest.distributions import Dataset, MarginalSpec, NoiseModel, \
    empirical_error, label_dataset, sample_marginal
from halftest import rng, surrogate
from halftest.errors import DimMismatchError, NonFiniteError, PreconditionError
from halftest.numerics import unit
from halftest.oracle import finite_difference_gradient
from halftest.surrogate import (PsgdConfig, RampParams, gradient_norms,
                                psgd, smooth_ramp, smooth_ramp_derivative,
                                surrogate_gradient, surrogate_loss)


@pytest.mark.parametrize("sigma", [0.05, 0.2, 1.0, 3.7])
class TestRamp:
    def test_linear_region(self, sigma):
        p = RampParams(sigma)
        for t in np.linspace(-sigma / 6, sigma / 6, 25):
            assert abs(smooth_ramp(t, p) - (0.5 + t / sigma)) <= 1e-12

    def test_center_and_tails(self, sigma):
        p = RampParams(sigma)
        assert smooth_ramp(0.0, p) == 0.5
        assert smooth_ramp(sigma, p) == 1.0
        assert smooth_ramp(-sigma, p) == 0.0
        assert abs(smooth_ramp(sigma / 6, p) - 2.0 / 3.0) <= 1e-12

    def test_point_symmetry(self, sigma):
        p = RampParams(sigma)
        ts = np.linspace(-2 * sigma, 2 * sigma, 401)
        vals = smooth_ramp(ts, p)
        assert np.max(np.abs(vals + smooth_ramp(-ts, p) - 1.0)) <= 1e-12

    def test_monotone(self, sigma):
        p = RampParams(sigma)
        ts = np.linspace(-sigma, sigma, 10_000)
        vals = smooth_ramp(ts, p)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_derivative_values(self, sigma):
        p = RampParams(sigma)
        assert abs(smooth_ramp_derivative(0.0, p) - 1.0 / sigma) <= 1e-12
        assert smooth_ramp_derivative(sigma, p) == 0.0
        quarter = smooth_ramp_derivative(sigma / 4, p)
        assert 0.0 < quarter < 3.0 / sigma
        assert abs(quarter - smooth_ramp_derivative(-sigma / 4, p)) <= 1e-12
        # finite-difference oracle at the quarter point
        h = 1e-7 * sigma
        fd = (smooth_ramp(sigma / 4 + h, p) - smooth_ramp(sigma / 4 - h, p)) / (2 * h)
        assert abs(quarter - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_derivative_bounds_and_even(self, sigma):
        p = RampParams(sigma)
        ts = np.linspace(-sigma, sigma, 10_000)
        dv = smooth_ramp_derivative(ts, p)
        assert np.all(dv >= 0.0)
        assert np.all(dv <= 3.0 / sigma + 1e-15)
        assert np.max(np.abs(dv - smooth_ramp_derivative(-ts, p))) <= 1e-12

    def test_second_derivative_bound(self, sigma):
        p = RampParams(sigma)
        # finite differences of l' on each smooth piece
        h = sigma * 1e-6
        for lo, hi in [(-sigma / 6 + 4 * h, sigma / 6 - 4 * h),
                       (sigma / 6 + 4 * h, sigma / 2 - 4 * h),
                       (sigma / 2 + 4 * h, sigma)]:
            ts = np.linspace(lo, hi, 500)
            second = (smooth_ramp_derivative(ts + h, p)
                      - smooth_ramp_derivative(ts - h, p)) / (2 * h)
            assert np.max(np.abs(second)) <= 27.0 / sigma**2 * (1 + 1e-6)

    def test_c1_at_joins(self, sigma):
        p = RampParams(sigma)
        h = sigma * 1e-9
        for t in (sigma / 6, sigma / 2, -sigma / 6, -sigma / 2):
            left = smooth_ramp_derivative(t - h, p)
            right = smooth_ramp_derivative(t + h, p)
            assert abs(left - right) <= 1e-5 / sigma


def _ramp_derivative_reference(t, sigma):
    """l' piece by piece: 1/sigma on |t| <= sigma/6, the Hermite slope
    (1/3 + 2s/3 - s^2) 3/sigma with s = (|t| - sigma/6)/(sigma/3) clipped to
    [0, 1] on sigma/6 < |t| < sigma/2, and 0 from sigma/2 on."""
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= sigma / 6.0] = 1.0 / sigma
    trans = (a > sigma / 6.0) & (a < sigma / 2.0)
    s = np.clip((a[trans] - sigma / 6.0) / (sigma / 3.0), 0.0, 1.0)
    out[trans] = (1.0 / 3.0 + 2.0 * s / 3.0 - s * s) * 3.0 / sigma
    return out


# at 0.16399 and 0.497221 the computed s of some inputs at or just above
# sigma/2 is below 1, so an unmasked Hermite slope would leak past sigma/2
@pytest.mark.parametrize("sigma", [1e-6, 0.0022, 0.05, 0.1, 0.16399, 1.0 / 3.0,
                                   0.497221, 0.7, 1.0, 3.7])
def test_ramp_derivative_matches_piecewise_bit_for_bit(sigma):
    near = []
    for anchor in (0.0, sigma / 6.0, sigma / 2.0, sigma):
        t = anchor
        for _ in range(4):
            t = np.nextafter(t, -np.inf)
        for _ in range(9):
            near.append(t)
            t = np.nextafter(t, np.inf)
    spread = np.random.default_rng(0).uniform(-1.2 * sigma, 1.2 * sigma, 2000)
    ts = np.concatenate([near, spread])
    ts = np.concatenate([ts, -ts])
    got = smooth_ramp_derivative(ts, RampParams(sigma))
    want = _ramp_derivative_reference(ts, sigma)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert smooth_ramp_derivative(sigma / 6.0, RampParams(sigma)) == 1.0 / sigma


def _closed_form_ramp_derivative(t, sigma):
    """l' as one out-of-place expression: the masked, clipped Hermite slope
    ``_hermite_deriv(s) * 3 / sigma``."""
    a = np.abs(np.asarray(t, dtype=float))
    s = np.clip((a - sigma / 6.0) / (sigma / 3.0), 0.0, 1.0)
    return np.where(a < sigma / 2.0,
                    surrogate._hermite_deriv(s) * 3.0 / sigma, 0.0)


@pytest.mark.parametrize("sigma", [0.0022, 0.1, 1.0 / 3.0, 0.497221, 3.7])
def test_ramp_derivative_matches_closed_form(sigma):
    # smooth_ramp_derivative must give the closed form's bytes on scalars,
    # 0-d and 1-d input, and leave a 1-d input as it was
    p = RampParams(sigma)
    inside = np.nextafter(sigma / 2.0, 0.0)
    points = [sigma / 6.0, -sigma / 6.0, sigma / 2.0, -sigma / 2.0,
              inside, -inside]
    want = _closed_form_ramp_derivative(np.array(points), sigma)
    assert want[4] > 0.0 and want[2] == 0.0
    for t, expect in zip(points, want):
        for arg in (t, np.float64(t), np.array(t)):
            got = smooth_ramp_derivative(arg, p)
            assert type(got) is float
            assert np.float64(got).tobytes() == expect.tobytes()
    ts = np.array(points)
    before = ts.copy()
    got = smooth_ramp_derivative(ts, p)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert ts.tobytes() == before.tobytes()


def _dataset(points, labels):
    return Dataset(np.asarray(points, dtype=float), np.asarray(labels))


def test_loss_tail_values():
    p = RampParams(0.2)
    w = np.array([1.0, 0.0])
    far_correct = _dataset([[1.0, 0.0], [2.0, 1.0]], [1, 1])
    assert surrogate_loss(w, far_correct, p) == 0.0
    far_wrong = _dataset([[1.0, 0.0], [2.0, 1.0]], [-1, -1])
    assert surrogate_loss(w, far_wrong, p) == 1.0
    on_plane = _dataset([[0.0, 1.0]], [1])
    assert surrogate_loss(w, on_plane, p) == 0.5


def test_gradient_vanishes_outside_band():
    p = RampParams(0.2)
    w = np.array([1.0, 0.0])
    ds = _dataset([[1.0, 3.0], [-5.0, 1.0]], [1, -1])
    assert np.allclose(surrogate_gradient(w, ds, p), 0.0)


def test_gradient_linear_region_single_point():
    sigma = 0.3
    p = RampParams(sigma)
    w = np.array([1.0, 0.0])
    x = np.array([0.0, 0.01])  # orthogonal to w, inside the linear band
    ds = _dataset([x], [1])
    grad = surrogate_gradient(w, ds, p)
    assert np.allclose(grad, -x / sigma, atol=1e-14)


def test_gradient_orthogonal_to_w():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 5))
    ds = _dataset(pts, np.where(pts[:, 0] > 0, 1, -1))
    p = RampParams(0.4)
    for _ in range(10):
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        grad = surrogate_gradient(w, ds, p)
        assert abs(grad @ w) <= 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 4))
    ds = _dataset(pts, np.where(pts @ np.array([1, 1, 0, 0.0]) > 0, 1, -1))
    p = RampParams(0.3)
    for _ in range(10):
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        grad = surrogate_gradient(w, ds, p)
        fd = finite_difference_gradient(lambda u: surrogate_loss(u, ds, p), w)
        denom = max(np.linalg.norm(fd), 1e-9)
        assert np.linalg.norm(grad - fd) / denom <= 1e-5


def test_gradient_norms_matches_direct():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((500, 3))
    ds = _dataset(pts, np.where(pts[:, 0] > 0, 1, -1))
    p = RampParams(0.15)
    ws = rng.standard_normal((7, 3))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    fast = gradient_norms(ws, ds, p)
    direct = [np.linalg.norm(surrogate_gradient(w, ds, p)) for w in ws]
    assert np.allclose(fast, direct, atol=1e-12)


def _boundary_dataset(sigma, seed):
    """Gaussian points, a cloud within ~1e-5 of the planes |x_0| = sigma/2,
    and points at |x_0| = sigma/2 and one ulp either side, so that e1 sees
    them exactly on, just inside and just outside its band."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((1500, 4))
    cloud = rng.standard_normal((500, 4))
    cloud[:, 0] = np.sign(cloud[:, 0]) * (sigma / 2 + 3e-6 * rng.standard_normal(500))
    pts = np.vstack([pts, cloud])
    edge = []
    for t in (np.nextafter(sigma / 2, 0.0), sigma / 2, np.nextafter(sigma / 2, 1.0)):
        for sign in (1.0, -1.0):
            for tail in (0.0, 0.7):
                edge.append([sign * t, tail, -tail, 0.3])
    pts = np.vstack([pts, edge])
    rng.shuffle(pts)
    return _dataset(pts, np.where(pts @ np.array([1.0, 0.5, 0, 0]) > 0, 1, -1))


def _direct_norms(ws, ds, p):
    return np.array([np.linalg.norm(surrogate_gradient(w, ds, p)) for w in ws])


def test_gradient_norms_spread_iterates():
    # iterates far apart: every iterate rebuilds its rows
    sigma = 0.3
    ds = _boundary_dataset(sigma, seed=3)
    rng = np.random.default_rng(4)
    ws = rng.standard_normal((104, 4))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    ws[5] = ws[84] = [1.0, 0.0, 0.0, 0.0]
    p = RampParams(sigma)
    np.testing.assert_allclose(gradient_norms(ws, ds, p),
                               _direct_norms(ws, ds, p), rtol=1e-12, atol=0)


def test_gradient_norms_clustered_iterates():
    # iterates within 1e-6 of e1, all served by the rows built around the
    # first one; e1 itself sees the ulp-placed points on its band's edge
    sigma = 0.3
    ds = _boundary_dataset(sigma, seed=5)
    rng = np.random.default_rng(6)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    ws = np.array([unit(e1 + 1e-6 * rng.standard_normal(4)) for _ in range(41)])
    ws[20] = e1
    p = RampParams(sigma)
    np.testing.assert_allclose(gradient_norms(ws, ds, p),
                               _direct_norms(ws, ds, p), rtol=1e-12, atol=0)


def test_band_rows_is_superset():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3000, 5)) * rng.exponential(1.0, (3000, 1))
    for sigma, radius in ((0.05, 0.01), (0.2, 0.1), (0.02, 0.5)):
        w_ref = unit(rng.standard_normal(5))
        limit = surrogate._band_limit(np.linalg.norm(x, axis=1), 5, radius, sigma)
        rows = surrogate._band_rows(x, w_ref, limit)
        assert rows.size < x.shape[0]
        assert np.all(np.diff(rows) > 0)
        for _ in range(50):
            step = rng.standard_normal(5)
            w = unit(w_ref + radius * rng.uniform() * step / np.linalg.norm(step))
            if np.linalg.norm(w - w_ref) > radius:
                continue
            band = np.flatnonzero(np.abs(x @ w) < sigma / 2.0)
            assert np.isin(band, rows).all()


def _count_band_gradients(monkeypatch):
    calls = []
    band_gradient = surrogate._band_gradient

    def counted(*args):
        calls.append(1)
        return band_gradient(*args)

    monkeypatch.setattr(surrogate, "_band_gradient", counted)
    return calls


def _line_mass_dataset():
    pts = sample_marginal(MarginalSpec("line_mass", 5), 20_000, seed=33)
    return label_dataset(pts, NoiseModel("agnostic", (1.0, 0, 0, 0, 0),
                                         rule="boundary_flip", width=0.05), seed=33)


def test_gradient_norms_line_mass_exactly_zero():
    # on a line along e1 every tangent x - <w,x> w vanishes for w = +-e1; the
    # tangential and radial sums must cancel exactly, not to rounding level
    ds = _line_mass_dataset()
    e1 = np.eye(5)[0]
    p = RampParams(0.1)
    iterates = psgd(ds, p, PsgdConfig(iterations=20, batch_size=None), w0=e1)
    ws = np.vstack([np.stack(iterates), -e1])
    assert np.all(gradient_norms(ws, ds, p) == 0.0)


def test_full_batch_psgd_stops_at_a_fixed_start(monkeypatch):
    # the gradient at e1 on a line mass along e1 is exactly 0, so the first
    # step returns e1, the run ends and e1 is the only iterate
    calls = _count_band_gradients(monkeypatch)
    e1 = np.eye(5)[0]
    iterates = psgd(_line_mass_dataset(), RampParams(0.1),
                    PsgdConfig(iterations=20, batch_size=None), w0=e1)
    assert len(calls) == 1
    assert [w.tobytes() for w in iterates] == [e1.tobytes()]


def test_minibatch_psgd_line_mass_stays_exactly_on_e1(monkeypatch):
    # every drawn batch of a line mass along e1 gives an exactly zero
    # gradient at +-e1, so mini-batch PSGD never leaves its start; each step
    # draws new rows, so it still takes all 200 steps
    ds = _line_mass_dataset()
    p = RampParams(0.1)
    calls = _count_band_gradients(monkeypatch)
    for w0 in (np.eye(5)[0], -np.eye(5)[0]):
        calls.clear()
        iterates = psgd(ds, p, PsgdConfig(iterations=200, batch_size=64, seed=8),
                        w0=w0)
        assert len(calls) == 200
        assert all(np.array_equal(w, w0) for w in iterates)
        assert np.all(gradient_norms(np.stack(iterates), ds, p) == 0.0)


def _dense_full_batch_psgd(ds, p, beta, w, iterations):
    """Full-batch PSGD projecting every point at every step."""
    x, y = ds.points, ds.labels.astype(float)
    out = [w.copy()]
    for _ in range(iterations):
        proj = x @ w
        active = np.flatnonzero(np.abs(proj) < p.sigma / 2.0)
        pr = proj[active]
        g = (smooth_ramp_derivative(np.abs(pr), p) * y[active]) @ x[active]
        grad = ((g @ w) * w - g) / ds.n
        w = unit(w - beta * grad)
        out.append(w.copy())
    return out


def test_full_batch_psgd_matches_dense_across_rebuilds(monkeypatch):
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 5000, seed=34)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0, 0, 0), eta=0.2),
                       seed=34)
    p = RampParams(0.1)
    w0 = unit(np.array([0.2, 1.0, -0.5, 0.3, 0.1]))
    builds = []
    band_rows = surrogate._band_rows

    def counted(*args):
        builds.append(1)
        return band_rows(*args)

    monkeypatch.setattr(surrogate, "_band_rows", counted)
    cfg = PsgdConfig(iterations=60, step_size=0.1, batch_size=None)
    pruned = psgd(ds, p, cfg, w0=w0)
    dense = _dense_full_batch_psgd(ds, p, 0.1, unit(w0), 60)
    assert 3 <= len(builds) < 60
    assert all(np.array_equal(a, b) for a, b in zip(pruned, dense))


def test_gradient_norms_rebuilds_where_psgd_did(monkeypatch):
    # the filter walks a full-batch trajectory through the same rebuild rule,
    # so over the iterates PSGD took its steps from it builds as often
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 5000, seed=36)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0, 0, 0), eta=0.2),
                       seed=36)
    p = RampParams(0.1)
    builds = []
    band_rows = surrogate._band_rows

    def counted(*args):
        builds.append(1)
        return band_rows(*args)

    monkeypatch.setattr(surrogate, "_band_rows", counted)
    cfg = PsgdConfig(iterations=150, step_size=0.1, batch_size=None)
    iterates = psgd(ds, p, cfg, w0=unit(np.array([0.2, 1.0, -0.5, 0.3, 0.1])))
    psgd_builds = len(builds)
    builds.clear()
    gradient_norms(np.stack(iterates[:-1]), ds, p)
    assert psgd_builds >= 3
    assert len(builds) == psgd_builds


def test_full_batch_psgd_stops_at_a_fixed_point_mid_run(monkeypatch):
    # the reference takes all 300 steps and reaches a fixed point at iterate
    # 139; PSGD must return the 140 iterates up to it after 140 steps, the
    # last of which finds the repeat
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 2000, seed=30)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0, 0, 0), eta=0.2),
                       seed=30)
    p = RampParams(0.1)
    w0 = np.array([0.2, 1.0, -0.5, 0.3, 0.1])
    dense = _dense_full_batch_psgd(ds, p, 0.1, unit(w0), 300)
    assert dense[138].tobytes() != dense[139].tobytes()
    assert all(w.tobytes() == dense[139].tobytes() for w in dense[139:])
    calls = _count_band_gradients(monkeypatch)
    iterates = psgd(ds, p, PsgdConfig(iterations=300, step_size=0.1,
                                      batch_size=None), w0=w0)
    assert len(calls) == 140
    assert [w.tobytes() for w in iterates] == [w.tobytes() for w in dense[:140]]


@pytest.mark.parametrize("rows", ["aaa", "aba", "az"])
def test_gradient_norms_scores_every_row(monkeypatch, rows):
    # a repeated row and z, which is a with -0.0 in place of its 0.0, are
    # scored like any other row
    vectors = {"a": np.array([0.6, 0.8, 0.0]), "z": np.array([0.6, 0.8, -0.0]),
               "b": np.array([0.0, 0.6, 0.8])}
    ws = np.stack([vectors[r] for r in rows])
    ds, p = _small_gaussian_dataset(), RampParams(0.5)
    one_by_one = np.array([gradient_norms(w[None], ds, p)[0] for w in ws])
    calls = _count_band_gradients(monkeypatch)
    norms = gradient_norms(ws, ds, p)
    assert len(calls) == len(rows)
    assert norms.tobytes() == one_by_one.tobytes()
    assert np.all(norms > 0.0)


def test_minibatch_psgd_matches_dense_on_the_same_draws():
    # every step, recomputed from the unsigned rows and labels of the batch
    # PSGD drew, must give PSGD's iterate bit for bit
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 5000, seed=37)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0, 0, 0), eta=0.2),
                       seed=37)
    p = RampParams(0.1)
    w = unit(np.array([0.2, 1.0, -0.5, 0.3, 0.1]))
    iterates = psgd(ds, p, PsgdConfig(iterations=60, step_size=0.1,
                                      batch_size=256, seed=9), w0=w)
    gen = rng.stream(9, rng.STREAM_PSGD)
    x, y = ds.points, ds.labels.astype(float)
    w = iterates[0]
    for nxt in iterates[1:]:
        idx = gen.integers(0, ds.n, size=256)
        xb, yb = x[idx], y[idx]
        proj = xb @ w
        active = np.flatnonzero(np.abs(proj) < p.sigma / 2.0)
        g = (smooth_ramp_derivative(np.abs(proj[active]), p) * yb[active]) @ xb[active]
        w = unit(w - 0.1 * (((g @ w) * w - g) / 256))
        assert np.array_equal(nxt, w)


def test_minibatch_psgd_step_is_the_batch_surrogate_gradient():
    # mini-batch steps share the full-batch formula; each must be one
    # projected step along surrogate_gradient of the rows it drew
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=35)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0), eta=0.2), seed=35)
    p = RampParams(0.5)
    w = unit(np.array([0.3, 1.0, -0.4]))
    iterates = psgd(ds, p, PsgdConfig(iterations=20, step_size=0.05,
                                      batch_size=64, seed=3), w0=w)
    gen = rng.stream(3, rng.STREAM_PSGD)
    for nxt in iterates[1:]:
        idx = gen.integers(0, ds.n, size=64)
        grad = surrogate_gradient(w, Dataset(ds.points[idx], ds.labels[idx]), p)
        np.testing.assert_allclose(nxt, unit(w - 0.05 * grad), rtol=0, atol=1e-14)
        w = nxt


def _small_gaussian_dataset():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 200, seed=38)
    return label_dataset(pts, NoiseModel("massart", (1.0, 0, 0), eta=0.2), seed=38)


def test_gradient_norms_rejects_a_non_finite_row():
    ws = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(NonFiniteError):
        gradient_norms(ws, _small_gaussian_dataset(), RampParams(0.1))


def test_gradient_norms_rejects_a_row_of_the_wrong_width():
    with pytest.raises(DimMismatchError):
        gradient_norms(np.eye(4)[:2], _small_gaussian_dataset(), RampParams(0.1))


def test_gradient_norms_rejects_a_row_that_is_not_unit():
    ws = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(PreconditionError):
        gradient_norms(ws, _small_gaussian_dataset(), RampParams(0.1))


def test_dim_mismatch():
    ds = _dataset([[1.0, 0.0]], [1])
    with pytest.raises(DimMismatchError):
        surrogate_loss(np.array([1.0, 0.0, 0.0]), ds, RampParams(0.1))


@pytest.mark.parametrize("batch_size", [0, -3, 2.5, True])
def test_psgd_config_rejects_bad_batch_size(batch_size):
    with pytest.raises(ValueError):
        PsgdConfig(iterations=10, batch_size=batch_size)


@pytest.mark.parametrize("step_size", [0.0, float("inf"), True, "0.1"])
def test_psgd_config_rejects_bad_step_size(step_size):
    with pytest.raises(ValueError):
        PsgdConfig(iterations=10, step_size=step_size)


@pytest.mark.parametrize("iterations", [-1, 2.5, True])
def test_psgd_config_rejects_bad_iterations(iterations):
    with pytest.raises(ValueError):
        PsgdConfig(iterations=iterations)


@pytest.mark.parametrize("step_size", [float("nan"), float("inf")])
def test_psgd_config_rejects_non_finite_step_size(step_size):
    with pytest.raises(ValueError):
        PsgdConfig(iterations=10, step_size=step_size)


def test_psgd_config_accepts_batch_sizes():
    for batch_size in (None, 1, 64, np.int64(8)):
        assert PsgdConfig(iterations=10, batch_size=batch_size).batch_size == batch_size


def test_psgd_raises_on_a_step_whose_norm_is_not_finite():
    # each entry of the step is finite, but its squared norm overflows
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=39)
    ds = label_dataset(pts, NoiseModel("massart", (1.0, 0, 0), eta=0.2), seed=39)
    cfg = PsgdConfig(iterations=1, step_size=1e308, batch_size=None)
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        psgd(ds, RampParams(0.5), cfg, w0=np.array([0.6, 0.8, 0.0]))


def test_psgd_zero_iterations():
    ds = _dataset([[1.0, 0.0]], [1])
    out = psgd(ds, RampParams(0.2), PsgdConfig(iterations=0, seed=5))
    assert len(out) == 1
    assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-12


def test_psgd_iterates_unit_and_deterministic():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 400, seed=30)
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0, 0.0)), seed=30)
    cfg = PsgdConfig(iterations=50, seed=7)
    a = psgd(ds, RampParams(0.2), cfg)
    b = psgd(ds, RampParams(0.2), cfg)
    assert all(abs(np.linalg.norm(w) - 1.0) <= 1e-12 for w in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_psgd_solves_separable_2d():
    # clean linearly separable data; batch-1 PSGD with the default step
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 1000, seed=31)
    w_star = np.array([0.6, 0.8])
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=31)
    iterates = psgd(ds, RampParams(0.2), PsgdConfig(iterations=2000, seed=11))
    best = min(empirical_error(w, ds) for w in iterates[::10])
    assert best <= 0.02


def test_psgd_reaches_small_gradient_massart():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 20_000, seed=32)
    w_star = np.zeros(5)
    w_star[0] = 1.0
    ds = label_dataset(pts, NoiseModel("massart", tuple(w_star), eta=0.1), seed=32)
    p = RampParams(0.1)
    iterates = psgd(ds, p, PsgdConfig(iterations=10_000, step_size=0.005,
                                      batch_size=8, seed=12))
    norms = gradient_norms(np.stack(iterates), ds, p)
    assert norms.min() <= 0.05


@pytest.mark.parametrize("sigma", [0.0, -0.1, np.nan, np.inf])
def test_ramp_params_refuse_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="finite and positive"):
        RampParams(sigma)
