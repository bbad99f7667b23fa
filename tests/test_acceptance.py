"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, printing one pass/fail line each.

End-to-end experiments run the frozen calibrated configuration: sigma-grid
arithmetic at lambda = 1, tester thresholds at lambda = 3 with c1 = 3 and
c_hyper = 10, full-batch projected gradient descent inside the learner.
"""

import math
import sys

import numpy as np

from halftest.distributions import (MarginalSpec, NoiseModel, empirical_error,
                                    label_dataset, sample_marginal)
from halftest.learner import LearnerConfig, SyntheticSource, \
    universal_tester_learner
from halftest.numerics import householder_basis, unit
from halftest.oracle import (brute_force_max_fourth_moment, erm_halfspace,
                             finite_difference_gradient, gaussian_strip_stats,
                             structural_check)
from halftest.sdp import SdpProblem, solve_sdp
from halftest.sos_hyper import empirical_fourth_moment_tensor, solve_relaxation
from halftest.surrogate import (PsgdConfig, RampParams, smooth_ramp,
                                smooth_ramp_derivative, surrogate_gradient,
                                surrogate_loss)
from halftest.testers import (TesterConfig, hypercontractivity_test,
                              local_disagreement_test, spectral_test,
                              weak_anticoncentration_test)
from test_testers import paley_zygmund_holds

W_STAR5 = (1.0, 0.0, 0.0, 0.0, 0.0)
BOUNDARY_5PCT = 0.06270677794321385  # Pr[|N(0,1)| <= w] = 0.05
K_CALIBRATED = 4.0                   # agnostic error-bound constant (recorded)

E2E_TESTER = TesterConfig(lam=3.0, gamma=1.0, c1=3.0, c_hyper=10.0)
STANDALONE = TesterConfig(lam=3.0, gamma=1.0, c1=4.0, c_hyper=10.0)


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:02d}: {description} {detail}".rstrip()
    # write to the real terminal so the line survives pytest's capture
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {description} {detail}"


def massart_e2e_config():
    return LearnerConfig(lam=1.0, gamma=1.0, eps=0.05, noise="massart",
                         eta=0.1,
                         psgd=PsgdConfig(iterations=400, batch_size=None),
                         tester=E2E_TESTER, n1=100_000, n2=100_000)


def agnostic_e2e_config(iterations=300):
    return LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="agnostic",
                         psgd=PsgdConfig(iterations=iterations, batch_size=None),
                         tester=E2E_TESTER, n1=100_000, n2=100_000)


def holdout_error(w, marginal, noise, seed):
    pts = sample_marginal(marginal, 100_000, seed=seed, stream_id=55)
    ds = label_dataset(pts, noise, seed=seed, stream_id=56)
    return empirical_error(w, ds)


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(20, 201))
        sigma = 0.05 if trial % 2 == 0 else 0.2
        pts = rng.standard_normal((n, d)) * rng.uniform(0.3, 2.0)
        w_star = unit(rng.standard_normal(d))
        ds = label_dataset(pts, NoiseModel("massart", tuple(w_star), eta=0.2),
                           seed=trial)
        w = unit(rng.standard_normal(d))
        p = RampParams(sigma)
        grad = surrogate_gradient(w, ds, p)
        fd = finite_difference_gradient(lambda u: surrogate_loss(u, ds, p), w)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9)
        worst = max(worst, rel)
    report(1, "surrogate gradient vs finite differences (100 instances)",
           worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_02_ramp_contract():
    ok = True
    for sigma in (0.05, 0.2, 1.0):
        p = RampParams(sigma)
        ts = np.linspace(-sigma / 6, sigma / 6, 2001)
        ok &= bool(np.max(np.abs(smooth_ramp(ts, p) - (0.5 + ts / sigma))) <= 1e-12)
        ok &= smooth_ramp(sigma / 2 + 1e-12, p) == 1.0
        ok &= smooth_ramp(-sigma / 2 - 1e-12, p) == 0.0
        ok &= smooth_ramp(5 * sigma, p) == 1.0 and smooth_ramp(-5 * sigma, p) == 0.0
        grid = np.linspace(-2 * sigma, 2 * sigma, 10_001)
        dv = smooth_ramp_derivative(grid, p)
        ok &= bool(np.all(dv >= 0.0) and np.all(dv <= 3.0 / sigma + 1e-15))
        ok &= bool(np.max(np.abs(dv - smooth_ramp_derivative(-grid, p))) <= 1e-12)
        h = sigma * 1e-6
        for lo, hi in [(-sigma / 6 + 4 * h, sigma / 6 - 4 * h),
                       (sigma / 6 + 4 * h, sigma / 2 - 4 * h)]:
            seg = np.linspace(lo, hi, 800)
            second = (smooth_ramp_derivative(seg + h, p)
                      - smooth_ramp_derivative(seg - h, p)) / (2 * h)
            ok &= bool(np.max(np.abs(second)) <= 27.0 / sigma**2)
    report(2, "ramp contract (linear region, tails, derivative bounds)", ok)


def test_criterion_03_sdp_vs_eigen_oracle():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        c = rng.standard_normal((n, n))
        c = (c + c.T) / 2
        prob = SdpProblem(n=n, objective=c, constraints=[np.eye(n)], b=[1.0])
        sol = solve_sdp(prob)
        oracle = np.linalg.eigvalsh(c)[-1]
        assert sol.optimal
        worst = max(worst, abs(sol.value - oracle))
    report(3, "SDP solver vs eigenvalue oracle (50 instances)",
           worst <= 1e-6, f"worst abs err {worst:.2e}")


def test_criterion_04_sos_dominates_brute_force():
    rng = np.random.default_rng(40)
    worst = -math.inf
    for trial in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(5, 201))
        scale = rng.uniform(0.3, 2.0)
        kind = ("standard_gaussian", "product_laplace", "uniform_cube",
                "student_t")[trial % 4]
        spec = MarginalSpec(kind, d, nu=3 if kind == "student_t" else None)
        pts = sample_marginal(spec, n, seed=400 + trial) * scale
        brute, _ = brute_force_max_fourth_moment(pts, seed=trial)
        value, sol = solve_relaxation(empirical_fourth_moment_tensor(pts))
        assert sol.optimal
        worst = max(worst, brute - value)
    report(4, "SOS relaxation dominates brute-force maximum (50 datasets)",
           worst <= 1e-5, f"worst brute-minus-sdp {worst:.2e}")


def test_criterion_05_hypercontractivity_completeness():
    cells_ok = True
    detail = []
    for kind in ("standard_gaussian", "product_laplace", "uniform_cube"):
        for d in (2, 3, 4, 5):
            n = min(int((2 * d * math.log(16 * d)) ** 4), 100_000)
            good = 0
            for seed in range(20):
                pts = sample_marginal(MarginalSpec(kind, d), n, seed=seed)
                verdict = hypercontractivity_test(pts, gamma=1.0, c_hyper=10.0)
                value = verdict.diagnostics.get("sdp_value", math.inf)
                good += verdict.accepted and value <= 10.0
            cells_ok &= good >= 18
            detail.append(f"{kind[:5]}/d{d}:{good}")
    report(5, "hypercontractivity completeness (12 cells x 20 trials)",
           cells_ok, " ".join(detail))


def test_criterion_06_hypercontractivity_soundness():
    rejects = 0
    for seed in range(20):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 10_000,
                              seed=600 + seed)
        gen = np.random.default_rng(seed)
        mask = gen.random(10_000) < 0.01
        pts[mask] = 0.0
        pts[mask, 0] = np.where(gen.random(int(mask.sum())) < 0.5, 10.0, -10.0)
        verdict = hypercontractivity_test(pts, gamma=1.0, c_hyper=10.0)
        rejects += not verdict.accepted
    report(6, "hypercontractivity soundness (1% spike mixture)", rejects == 20,
           f"{rejects}/20 rejected")


def test_criterion_07_spectral_tester():
    lam, d, theta, delta = 3.0, 4, 1.0, 0.1
    n = int(2 * lam * d**4 / (theta**2 * delta))
    accepts = sum(
        spectral_test(sample_marginal(MarginalSpec("standard_gaussian", d), n,
                                      seed=700 + s), theta, "min").accepted
        for s in range(20))
    rejects = 0
    for s in range(20):
        pts = sample_marginal(MarginalSpec("line_mass", d), n // 10, seed=720 + s)
        rejects += not spectral_test(pts, theta, "min").accepted
    report(7, "spectral tester completeness/soundness",
           accepts >= 18 and rejects == 20,
           f"gaussian {accepts}/20 accepted, rank-deficient {rejects}/20 rejected")


def test_criterion_08_local_disagreement():
    d, theta, n = 4, 0.05, 100_000
    cfg = STANDALONE
    w = unit(np.array([1.0, -0.5, 0.25, 2.0]))
    basis = householder_basis(w)
    gen = np.random.default_rng(80)
    accepts = 0
    bound_ok = True
    for seed in range(20):
        pts = sample_marginal(MarginalSpec("standard_gaussian", d), n,
                              seed=800 + seed)
        verdict = local_disagreement_test(pts, w, theta, cfg)
        if not verdict.accepted:
            continue
        accepts += 1
        bound = verdict.diagnostics["disagreement_bound"]
        signs_w = np.sign(pts @ w)
        angles = gen.uniform(0.0, theta, 100)
        tangents = gen.standard_normal((100, d - 1))
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        w_primes = (np.cos(angles)[:, None] * w
                    + np.sin(angles)[:, None] * (tangents @ basis))
        disagreements = np.mean(np.sign(pts @ w_primes.T) != signs_w[:, None],
                                axis=0)
        bound_ok &= bool(np.all(disagreements <= min(1.0, bound)))
    report(8, "local-disagreement tester (accept rate and certified bound)",
           accepts >= 18 and bound_ok, f"{accepts}/20 accepted")


def test_criterion_09_weak_anticoncentration():
    cfg = STANDALONE
    w = unit(np.array([1.0, 0.5, -1.0]))
    basis = householder_basis(w)
    k = cfg.strip_constant
    corr_thresh = 1.0 / k
    prob_bound = 1.0 / (k * cfg.gamma**4)
    gen = np.random.default_rng(90)
    accepts, cond_ok = 0, True
    for seed in range(20):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000,
                              seed=900 + seed)
        verdict = weak_anticoncentration_test(pts, w, 0.1, cfg)
        if not verdict.accepted:
            continue
        accepts += 1
        strip = pts[np.abs(pts @ w) <= 0.1]
        vs = gen.standard_normal((200, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        vs = vs @ basis
        conds = np.mean(np.abs(strip @ vs.T) >= corr_thresh, axis=0)
        cond_ok &= bool(np.all(conds >= prob_bound))
    line_rejects = 0
    for seed in range(20):
        direction = tuple(unit(np.random.default_rng(seed).standard_normal(3)))
        pts = sample_marginal(MarginalSpec("line_mass", 3, direction=direction),
                              50_000, seed=920 + seed)
        line_rejects += not weak_anticoncentration_test(pts, w, 0.1, cfg).accepted
    report(9, "weak anti-concentration tester",
           accepts >= 18 and cond_ok and line_rejects == 20,
           f"gaussian {accepts}/20, line_mass {line_rejects}/20 rejected")


def test_criterion_10_structural_inequality():
    rng = np.random.default_rng(100)
    kinds = ("standard_gaussian", "product_laplace", "uniform_cube",
             "uniform_ball", "student_t")
    violations, instances = 0, 0
    while instances < 200:
        d = int(rng.integers(2, 7))
        kind = kinds[instances % len(kinds)]
        spec = MarginalSpec(kind, d, nu=5 if kind == "student_t" else None)
        pts = sample_marginal(spec, 4000, seed=1000 + instances)
        w_star = unit(rng.standard_normal(d))
        w = unit(w_star + rng.uniform(0.05, 1.5) * rng.standard_normal(d))
        theta = math.acos(float(np.clip(w @ w_star, -1, 1)))
        if not 1e-3 < theta < math.pi / 2 - 1e-3:
            continue
        sigma = float(rng.choice([0.05, 0.2]))
        alpha = max(sigma / (2 * math.tan(theta)), rng.uniform(0.2, 0.8))
        if instances % 2 == 0:
            noise = NoiseModel("massart", tuple(w_star),
                               eta=float(rng.uniform(0.0, 0.4)))
            ds = label_dataset(pts, noise, seed=2000 + instances)
            out = structural_check(ds, w, w_star, sigma, alpha, noise=noise)
        else:
            rule = ("boundary_flip", "random_flip")[instances % 4 == 1]
            noise = NoiseModel("agnostic", tuple(w_star), rule=rule,
                               width=0.1, flip_prob=0.15)
            ds = label_dataset(pts, noise, seed=2000 + instances)
            out = structural_check(ds, w, w_star, sigma, alpha, noise=None)
        violations += not out["holds"]
        instances += 1
    report(10, "structural gradient lower bound (200 instances)",
           violations == 0, f"{violations} violations")


def test_criterion_11_end_to_end_massart():
    marginal = MarginalSpec("standard_gaussian", 5)
    noise = NoiseModel("massart", W_STAR5, eta=0.1)
    cfg = massart_e2e_config()
    good = 0
    for trial in range(20):
        src = SyntheticSource(marginal, noise, seed=1100 + trial)
        out = universal_tester_learner(src, cfg, seed=1100 + trial)
        if out.accepted:
            err = holdout_error(out.w, marginal, noise, seed=5100 + trial)
            good += err <= 0.15
    report(11, "end-to-end Massart (accept + held-out error <= 0.15)",
           good >= 18, f"{good}/20 good trials")


def test_criterion_12_end_to_end_agnostic():
    marginal = MarginalSpec("standard_gaussian", 5)
    noise = NoiseModel("agnostic", W_STAR5, rule="boundary_flip",
                       width=BOUNDARY_5PCT)
    cfg = agnostic_e2e_config()
    bound = K_CALIBRATED * 0.05 + 0.1
    good = 0
    for trial in range(20):
        src = SyntheticSource(marginal, noise, seed=1200 + trial)
        out = universal_tester_learner(src, cfg, seed=1200 + trial)
        if out.accepted:
            err = holdout_error(out.w, marginal, noise, seed=5200 + trial)
            good += err <= bound
    report(12, "end-to-end agnostic (accept + error <= K*opt + eps)",
           good >= 16, f"{good}/20 good trials, K={K_CALIBRATED}")


def test_criterion_13_end_to_end_soundness():
    cfg = agnostic_e2e_config(iterations=150)
    bound_violations = 0
    details = []
    ok = True
    for kind, kwargs in (("two_point_mass", {"spread": 10.0}), ("line_mass", {})):
        marginal = MarginalSpec(kind, 5, **kwargs)
        noise = NoiseModel("agnostic", W_STAR5, rule="boundary_flip",
                           width=BOUNDARY_5PCT)
        rejects = 0
        for trial in range(20):
            src = SyntheticSource(marginal, noise, seed=1300 + trial)
            out = universal_tester_learner(src, cfg, seed=1300 + trial)
            if not out.accepted:
                rejects += 1
                continue
            # any acceptance must still satisfy the calibrated error bound
            pts = sample_marginal(marginal, 100_000, seed=5300 + trial,
                                  stream_id=55)
            ho = label_dataset(pts, noise, seed=5300 + trial, stream_id=56)
            _, opt_est = erm_halfspace(ho, mode="search", seed=trial,
                                       search_budget=4000)
            err = empirical_error(out.w, ho)
            bound_violations += err > K_CALIBRATED * opt_est + 0.1
        details.append(f"{kind}:{rejects}/20 rejected")
        ok &= rejects >= 18
    report(13, "end-to-end soundness on adversarial marginals",
           ok and bound_violations == 0,
           " ".join(details) + f", bound violations {bound_violations}")


def test_criterion_14_strip_statistics():
    n = 100_000
    gen = np.random.default_rng(140)
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), n, seed=1400)
    offset = 0.3
    all_ok = True
    for sigma in (0.05, 0.1):
        for _ in range(10):
            w = unit(gen.standard_normal(4))
            v = unit(householder_basis(w).T @ gen.standard_normal(3))
            u = unit(gen.standard_normal(4))
            u2 = unit(gen.standard_normal(4))
            analytic = gaussian_strip_stats(sigma, offset, uu_inner=float(u @ u2))
            xw, xv = pts @ w, pts @ v
            quantities = {
                "strip_probability": (np.abs(xw) <= sigma).astype(float),
                "strip_second_moment": xv**2 * (np.abs(xw) <= sigma),
                "cross_fourth_moment": (pts @ u) ** 2 * (pts @ u2) ** 2,
                "offset_strip_second_moment":
                    xv**2 * ((np.abs(xw) >= offset)
                             & (np.abs(xw) <= offset + sigma)),
            }
            for key, samples in quantities.items():
                emp = float(np.mean(samples))
                se = max(float(np.std(samples)) / math.sqrt(n), 1e-12)
                all_ok &= abs(emp - analytic[key]) <= 3.0 * se
    report(14, "Gaussian strip statistics within 3 standard errors", all_ok)


def test_criterion_15_paley_zygmund():
    rng = np.random.default_rng(150)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 500))
        kind = trial % 5
        if kind == 0:
            z = rng.exponential(rng.uniform(0.1, 10), n)
        elif kind == 1:
            z = rng.uniform(0, 1, n) ** 4
        elif kind == 2:
            z = rng.standard_normal(n) ** 2
        elif kind == 3:
            z = np.full(n, rng.uniform(0, 5))
        else:
            z = rng.pareto(3.0, n)
        ok &= paley_zygmund_holds(z)
    report(15, "Paley-Zygmund inequality on 100 empirical samples", ok)
