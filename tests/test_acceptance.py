"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

from memflo import cycles as C
from memflo import floquet as F
from memflo import hb
from memflo import models as M
from memflo.oracles import (
    fourier_coefficients_direct,
    monodromy_multipliers,
    pep_determinant_normalized,
    quadratic_memory_exponent,
)

PARTICLE = dict(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))


@pytest.fixture(scope="module")
def particle_run():
    model = M.BrownianParticleModel(**PARTICLE)
    t0 = time.perf_counter()
    cycle, spectrum = M.particle_spectrum(model, n_harmonics=30)
    elapsed = time.perf_counter() - t0
    system = M.particle_system(model)
    problem = C.linearize(system, cycle)
    return model, cycle, spectrum, problem, elapsed


def _report(n, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")
    assert ok, text


def test_criterion_1_scalar_asymptotic_exponent():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        spec = M.model1d_exponent(M.Memory1DModel(a, 3.0))
        lam = max(p.exponent.real for p in spec.canonical_strip)
        worst = max(worst, abs(lam - quadratic_memory_exponent(a, 3.0)))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-8 and elapsed < 1.0,
            f"max |lambda - oracle| = {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)")


def test_criterion_2_decay_bound_over_sweep():
    reported_ok = True
    n_filtered = 0
    filtered_ok = True
    for a in np.linspace(-2.0, 2.0, 9):
        for s in list(np.linspace(0.0, 20.0, 21)) + [math.inf]:
            spec = M.model1d_exponent(M.Memory1DModel(float(a), 3.0, float(s)))
            reported_ok &= all(p.exponent.real > -3.0 for p in spec.canonical_strip)
            n_filtered += spec.diagnostics.get("n_bound_filtered", 0)
            filtered_ok &= all(re <= -3.0 + 1e-6 for re, _ in
                               spec.diagnostics.get("bound_filtered", []))
    _report(2, reported_ok and n_filtered > 0 and filtered_ok,
            f"all reported Re above -3; {n_filtered} raw candidates filtered and logged")


def test_criterion_3_memory_window_convergence():
    ok = True
    detail = []
    for a in (-2.0, 0.0, 2.0):
        model = M.Memory1DModel(a, 3.0)
        rows = M.model1d_convergence(model, np.arange(2.0, 21.0))
        lam_inf = M.model1d_asymptotic_exponent(model)
        devs = [dev for _, _, dev in rows]
        monotone = all(x >= y - 1e-13 for x, y in zip(devs, devs[1:]))
        final_small = devs[-1] < 1e-10
        rate = (3.0 + lam_inf) / 2.0  # half of the kernel-plus-exponent decay rate
        anchor = devs[0] * math.exp(rate * rows[0][0])
        decay_ok = all(dev <= anchor * math.exp(-rate * s) + 1e-13
                       for (s, _, dev) in rows)
        ok &= monotone and final_small and decay_ok
        detail.append(f"a={a:+.0f}: final {devs[-1]:.1e}")
    _report(3, ok, "deviation non-increasing, below 1e-10 by s=20, decay rate bounded; "
            + ", ".join(detail))


def test_criterion_4_hb_operator_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 8, 32]))
        m = 2 * n + 1
        period = float(rng.uniform(0.5, 5.0))
        x = hb.TimeSamples(2, rng.normal(size=(2, m)), period)
        a = hb.dft(x)
        worst = max(worst, float(np.max(np.abs(hb.idft(a).samples - x.samples))))
        worst = max(worst, abs(np.sum(np.abs(x.samples) ** 2) / m
                               - np.sum(np.abs(a.amplitudes) ** 2)))
        # derivative against the analytic series derivative off the grid
        d = hb.differentiate(a)
        ts = rng.uniform(0, period, size=5)
        h = np.arange(-n, n + 1)
        analytic = (a.amplitudes * (1j * h * a.omega0)) @ np.exp(
            1j * a.omega0 * np.outer(h, ts))
        worst = max(worst, float(np.max(np.abs(d.evaluate(ts) - analytic))))
        # Toeplitz product against an oversampled pointwise multiply
        mh = hb.MatrixHarmonics.from_time_grid(rng.normal(size=(2, 2, 4 * n + 1)),
                                               period, n)
        prod = hb.toeplitz_from_periodic(mh) @ a.flat
        g = 4 * n + 5
        times = period * np.arange(1, g + 1) / g
        t_vals = np.stack([mh.evaluate(t) for t in times], axis=2)
        direct = fourier_coefficients_direct(
            np.einsum("rcg,cg->rg", t_vals, a.evaluate(times)), n)
        worst = max(worst, float(np.max(np.abs(prod.reshape(a.dim, -1) - direct))))
    elapsed = time.perf_counter() - t0
    _report(4, worst < 1e-10 and elapsed < 5.0,
            f"100 randomized instances, worst defect {worst:.2e} (tol 1e-10), "
            f"{elapsed:.1f}s (< 5 s)")


def test_criterion_5_pep_correctness():
    rng = np.random.default_rng(2024)
    count_ok = True
    worst_res = 0.0
    worst_det = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        coeffs = [rng.normal(size=(m, m)) for _ in range(r)]
        coeffs.append(rng.normal(size=(m, m)) + 2.0 * math.sqrt(m) * np.eye(m))
        res = F.solve_pep(coeffs)
        count_ok &= (res.total == r * m and len(res.eigenpairs) == r * m)
        worst_res = max(worst_res, max(resid for *_, resid in res.eigenpairs))
        worst_det = max(worst_det, max(pep_determinant_normalized(coeffs, lam)
                                       for lam, _, _ in res.eigenpairs))
    _report(5, count_ok and worst_res < 1e-8 and worst_det < 1e-6,
            f"50 instances: counts exact, worst residual {worst_res:.1e} (tol 1e-8), "
            f"worst normalized determinant {worst_det:.1e} (tol 1e-6)")


def test_criterion_6_memoryless_cross_validation():
    t0 = time.perf_counter()
    # forced linear periodic system
    period = 2 * math.pi
    omega0 = 1.0

    def a_of_t(t):
        return np.array([[-0.3 + 0.5 * math.cos(omega0 * t), 1.0],
                         [-1.0, -0.2 + 0.4 * math.sin(omega0 * t)]])

    nh = 16
    g = 4 * nh + 1
    times = period * np.arange(1, g + 1) / g
    samples = np.stack([a_of_t(t) for t in times], axis=2)
    mh = hb.MatrixHarmonics.from_time_grid(samples, period, 2 * nh)
    problem = F.FloquetProblem(hb.toeplitz_from_periodic(mh, n_harmonics=nh),
                               None, period, nh, 2)
    spec = F.floquet_spectrum(problem)
    oracle = monodromy_multipliers(a_of_t, 2, period)
    gap_linear = _worst_match(spec.multipliers, oracle, relative=True)

    # memoryless particle cycle
    model = M.BrownianParticleModel(**PARTICLE)
    model = dataclasses.replace(model, k=math.inf)
    cyc, spec_p = M.particle_spectrum(model, n_harmonics=16)
    system = M.particle_system(model)

    def a_cycle(t):
        z = cyc.harmonics.evaluate(t).real[:, 0]
        return system.rhs_jacobian(z, t)

    oracle_p = monodromy_multipliers(a_cycle, 4, cyc.period)
    gap_particle = _worst_match(spec_p.multipliers, oracle_p, relative=True)
    elapsed = time.perf_counter() - t0
    _report(6, gap_linear < 1e-6 and gap_particle < 1e-3 and elapsed < 30.0,
            f"linear system gap {gap_linear:.1e} (tol 1e-6), particle gap "
            f"{gap_particle:.1e} (tol 1e-3), {elapsed:.1f}s (< 30 s)")


def _worst_match(got, want, relative=False):
    got = list(got)
    worst = 0.0
    for w in want:
        gaps = [abs(g - w) for g in got]
        i = int(np.argmin(gaps))
        worst = max(worst, gaps[i] / (abs(w) if relative else 1.0))
        got.pop(i)
    return worst


def test_criterion_7_particle_with_memory(particle_run):
    model, cycle, spectrum, problem, elapsed = particle_run
    t0 = time.perf_counter()
    omega0 = 2 * math.pi / cycle.period
    checks = {
        "cycle residual": cycle.residual < 1e-8,
        "6 classes": len(spectrum.canonical_strip) == 6,
        "trivial class": any(p.trivial and abs(p.exponent) < 1e-4 * omega0
                             for p in spectrum.canonical_strip),
        "decay bound": all(p.exponent.real > -1.0 for p in spectrum.canonical_strip),
        "stable verdict": spectrum.stability == "Stable",
    }

    # a locking region exists around ratio 1 and closes away from it
    def stable_cycle(alpha, k, ratio, nh=12):
        m = M.BrownianParticleModel(alpha, 1.0, PARTICLE["g"], k, (2.0, 2.0 / ratio))
        try:
            cyc, spec = M.particle_spectrum(m, n_harmonics=nh)
        except M.NoCycle:
            return False
        return M.cycle_amplitude(cyc) > M.CYCLE_AMPLITUDE_TOL and spec.stability == "Stable"

    checks["tongue interior"] = all(stable_cycle(1.0, 1.0, r) for r in (0.97, 1.0, 1.03))
    checks["tongue exterior"] = not stable_cycle(1.0, 1.0, 1.5)

    # the stability boundary in alpha shrinks as the memory disappears
    boundaries = []
    for k in (1.0, 3.0, 10.0, 100.0):
        lo, hi = 0.0, 0.8
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if stable_cycle(mid, k, 1.0):
                hi = mid
            else:
                lo = mid
        boundaries.append(0.5 * (lo + hi))
    checks["boundary decreases with k"] = all(
        x > y for x, y in zip(boundaries, boundaries[1:]))
    elapsed_total = elapsed + (time.perf_counter() - t0)
    checks["runtime"] = elapsed_total < 600.0
    ok = all(checks.values())
    _report(7, ok, "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
            + f"; boundaries {['%.4f' % b for b in boundaries]}"
            + f"; {elapsed_total:.0f}s (< 600 s)")


def test_criterion_8_tl_resonator():
    # bisection over the active resistance
    from memflo.cli import LinearRange, SweepConfig, run

    config = SweepConfig("tl", "boundary_bisect",
                         {"R": 1.0, "Z0": 1.0, "tau_f": 1.0,
                          "Ra": LinearRange(-1.5, -0.5, 11)},
                         bisect_tol=1e-6)
    boundary = run(config).metadata["bisect"]["boundary"]
    bisect_ok = abs(boundary - (-1.0)) < 1e-6

    spec = M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=-1.0, Z0=1.0, tau_f=1.0), n_roots=5)
    marginal_gap = max(abs(p.exponent - 1j * 2 * math.pi * k / 2.0)
                       for k, p in enumerate(spec.pairs))

    spec_half = M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=2.0, Z0=1.0, tau_f=1.0),
                              n_roots=6)
    re_gap = max(abs(p.exponent.real - math.log(0.5) / 2.0) for p in spec_half.pairs)
    ok = bisect_ok and marginal_gap < 1e-12 and re_gap < 1e-12
    _report(8, ok, f"boundary Ra = {boundary:.8f} (tol 1e-6); marginal-line roots off by "
            f"{marginal_gap:.1e} (tol 1e-12); common real part off by {re_gap:.1e}")


def test_criterion_9_splitting_invariance(particle_run):
    _, _, spectrum_p, problem_p, _ = particle_run
    pairs = []  # (problem-or-None, pair, residual_fn for closed-form spectra)

    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        p = M.model1d_problem(M.Memory1DModel(a, 3.0), n_harmonics=6)
        spec = F.floquet_spectrum(p)
        pairs.extend((p, q) for q in spec.canonical_strip)

    period = 2 * math.pi

    def a_of_t(t):
        return np.array([[-0.3 + 0.5 * math.cos(t), 1.0],
                         [-1.0, -0.2 + 0.4 * math.sin(t)]])

    nh = 12
    g = 4 * nh + 1
    times = period * np.arange(1, g + 1) / g
    mh = hb.MatrixHarmonics.from_time_grid(
        np.stack([a_of_t(t) for t in times], axis=2), period, 2 * nh)
    p_lin = F.FloquetProblem(hb.toeplitz_from_periodic(mh, n_harmonics=nh),
                             None, period, nh, 2)
    pairs.extend((p_lin, q) for q in F.floquet_spectrum(p_lin).canonical_strip)

    pairs.extend((problem_p, q) for q in spectrum_p.canonical_strip)

    model_ml = dataclasses.replace(M.BrownianParticleModel(**PARTICLE), k=math.inf)
    cyc_ml, spec_ml = M.particle_spectrum(model_ml, n_harmonics=12)
    p_ml = C.linearize(M.particle_system(model_ml), cyc_ml)
    pairs.extend((p_ml, q) for q in spec_ml.canonical_strip)

    worst = 0.0
    merged_ok = True
    for prob, pair in pairs:
        shifted = F.splitting_shift(prob, pair)
        worst = max(worst, shifted.residual)
        merged = F.canonicalize_spectrum([pair, shifted], prob.omega0)
        merged_ok &= len(merged.canonical_strip) == 1

    # closed-form resonator roots, shifted by the class spacing
    tl = M.TlResonatorModel(R=1.0, Ra=2.0, Z0=1.0, tau_f=1.0)
    gamma = tl.reflection_coefficient
    spec_tl = M.tl_spectrum(tl, n_roots=5)
    omega0 = math.pi / tl.tau_f
    for pair in spec_tl.pairs:
        lam = pair.exponent + 1j * omega0
        worst = max(worst, abs(cmath.exp(2 * lam * tl.tau_f) + gamma))
        merged = F.canonicalize_spectrum([pair, F.FloquetEigenpair(
            lam, cmath.exp(lam * 2 * tl.tau_f), pair.eigenvector, 0.0)], omega0)
        merged_ok &= len(merged.canonical_strip) == 1

    total = len(pairs) + 5
    _report(9, total >= 20 and worst < 1e-8 and merged_ok,
            f"{total} eigenpairs checked, worst shifted residual {worst:.1e} "
            f"(tol 1e-8), all shift pairs merge to one class")
