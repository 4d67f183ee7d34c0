"""Acceptance gates for the full build, one test per criterion.

Each test prints a single pass/fail line with the measured values (visible
with `pytest tests/test_acceptance.py -v -s`).  Tolerances are fixed here,
not calibrated at runtime.

Criterion 4 is asserted exactly as stated and fails: the measured gaps are
physical properties of the specified systems, not integration artifacts
(verified against an independent high-accuracy integrator); see
notes/decisions.md in the review materials for the analysis.
"""

import math
import time

import numpy as np
from scipy.integrate import quad, simpson
from scipy.signal import welch

from spinbath.coupling import (fdt_check, kernel_moments, lorentzian_coupling,
                               lorentzian_kernel_freq, lorentzian_kernel_time,
                               ohmic_coupling, ohmic_kernel_im_freq,
                               power_spectrum)
from spinbath.dynamics import integrate
from spinbath.experiments import (DEFAULT_ETA, DESK_SWEEP_T_MAX, METHOD_TAGS,
                                  averaged_steady_state, ensemble_average,
                                  equilibration_time, method_config,
                                  statphys_oracle)
from spinbath.model import (OhmicParams, SET1, SET2, SpinSystem,
                            build_unit_frame)
from spinbath.noise import WhiteSeed, coloured_trace

FRAME1 = build_unit_frame(10.0, -1.76e11, 1)
FRAME200 = build_unit_frame(10.0, -1.76e11, 200)
DT = 0.15


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _mean_steady(method, frame, temperature, n_rep, base_seed):
    cfg = method_config(method, frame, temperature, t_max=DESK_SWEEP_T_MAX)
    return averaged_steady_state(cfg, n_rep, base_seed)


def test_criterion_01_spin_length_conservation():
    worst = 0.0
    slowest = 0.0
    for method in METHOD_TAGS:
        cfg = method_config(method, FRAME1, 1.0, t_max=1e4 * DT)
        t0 = time.perf_counter()
        traj = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=0xA1)
        elapsed = time.perf_counter() - t0
        worst = max(worst, traj.max_norm_drift())
        slowest = max(slowest, elapsed)
    ok = worst < 1e-5 and slowest < 1.0
    _report(1, ok, f"max |1-|s|| = {worst:.2e} over 1e4 steps (gate 1e-5), "
                   f"slowest trajectory {slowest:.2f}s (gate 1s)")
    assert worst < 1e-5
    assert slowest < 1.0


def test_criterion_02_classical_oracle():
    temps = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0)
    rows = []
    worst = 0.0
    for frame, n_rep in ((FRAME1, 96), (FRAME200, 24)):
        for temp in temps:
            got, sem = _mean_steady("llg-classical", frame, temp, n_rep,
                                    base_seed=0xA2 ^ (frame.n_halves << 16))
            want = statphys_oracle(frame.n_halves, temp, frame)
            delta = abs(got - want)
            worst = max(worst, delta)
            rows.append((frame.n_halves, temp, got, sem, want, delta))
    table = "; ".join(f"n={n} T={t:g}: {g:.3f}±{s:.3f} vs {w:.3f} (Δ{d:.3f})"
                      for n, t, g, s, w, d in rows)
    ok = worst < 0.05
    _report(2, ok, f"max |sim - oracle| = {worst:.4f} (gate 0.05); {table}")
    assert worst < 0.05


def test_criterion_03_quantum_zero_point_depletion():
    results = {}
    for method in ("llg-quantum", "lorentzian-set1", "lorentzian-set2"):
        got, sem = _mean_steady(method, FRAME1, 0.0, 12, base_seed=0xA3)
        results[method] = (got, sem)
    ok = all(0.15 < v < 0.45 for v, _ in results.values())
    detail = ", ".join(f"{m}: {v:.3f}±{s:.3f}" for m, (v, s) in results.items())
    _report(3, ok, f"steady s_z at T=0, spin hbar/2 in [0.15, 0.45]: {detail}")
    for v, _ in results.values():
        assert 0.15 < v < 0.45


def test_criterion_04_ohmic_regime_equivalence():
    # noiseless half: Set 1 embedding vs eta-matched memory-free run
    from spinbath.dynamics import IntegratorConfig
    cfg_l = IntegratorConfig(frame=FRAME1, bath=SET1, dt=DT, t_max=300.0)
    cfg_o = IntegratorConfig(frame=FRAME1, bath=OhmicParams(DEFAULT_ETA),
                             dt=DT, t_max=300.0)
    lor = integrate(SpinSystem.single((-1, 0, 0)), cfg_l)
    llg = integrate(SpinSystem.single((-1, 0, 0)), cfg_o)
    dev_quiet = float(np.max(np.abs(lor.sz() - llg.sz())))

    # noisy half: same white samples, each method's own quantum spectrum
    cfg_ln = method_config("lorentzian-set1", FRAME1, 1.0, t_max=50.0)
    cfg_on = method_config("llg-quantum", FRAME1, 1.0, t_max=50.0)
    lor_n = integrate(SpinSystem.single((-1, 0, 0)), cfg_ln, seed=0xA4)
    llg_n = integrate(SpinSystem.single((-1, 0, 0)), cfg_on, seed=0xA4)
    dev_noisy = float(np.max(np.abs(lor_n.sz() - llg_n.sz())))

    ok = dev_quiet < 0.01 and dev_noisy < 0.05
    _report(4, ok,
            f"noiseless sup dev = {dev_quiet:.4f} (gate 0.01, physical floor "
            f"0.0151); shared-seed quantum sup dev = {dev_noisy:.3f} "
            f"(gate 0.05, order-unity zero-point noise decoheres the "
            f"trajectories at spin hbar/2, T=1K)")
    assert dev_quiet < 0.01, (
        "the Set-1 bath genuinely damps ~3% faster at the precession "
        "frequency than the eta-matched memory-free equation; the true "
        "deviation is 0.0151 (independently verified), above the stated gate")
    assert dev_noisy < 0.05, (
        "with per-method spectra at spin hbar/2 and T=1K the zero-point "
        "noise is order unity and same-seed trajectories decohere; the "
        "qualitative tracking holds in the weak-noise regime (see module "
        "tests) but not at the stated gate here")


def test_criterion_05_embedding_equivalence():
    dt = 0.02
    cfg = method_config("lorentzian-set2", FRAME1, 0.0, dt=dt, t_max=40.0)
    traj = integrate(SpinSystem.single((-1, 0, 0)), cfg)
    s = traj.spins[0]
    v = traj.aux_v[0]
    err2 = 0.0
    cnt = 0
    for i in range(10, s.shape[0], 10):
        tau = traj.times[i] - traj.times[:i + 1]
        k = lorentzian_kernel_time(tau, SET2)
        for j in range(3):
            vi = simpson(k * s[:i + 1, j], dx=dt)
            err2 += (vi - v[i, j]) ** 2
            cnt += 1
    rms = math.sqrt(err2 / cnt)
    ok = rms < 1e-5
    _report(5, ok, f"aux field vs kernel-convolution oracle RMS = {rms:.2e} "
                   f"(gate 1e-5)")
    assert rms < 1e-5


def test_criterion_06_fdt_and_kernel_identities():
    res1 = fdt_check(lambda w: lorentzian_coupling(w, SET1),
                     lambda w: lorentzian_kernel_freq(w, SET1).imag)
    res2 = fdt_check(lambda w: lorentzian_coupling(w, SET2),
                     lambda w: lorentzian_kernel_freq(w, SET2).imag)
    res3 = fdt_check(lambda w: ohmic_coupling(w, DEFAULT_ETA),
                     lambda w: ohmic_kernel_im_freq(w, DEFAULT_ETA))
    worst_q = 0.0
    for p in (SET1, SET2):
        mom = kernel_moments(p, max_m=4)
        for m in range(1, 5):
            # upper limit 80/Gamma: tau^m amplifies the tail beyond 40/Gamma
            num, _ = quad(lambda t, m=m: t ** m * lorentzian_kernel_time(t, p),
                          0.0, 80.0 / p.gamma_width, limit=800)
            closed = (-1.0) ** m * math.factorial(m) * mom.kappa[m - 1]
            worst_q = max(worst_q, abs(num - closed) / abs(closed))
    tau1 = kernel_moments(SET1).tau_in
    tau2 = kernel_moments(SET2).tau_in
    # 0.098 is 24/245 in print precision; the 1e-6 gate applies to the exact value
    d1 = abs(tau1 - 24.0 / 245.0)
    d2 = abs(tau2 - 1.745)
    ok = (max(res1, res2, res3) < 1e-10 and worst_q < 1e-6
          and d1 < 1e-6 and d2 < 1e-3)
    _report(6, ok, f"fdt residuals = {max(res1, res2, res3):.1e} (gate 1e-10); "
                   f"moment quadrature rel err = {worst_q:.1e} (gate 1e-6); "
                   f"tau_in = {tau1:.6f}/{tau2:.6f} vs 24/245 and 1.745")
    assert max(res1, res2, res3) < 1e-10
    assert worst_q < 1e-6
    assert d1 < 1e-6
    assert d2 < 1e-3


def test_criterion_07_noise_spectral_fidelity():
    specs = [
        ("classical-ohmic", power_spectrum("classical-ohmic",
                                           OhmicParams(DEFAULT_ETA), 200.0, FRAME1)),
        ("quantum-ohmic", power_spectrum("quantum-ohmic",
                                         OhmicParams(DEFAULT_ETA), 1.0, FRAME1,
                                         cutoff=10.0)),
        ("lorentzian-set1", power_spectrum("quantum-lorentzian", SET1, 1.0, FRAME1)),
        ("lorentzian-set2", power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME1)),
    ]
    details = []
    worst = 0.0
    for i, (name, psd) in enumerate(specs):
        trace = coloured_trace(WhiteSeed(seed=0xA7 + i, n_samples=2 ** 20, dt=DT), psd)
        f, pxx = welch(trace.components, fs=1.0 / DT, nperseg=2 ** 14,
                       noverlap=2 ** 13, window="hann", detrend=False, axis=1)
        om = 2.0 * math.pi * f
        est = pxx.mean(axis=0) / 2.0
        target = psd.trace_density(om)
        nb = 40  # ~0.1 Larmor-wide comparison bands
        m = (len(om) // nb) * nb
        eb = est[:m].reshape(-1, nb).mean(axis=1)
        tb = target[:m].reshape(-1, nb).mean(axis=1)
        mask = tb > 0.05 * tb.max()
        rel = float(np.max(np.abs(eb[mask] - tb[mask]) / tb[mask]))
        worst = max(worst, rel)
        details.append(f"{name}: {rel:.3f}")
    ok = worst < 0.10
    _report(7, ok, "banded Welch vs target, max rel err (gate 0.10): "
            + ", ".join(details))
    assert worst < 0.10


def test_criterion_08_high_temperature_universality():
    oracle = statphys_oracle(200, 200.0, FRAME200)
    results = {}
    for method in METHOD_TAGS:
        got, sem = _mean_steady(method, FRAME200, 200.0, 16, base_seed=0xA8)
        results[method] = (got, sem)
    ok = all(abs(v - 0.85) < 0.03 for v, _ in results.values())
    detail = ", ".join(f"{m}: {v:.4f}±{s:.4f}" for m, (v, s) in results.items())
    _report(8, ok, f"steady s_z = 0.85±0.03 for every method "
                   f"(oracle {oracle:.4f}): {detail}")
    for v, _ in results.values():
        assert abs(v - 0.85) < 0.03


def test_criterion_09_faster_non_markovian_equilibration():
    t_eq = {}
    for method in ("lorentzian-set1", "lorentzian-set2"):
        cfg = method_config(method, FRAME200, 200.0, t_max=2 * math.pi * 48)
        res = ensemble_average(cfg, 100, base_seed=0xA9)
        # 10% band: wide enough that finite-ensemble noise of the mean
        # (sigma/sqrt(100) ~ 0.015) cannot register as an excursion
        t_eq[method] = equilibration_time(res.times, res.sz_mean, band=0.10)
    ratio = t_eq["lorentzian-set2"] / t_eq["lorentzian-set1"]
    ok = ratio < 0.8
    _report(9, ok, f"t_eq set2/set1 = {t_eq['lorentzian-set2']:.1f}/"
                   f"{t_eq['lorentzian-set1']:.1f} = {ratio:.2f} (gate 0.8)")
    assert ratio < 0.8


def test_criterion_10_classical_scaling_collapse():
    cfg_a = method_config("llg-classical", FRAME1, 1.0, t_max=1e4 * DT)
    cfg_b = method_config("llg-classical", FRAME200, 200.0, t_max=1e4 * DT)
    ta = integrate(SpinSystem.single((-1, 0, 0)), cfg_a, seed=0xAA)
    tb = integrate(SpinSystem.single((-1, 0, 0)), cfg_b, seed=0xAA)
    diff = float(np.max(np.abs(ta.spins - tb.spins)))
    ok = diff <= 1e-10
    _report(10, ok, f"shared-seed trajectories at equal T/S0: "
                    f"max |diff| = {diff:.1e} (gate 1e-10)")
    assert diff <= 1e-10
