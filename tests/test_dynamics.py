import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import dynamics
from spinbath.coupling import DEFAULT_CUTOFF, power_spectrum
from spinbath.cli import _tilt_mode
from spinbath.dynamics import (FLOAT_LANES, IntegratorConfig, integrate,
                               integrate_members, llg_kernel,
                               lorentzian_kernel, precession_mode)
from spinbath.experiments import DEFAULT_ETA, METHOD_TAGS, method_config
from spinbath.model import (ConfigurationError, IntegrationDivergedError,
                            LorentzianParams, OhmicParams, ParameterError,
                            SET1, SET2, SpinSystem, build_unit_frame)
from spinbath.noise import NoiseTrace, site_seed

FRAME = build_unit_frame(10.0, -1.76e11, 1)


def single_run(bath, t_max, dt, spin=(-1, 0, 0), noise_kind=None, temp=0.0,
               seed=0, frame=FRAME, **kw):
    cfg = IntegratorConfig(frame=frame, bath=bath, noise_kind=noise_kind,
                           temperature=temp, dt=dt, t_max=t_max, **kw)
    return integrate(SpinSystem.single(spin), cfg, seed=seed)


def llg_step(field, spin, h, eta=0.0, lanes=FLOAT_LANES):
    """One llg_kernel step in a constant field; returns s.  The field is
    passed as noise, less the unit static field the kernel adds on z."""
    rec = [[] for _ in range(3)]
    fx, fy, fz = field
    noise = ([fx, fx], [fy, fy], [fz - 1.0, fz - 1.0])
    next(llg_kernel(tuple(spin), noise, 1, h, eta, -1.0, lanes,
                    [r.append for r in rec]), None)
    return np.array([rec[0][-1], rec[1][-1], rec[2][-1]])


def reference_llg_step(spin, fields, h, eta):
    """Textbook RK4 on s in R^3, then s / |s|, written with numpy vectors:
    one memory-free step with g = -1 in the fields (f0, f_half, f1) at the
    step's start, middle and end.  Its operations round as llg_kernel's do."""
    gp = -1.0 / (1.0 + eta * eta)
    lam = eta / (1.0 + eta * eta)
    f0, fh, f1 = (np.asarray(f, dtype=float) for f in fields)

    def slope(s, f):
        return np.cross(-gp * f + lam * np.cross(s, f), s)

    s = np.asarray(spin, dtype=float)
    k1 = slope(s, f0)
    k2 = slope(s + 0.5 * h * k1, fh)
    k3 = slope(s + 0.5 * h * k2, fh)
    k4 = slope(s + h * k3, f1)
    s = s + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return s * (1.0 / math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]))


class TestDeterministicMotion:
    def test_pure_precession_cosine(self):
        traj = single_run(OhmicParams(0.0), t_max=2 * math.pi, dt=0.01,
                          spin=(1, 0, 0))
        np.testing.assert_allclose(traj.spins[0, :, 0], np.cos(traj.times),
                                   atol=1e-8)
        np.testing.assert_allclose(traj.sz(), 0.0, atol=1e-12)

    def test_precession_sense_follows_gamma_sign(self):
        neg = single_run(OhmicParams(0.0), 1.5, 0.01, spin=(1, 0, 0))
        pos = single_run(OhmicParams(0.0), 1.5, 0.01, spin=(1, 0, 0),
                         frame=build_unit_frame(10.0, +1.76e11, 1))
        np.testing.assert_allclose(neg.spins[0, :, 1], -pos.spins[0, :, 1],
                                   atol=1e-12)

    def test_damped_alignment_follows_tanh_law(self):
        eta = 0.02
        traj = single_run(OhmicParams(eta), t_max=300.0, dt=0.15)
        lam = eta / (1 + eta * eta)
        assert np.max(np.abs(traj.sz() - np.tanh(lam * traj.times))) < 1e-4

    def test_aligned_state_is_fixed_point(self):
        traj = single_run(OhmicParams(0.02), t_max=50.0, dt=0.15, spin=(0, 0, 1))
        dev = traj.spins[0] - np.array([0.0, 0.0, 1.0])
        assert np.max(np.abs(dev)) < 1e-12

    def test_energy_conserved_without_damping_or_noise(self):
        traj = single_run(OhmicParams(0.0), t_max=1500.0, dt=0.15)
        energy = -traj.sz()  # unit-free -s . b_ext
        assert np.max(np.abs(energy - energy[0])) < 1e-8

    def test_decoupled_resonant_bath_is_pure_precession(self):
        p = LorentzianParams(omega0=1.4, gamma_width=0.5, alpha=0.0)
        a = single_run(p, t_max=30.0, dt=0.05, spin=(1, 0, 0))
        b = single_run(OhmicParams(0.0), t_max=30.0, dt=0.05, spin=(1, 0, 0))
        np.testing.assert_allclose(a.spins, b.spins, atol=1e-12)


class TestOhmicRegime:
    def test_set1_matches_memory_free_damping(self):
        # true physical gap between the resonant Set-1 bath and the
        # eta-matched memory-free equation: its damping at the precession
        # frequency is ~3% above eta, integrating to ~0.015 in sup norm
        # (verified against an independent high-accuracy integration)
        llg = single_run(OhmicParams(DEFAULT_ETA), t_max=300.0, dt=0.15)
        lor = single_run(SET1, t_max=300.0, dt=0.15)
        dev = np.max(np.abs(llg.sz() - lor.sz()))
        assert 0.008 < dev < 0.020

    def test_deviation_shrinks_as_resonance_moves_up(self):
        # dt small enough to resolve the fastest bath (omega0 * dt < 2.8)
        llg = single_run(OhmicParams(DEFAULT_ETA), t_max=100.0, dt=0.05)
        sups = []
        for scale in (1.0, 2.0, 4.0):
            w0 = 7.0 * scale
            gw = 5.0 * scale
            p = LorentzianParams(omega0=w0, gamma_width=gw,
                                 alpha=DEFAULT_ETA * w0 ** 4 / gw)
            lor = single_run(p, t_max=100.0, dt=0.05)
            sups.append(float(np.max(np.abs(llg.sz() - lor.sz()))))
        assert sups[0] > sups[1] > sups[2]

    def test_set2_nutation_rides_on_the_relaxation(self):
        # memory produces ripples at roughly the inertial frequency
        # 1/tau_in, absent from the memory-free run
        dt = 0.05
        lor = single_run(SET2, t_max=120.0, dt=dt)
        llg = single_run(OhmicParams(DEFAULT_ETA), t_max=120.0, dt=dt)
        w = 121

        def ripple(z):
            trend = np.convolve(z, np.ones(w) / w, mode="same")
            return (z - trend)[w:-w]

        r_lor = ripple(lor.sz())
        r_llg = ripple(llg.sz())
        assert r_lor.std() > 10 * r_llg.std()
        spec = np.abs(np.fft.rfft(r_lor * np.hanning(len(r_lor))))
        freq = 2 * math.pi * np.fft.rfftfreq(len(r_lor), d=dt)
        tau_in = 1.71 / 0.98
        # look above the detrending band, where the ripple line lives
        sel = freq > 0.3
        peak = freq[sel][np.argmax(spec[sel])]
        assert peak == pytest.approx(1.0 / tau_in, rel=0.25)


class TestEmbedding:
    def test_aux_field_equals_kernel_convolution(self):
        # the auxiliary pair (V, W) must reproduce the memory integral
        # int k(t-t') s(t') dt'; Simpson the stored history
        from scipy.integrate import simpson
        from spinbath.coupling import lorentzian_kernel_time
        dt = 0.02
        traj = single_run(SET2, t_max=40.0, dt=dt)
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
        assert math.sqrt(err2 / cnt) < 1e-5

    def test_effective_field_matches_convolution_oracle(self):
        from scipy.integrate import simpson
        from spinbath.coupling import lorentzian_kernel_time
        dt = 0.005
        cfg = IntegratorConfig(frame=FRAME, bath=SET1, dt=dt, t_max=10.0)
        traj = integrate(SpinSystem.single((-1, 0, 0)), cfg)
        i = traj.spins.shape[1] - 1
        tau = traj.times[i] - traj.times
        k = lorentzian_kernel_time(tau, SET1)
        v_oracle = np.array([simpson(k * traj.spins[0, :, j], dx=dt)
                             for j in range(3)])
        # field the spin sees at the last step: b_ext + V (no noise)
        b_ext = np.array([0.0, 0.0, 1.0])
        field = b_ext + traj.aux_v[0, i]
        np.testing.assert_allclose(field, b_ext + v_oracle, atol=3e-6)


class TestEffectiveField:
    # one-step integrations that expose the field the kernel assembles

    def test_bare_field_for_quiet_single_spin(self):
        # unit precession about b_ext: ds/dt = g s x b_ext with g = -1.  On
        # a rotation by th = h, RK4's polynomial 1 + z + ... + z^4/24 at
        # z = i th falls th^5/120 short in angle, and the projection drops
        # its modulus error, so the step is within h^5/120 = 8.3e-8 of the
        # exact rotation (8.30e-8 measured)
        h = 0.1
        traj = single_run(OhmicParams(0.0), t_max=h, dt=h, spin=(1, 0, 0))
        b_ext = (0.0, 0.0, 1.0)
        assert np.array_equal(traj.spins[0, 1], reference_llg_step(
            (1.0, 0.0, 0.0), (b_ext,) * 3, h, 0.0))
        np.testing.assert_allclose(traj.spins[0, 1],
                                   [math.cos(h), math.sin(h), 0.0],
                                   rtol=0, atol=h ** 5 / 120)

    def test_exchange_adds_coupled_neighbour(self):
        # site fields (j, 0, 1) and (0, 0, 1 + j): initial ds/dt = -s x f
        j = 0.25
        h = 1e-4
        sys = SpinSystem(spins=np.array([[0, 0, 1.0], [1.0, 0, 0]]),
                         exchange={(0, 1): j * np.eye(3), (1, 0): j * np.eye(3)})
        cfg = IntegratorConfig(frame=FRAME, bath=OhmicParams(0.0), dt=h, t_max=h)
        traj = integrate(sys, cfg)
        rate = (traj.spins[:, 1] - traj.spins[:, 0]) / h
        np.testing.assert_allclose(rate[0], [0.0, -j, 0.0], atol=1e-3)
        np.testing.assert_allclose(rate[1], [0.0, 1.0 + j, 0.0], atol=1e-3)

    def test_noise_is_linearly_interpolated(self):
        # a field along b_ext ramping 0 -> 1 over the step: with the
        # half-step value interpolated to 0.5 the rotation angle is
        # h * (1 + 0.5) = 0.75.  RK4's one-step error on a rotation by th
        # is th^5/120 = 2.0e-3 (6.0e-4 measured with the ramp), far below
        # the 0.249 that an angle of 0.5 or 1.0 would be off by
        h = 0.5
        comp = np.zeros((3, 2))
        comp[2] = [0.0, 1.0]
        trace = NoiseTrace(components=comp, dt=h, provenance=(None, "test"))
        cfg = IntegratorConfig(frame=FRAME, bath=OhmicParams(0.0), dt=h, t_max=h)
        traj = integrate(SpinSystem.single((1, 0, 0)), cfg, traces=[trace])
        fields = [(0.0, 0.0, 1.0 + b) for b in (0.0, 0.5, 1.0)]
        assert np.array_equal(traj.spins[0, 1], reference_llg_step(
            (1.0, 0.0, 0.0), fields, h, 0.0))
        for angle, close in ((0.75, True), (0.5, False), (1.0, False)):
            dev = np.max(np.abs(traj.spins[0, 1] - [math.cos(angle),
                                                    math.sin(angle), 0.0]))
            assert (dev < 0.75 ** 5 / 120) == close

    def test_time_outside_trace_rejected(self):
        cfg = IntegratorConfig(frame=FRAME, bath=OhmicParams(0.02), dt=1.0,
                               t_max=3.0)
        sys = SpinSystem.single((0, 0, 1))
        short = NoiseTrace(components=np.zeros((3, 3)), dt=1.0,
                           provenance=(None, "test"))
        with pytest.raises(ConfigurationError):
            integrate(sys, cfg, traces=[short])
        coarse = NoiseTrace(components=np.zeros((3, 4)), dt=7.0,
                            provenance=(None, "test"))
        with pytest.raises(ConfigurationError, match=r"dt=7\.0.*dt=1\.0"):
            integrate(sys, cfg, traces=[coarse])
        exact = NoiseTrace(components=np.zeros((3, 4)), dt=1.0,
                           provenance=(None, "test"))
        assert integrate(sys, cfg, traces=[exact]).spins.shape == (1, 4, 3)

    def test_memory_free_bath_excludes_aux_field(self):
        ohmic = IntegratorConfig(frame=FRAME, bath=OhmicParams(0.02), dt=0.1,
                                 t_max=1.0)
        assert integrate(SpinSystem.single((1, 0, 0)), ohmic).aux_v is None
        # the resonant bath starts with no history
        lor = IntegratorConfig(frame=FRAME, bath=SET2, dt=0.1, t_max=1.0)
        b = integrate(SpinSystem.single((1, 0, 0)), lor)
        np.testing.assert_array_equal(b.aux_v[0, 0], [0.0, 0.0, 0.0])


class TestLinearResponse:
    # A noiseless 1e-4 tilt off +z against precession_mode.  Relative errors
    # of the rate / frequency fitted over t in [100, 400], numpy 2.4.6:
    #   dt 0.15:  Ohmic 4.23e-6 / 4.23e-6, set1 3.49e-6 / 4.19e-6,
    #             set2 9.31e-6 / 3.39e-6
    #   dt 0.075: Ohmic 5.27e-7 / 2.64e-7, set1 5.45e-7 / 2.61e-7,
    #             set2 8.19e-7 / 2.09e-7
    # |lambda_fit - lambda| / |lambda| falls 16.02-16.05x as dt halves, as
    # 4th order predicts.  The rate alone falls 6.4-11.4x: it is the small
    # real part of a nearly imaginary lambda, and the step's higher-order
    # terms still move it at dt = 0.15 (for the Ohmic bath it falls 9.2x,
    # then 13.2x, at dt 0.0375 and 0.01875).  Gates sit about 1.5x above
    # the errors.
    @pytest.mark.parametrize("bath,rate_gates", [
        (OhmicParams(DEFAULT_ETA), (6.5e-6, 8e-7)), (SET1, (5.5e-6, 8e-7)),
        (SET2, (1.4e-5, 1.25e-6))])
    def test_tilt_mode_matches_closed_form(self, bath, rate_gates):
        want = precession_mode(bath, FRAME.sign_gamma)
        assert precession_mode(bath, -FRAME.sign_gamma) == pytest.approx(
            want.conjugate(), rel=1e-12)
        errs = []
        for dt, rate_gate, freq_gate in zip((0.15, 0.075), rate_gates,
                                            (6.5e-6, 4e-7)):
            got = _tilt_mode(bath, FRAME, dt)
            assert abs(got.real - want.real) < rate_gate * abs(want.real)
            assert abs(got.imag - want.imag) < freq_gate * abs(want.imag)
            errs.append(abs(got - want))
        assert 14.0 < errs[0] / errs[1] < 18.0


class TestIntegratorPlumbing:
    def test_norm_conserved_with_noise(self):
        for method in ("llg-classical", "llg-quantum", "lorentzian-set2"):
            cfg = method_config(method, FRAME, 1.0, t_max=300.0)
            traj = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=4)
            assert traj.max_norm_drift() < 1e-5

    def test_deterministic_given_seed(self):
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=30.0)
        a = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=12)
        b = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=12)
        assert np.array_equal(a.spins, b.spins)
        c = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=13)
        assert not np.array_equal(a.spins, c.spins)

    def test_input_system_is_left_untouched(self):
        sys = SpinSystem.single((-1, 0, 0))
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=15.0)
        integrate(sys, cfg, seed=1)
        np.testing.assert_allclose(sys.spins, [[-1.0, 0.0, 0.0]])

    def test_fourth_order_convergence(self):
        ref = single_run(SET2, t_max=30.0, dt=0.025)
        errs = []
        for dt in (0.2, 0.1):
            traj = single_run(SET2, t_max=30.0, dt=dt)
            stride = int(round(dt / 0.025))
            errs.append(np.max(np.abs(traj.spins[0] - ref.spins[0, ::stride])))
        ratio = errs[0] / errs[1]
        assert 11.0 < ratio < 22.0

    # Noiseless 60-unit runs from s = -x, |s - s_ref| at the end against a
    # dt = 0.001 run, at dt 0.15 / 0.075 (numpy 2.4.6): Ohmic eta = 0.1
    # 1.31e-6 / 8.15e-8, set1 1.29e-4 / 8.10e-6, set2 1.54e-5 / 9.60e-7; each
    # falls 15.9-16.1x as dt halves.  The gates sit about 1.5x above the
    # errors, and the observed order must be 4 within 0.2.
    @pytest.mark.parametrize("bath,gate", [(OhmicParams(0.1), 2e-6),
                                           (SET1, 2e-4), (SET2, 2.5e-5)])
    def test_projected_rk4_error_and_order(self, bath, gate):
        def end(dt):
            return single_run(bath, t_max=60.0, dt=dt).spins[0, -1]
        ref = end(0.001)
        errs = [np.linalg.norm(end(dt) - ref) for dt in (0.15, 0.075)]
        assert errs[0] < gate and errs[1] < gate / 16.0
        assert 3.8 < math.log2(errs[0] / errs[1]) < 4.2

    def test_general_path_matches_scalar_path(self):
        # a two-site system without exchange is two independent spins whose
        # per-site streams match the equivalent single-spin runs
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=30.0)
        pair = SpinSystem(spins=np.array([[-1.0, 0, 0], [0, 1.0, 0]]))
        traj = integrate(pair, cfg, seed=90)
        a = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=site_seed(90, 0))
        b = integrate(SpinSystem.single((0, 1.0, 0)), cfg, seed=site_seed(90, 1))
        assert np.array_equal(traj.spins[0], a.spins[0])
        assert np.array_equal(traj.spins[1], b.spins[0])
        assert np.array_equal(traj.norms, np.concatenate([a.norms, b.norms]))
        assert np.array_equal(traj.aux_v, np.concatenate([a.aux_v, b.aux_v]))

    # Peak bytes allocated per step by integrate, tracemalloc, numpy 2.4.6,
    # 4,000 steps, noise generated beforehand: 90.9 (llg-quantum) and 140.5
    # (lorentzian-set2) recording one buffer per channel and copying them
    # into fresh arrays; 41.8 and 66.2 recording the spin (and V)
    # interleaved and wrapping the buffers; now 33.0 and 57.5, with |s| no
    # longer recorded.  Per step the spin holds 24, V 24 and the times 8,
    # plus the buffers' growth slack.
    @pytest.mark.parametrize("method,gate", [("llg-quantum", 36.0),
                                             ("lorentzian-set2", 61.0)])
    def test_peak_memory_per_step(self, method, gate):
        cfg = method_config(method, FRAME, 1.0, t_max=600.0)
        traces = dynamics.noise_traces(cfg, 3, 1)
        tracemalloc.start()
        try:
            traj = integrate(SpinSystem.single((-1, 0, 0)), cfg, traces=traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.spins.shape == (1, cfg.n_steps + 1, 3)
        assert peak / (cfg.n_steps + 1) < gate

    def test_exchange_coupled_pair_conserves_norms(self):
        sys = SpinSystem(spins=np.array([[0.6, 0, 0.8], [-1.0, 0, 0]]),
                         exchange={(0, 1): 0.2 * np.eye(3)})
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=60.0)
        traj = integrate(sys, cfg, seed=17)
        assert traj.max_norm_drift() < 1e-5

    def test_divergence_detected_with_step_index(self):
        bad = LorentzianParams(omega0=50.0, gamma_width=1.0, alpha=1.0)
        cfg = IntegratorConfig(frame=FRAME, bath=bad, dt=0.5, t_max=400.0)
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(SpinSystem.single((-1, 0, 0)), cfg)
        assert err.value.step > 0

    def test_classical_scaling_collapse(self):
        a = method_config("llg-classical", build_unit_frame(10.0, -1.76e11, 1), 1.0,
                          t_max=150.0)
        b = method_config("llg-classical", build_unit_frame(10.0, -1.76e11, 200), 200.0,
                          t_max=150.0)
        ta = integrate(SpinSystem.single((-1, 0, 0)), a, seed=3)
        tb = integrate(SpinSystem.single((-1, 0, 0)), b, seed=3)
        assert np.array_equal(ta.spins, tb.spins)

    def test_noise_margins_follow_bath_memory(self):
        assert method_config("llg-classical", FRAME, 1.0).margin_time == 10.0
        assert method_config("lorentzian-set1", FRAME, 1.0).margin_time == 10.0
        assert method_config("lorentzian-set2", FRAME, 1.0).margin_time == 40.0

    def test_config_builds_its_spectrum_once(self, monkeypatch):
        cfg = method_config("llg-quantum", FRAME, 1.0)
        assert cfg.spectrum == power_spectrum(
            "quantum-ohmic", cfg.bath, 1.0, FRAME, cutoff=DEFAULT_CUTOFF)
        assert method_config("llg-classical", FRAME, 0.0).spectrum is None
        hot = dataclasses.replace(cfg, temperature=5.0)
        assert hot.spectrum.temperature == 5.0 and hot != cfg
        assert "spectrum" not in repr(cfg)

        def never(*args, **kwargs):
            raise AssertionError("a spectrum was built for a run")
        monkeypatch.setattr(dynamics, "power_spectrum", never)
        traces = dynamics.noise_traces(cfg, 3, 2)
        assert [tr.provenance[1] for tr in traces] == [
            cfg.spectrum.describe()] * 2

    def test_short_noise_trace_rejected(self):
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=30.0)
        stub = NoiseTrace(components=np.zeros((3, 10)), dt=cfg.dt,
                          provenance=(None, "stub"))
        with pytest.raises(ConfigurationError):
            integrate(SpinSystem.single((-1, 0, 0)), cfg, traces=[stub])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["dt", "t_max", "temperature", "cutoff"])
    def test_non_finite_config_rejected_by_name(self, name, bad):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            IntegratorConfig(frame=FRAME, bath=OhmicParams(0.02),
                             noise_kind="quantum-ohmic", **{name: bad})

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(frame=FRAME, bath=SET1, dt=-0.1, t_max=1.0)
        with pytest.raises(ParameterError):
            IntegratorConfig(frame=FRAME, bath=SET1, dt=0.15, t_max=0.01)
        with pytest.raises(ConfigurationError,
                           match="quantum-ohmic requires OhmicParams"):
            IntegratorConfig(frame=FRAME, bath=SET1, noise_kind="quantum-ohmic",
                             t_max=1.0)
        with pytest.raises(ConfigurationError, match="quantum-lorentzian "
                           "requires LorentzianParams"):
            IntegratorConfig(frame=FRAME, bath=OhmicParams(0.02),
                             noise_kind="quantum-lorentzian", t_max=1.0)
        with pytest.raises(ParameterError, match="cutoff must be positive"):
            IntegratorConfig(frame=FRAME, bath=SET2, cutoff=-1.0, t_max=1.0,
                             noise_kind="quantum-lorentzian", temperature=1.0)
        # the lead-in alone, 10 time units, is 1e301 samples at this dt
        ohmic = dict(frame=FRAME, bath=OhmicParams(0.02), dt=1e-300,
                     t_max=3e-300)
        with pytest.raises(ParameterError, match="^t_max / dt too large"):
            IntegratorConfig(noise_kind="quantum-ohmic", **ohmic)
        assert IntegratorConfig(**ohmic).n_steps == 3  # no noise, no lead-in
        # the padded trace counts: 3.841e17 steps and a 10-sample lead-in
        # fit one array, but pad to the 5-smooth 3.84434e17, which does not
        # (the bound is 3.84307e17 samples); 3.83e17 pads to 3.84e17
        ohmic.update(dt=1.0, t_max=3.841e17)
        with pytest.raises(ParameterError, match="^t_max / dt too large"):
            IntegratorConfig(noise_kind="quantum-ohmic", **ohmic)
        ohmic["t_max"] = 3.83e17
        assert IntegratorConfig(noise_kind="quantum-ohmic", **ohmic).n_steps \
            == 383_000_000_000_000_000


class TestSingleSteps:
    def test_damped_step_matches_numpy_reference(self):
        s = np.array([-0.6, 0.0, 0.8])
        f = (0.2, -0.1, 1.0)
        assert np.array_equal(llg_step(f, s, 0.5, eta=0.3),
                              reference_llg_step(s, (f,) * 3, 0.5, 0.3))

    def test_step_llg_advances_one_rotation(self):
        traj = single_run(OhmicParams(0.0), t_max=0.1, dt=0.1, spin=(1, 0, 0))
        assert traj.spins[0, 1, 0] == pytest.approx(math.cos(0.1), abs=1e-8)
        assert traj.norms[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_step_lorentzian_builds_memory_field(self):
        traj = single_run(SET2, t_max=0.1, dt=0.1, spin=(1, 0, 0))
        assert np.linalg.norm(traj.aux_v[0, 1]) > 0.0
        assert traj.norms[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_shared_xi_different_spectra_decohere_slowly_when_weak(self):
        # weak-noise regime: same white samples coloured by the two matched
        # spectra give trajectories that track each other
        frame = build_unit_frame(10.0, -1.76e11, 200)
        cfg_l = method_config("lorentzian-set1", frame, 200.0, t_max=50.0)
        cfg_o = method_config("llg-quantum", frame, 200.0, t_max=50.0)
        tl = integrate(SpinSystem.single((-1, 0, 0)), cfg_l, seed=2024)
        to = integrate(SpinSystem.single((-1, 0, 0)), cfg_o, seed=2024)
        assert np.max(np.abs(tl.sz() - to.sz())) < 0.05


def bad_noise_for(seed_to_break, step):
    """noise_traces that sends one seed's field to inf from grid point `step`."""
    real = dynamics.noise_traces

    def patched(cfg, seed, n_sites):
        traces = real(cfg, seed, n_sites)
        if seed == seed_to_break:
            traces[0].components[:, step:] = np.inf
        return traces
    return patched


def member_lanes(width):
    """The array lanes integrate_members runs its members on."""
    return dynamics._member_lanes(np.zeros(width, dtype=np.int64))


class TestLanes:
    @pytest.mark.parametrize("method,temp", [(m, 1.0) for m in METHOD_TAGS]
                             + [("llg-classical", 0.0)])
    def test_members_bit_identical_to_integrate(self, method, temp,
                                                monkeypatch):
        cfg = method_config(method, FRAME, temp, t_max=30.0)
        seeds = [3, 9, 1000, 77]
        for min_lanes in (1, len(seeds) + 1):  # array lanes, then floats
            monkeypatch.setattr(dynamics, "MIN_LANES", min_lanes)
            sz, steps = integrate_members(cfg, seeds, (-1.0, 0.0, 0.0))
            assert sz.shape == (cfg.n_steps + 1, len(seeds))
            assert steps == [0, 0, 0, 0]
            for k, seed in enumerate(seeds):
                one = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=seed)
                assert np.array_equal(sz[:, k], one.sz())

    # Peak bytes allocated per member-step by integrate_members, tracemalloc,
    # numpy 2.4.6, 64 members, 1,000 steps: set2 at 1 K 33.4 with the s_z
    # array beside the (3, n_steps+1, 64) noise buffer, now 25.4 with s_z
    # recorded in the noise rows the kernel has read; llg-classical at 0 K,
    # noiseless, 8.98 (its s_z array alone) both ways.  The rest is one
    # member's noise trace and the kernel's per-lane temporaries.
    @pytest.mark.parametrize("method,temp,gate", [
        ("lorentzian-set2", 1.0, 27.0), ("llg-classical", 0.0, 10.0)])
    def test_lane_batch_peak_memory_per_member_step(self, method, temp,
                                                    gate):
        cfg = method_config(method, FRAME, temp, t_max=150.0)
        width = dynamics.MIN_LANES
        dynamics.noise_traces(cfg, 0, 1)  # first-call imports, untraced
        tracemalloc.start()
        try:
            sz, steps = integrate_members(cfg, list(range(width)),
                                          (-1.0, 0.0, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sz.shape == (cfg.n_steps + 1, width) and not any(steps)
        assert peak / (width * (cfg.n_steps + 1)) < gate

    @given(st.lists(st.floats(-2, 2), min_size=15, max_size=15),
           st.floats(0.01, 0.6), st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_float_and_array_lanes_agree_bitwise(self, vals, h, eta):
        # one step of each bath from an arbitrary s (and V, W) and noise
        s = np.array(vals[0:3])
        norm = np.linalg.norm(s)
        s = s / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])
        state = (s, vals[3:6], vals[6:9])
        noise = [[vals[9 + j], vals[12 + j]] for j in range(3)]

        def step(lanes, lane):
            rec = [[] for _ in range(9)]
            s_, v_, w_ = (tuple(lane(x) for x in q) for q in state)
            noise_ = tuple([lane(x) for x in n] for n in noise)
            next(lorentzian_kernel(s_, v_, w_, noise_, 1, h, SET2, -1.0,
                                   lanes, [r.append for r in rec[:6]]), None)
            next(llg_kernel(s_, noise_, 1, h, eta, -1.0, lanes,
                            [r.append for r in rec[6:]]), None)
            return np.array([np.ravel(r[-1])[0] for r in rec])

        assert np.array_equal(step(FLOAT_LANES, float),
                              step(member_lanes(2), lambda x: np.array([x, x])))

    @given(st.dictionaries(
        st.sampled_from([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]),
        st.lists(st.floats(-2, 2), min_size=9, max_size=9), min_size=1),
        st.lists(st.floats(-1, 1), min_size=18, max_size=18))
    @settings(max_examples=100, deadline=None)
    def test_lockstep_fields_agree_on_lanes_and_with_matmul(self, raw, vals):
        # three sites, anisotropic tensors, some pairs given one-sided; two
        # stage spins per site, as two array lanes and as two float runs
        system = SpinSystem(spins=np.eye(3), exchange={
            pair: np.reshape(j, (3, 3)) for pair, j in raw.items()})
        stage = np.reshape(vals, (2, 3, 3))  # lane, site, component

        def fields(spins, shape=()):
            sent = []

            def site(spin):
                sent.append((yield spin))
            dynamics._lockstep([site(s) for s in spins], system)
            # site, component[, lane]; a site without bonds gets float zeros
            return np.array([[np.broadcast_to(c, shape) for c in f]
                             for f in sent])

        lanes = fields([tuple(stage[:, k].T) for k in range(3)], (2,))
        mat = np.zeros((9, 9))
        for (a, b), j in system.exchange.items():
            mat[a::3, b::3] = j
        for lane, spins in enumerate(stage):
            got = fields([tuple(s) for s in spins.tolist()])
            assert np.array_equal(lanes[:, :, lane], got)
            # the matrix product sums a row in an order (and with fused
            # multiply-adds) that the BLAS build picks; the two sums differ
            # by a few ulp of the sum of the row's |terms| at most
            flat = spins.T.ravel()  # component-major, as mat is laid out
            ref = (mat @ flat).reshape(3, 3).T
            scale = (np.abs(mat) @ np.abs(flat)).reshape(3, 3).T
            assert np.all(np.abs(got - ref) <= 8 * np.finfo(float).eps * scale)

    def test_zero_field_lane_matches_its_float_run(self):
        # lane 0 sits in zero field (it does not move), lane 1 does not
        s = (np.array([1.0, 0.6]), np.array([0.0, 0.0]), np.array([0.0, 0.8]))
        e = (np.array([0.0, 0.3]), np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        out = llg_step(e, s, 0.5, eta=0.1, lanes=member_lanes(2))
        for k in range(2):
            one = llg_step([x[k] for x in e], [x[k] for x in s], 0.5, eta=0.1)
            assert np.array_equal(out[:, k], one)
        assert np.array_equal(out[:, 0], [1.0, 0.0, 0.0])

    def test_diverging_member_reported_with_integrate_step(self, monkeypatch):
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=15.0)
        seeds = [5, 6, 7, 8]
        monkeypatch.setattr(dynamics, "noise_traces", bad_noise_for(7, 40))
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=7)
        step = err.value.step
        for min_lanes in (1, len(seeds) + 1):  # array lanes, then floats
            monkeypatch.setattr(dynamics, "MIN_LANES", min_lanes)
            sz, steps = integrate_members(cfg, seeds, (-1.0, 0.0, 0.0))
            assert steps == [0, 0, step, 0]
            assert np.isfinite(sz[:step, 2]).all()
            assert not np.isfinite(sz[step:, 2]).any()
            for k in (0, 1, 3):
                one = integrate(SpinSystem.single((-1, 0, 0)), cfg,
                                seed=seeds[k])
                assert np.array_equal(sz[:, k], one.sz())

    def test_sites_as_lanes_raise_on_divergence(self, monkeypatch):
        bad = LorentzianParams(omega0=50.0, gamma_width=1.0, alpha=1.0)
        cfg = IntegratorConfig(frame=FRAME, bath=bad, dt=0.5, t_max=40.0)
        spins = np.array([[-1.0, 0, 0], [0, 1.0, 0]])
        pair = SpinSystem(spins=spins)
        coupled = SpinSystem(spins=spins, exchange={(0, 1): 0.2 * np.eye(3)})
        with pytest.raises(IntegrationDivergedError) as one:
            integrate(SpinSystem.single((-1, 0, 0)), cfg)
        assert one.value.step == 6
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(pair, cfg)
        assert err.value.step == one.value.step
        # the exchange field speeds the blow-up of the coupled pair by a step
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(coupled, cfg)
        assert err.value.step == 5
        # one coupled site's field turns infinite from grid point 40
        real = dynamics.noise_traces

        def patched(cfg, seed, n_sites):
            traces = real(cfg, seed, n_sites)
            traces[1].components[:, 40:] = np.inf
            return traces
        monkeypatch.setattr(dynamics, "noise_traces", patched)
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=15.0)
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(coupled, cfg, seed=3)
        assert err.value.step == 40
        assert "step 40" in str(err.value)

    @pytest.mark.parametrize("method", ["llg-quantum", "lorentzian-set2"])
    def test_lockstep_sites_get_their_own_field_and_noise(self, method):
        # sites 0 and 1 are coupled; site 2 is attached by a zero tensor, so
        # it runs in lockstep yet must equal its own single run, and the
        # coupled sites must equal the same pair run without it
        spins = np.array([[-1.0, 0, 0], [0, 1.0, 0], [0.6, 0, 0.8]])
        j = 0.3 * np.eye(3)
        zero = np.zeros((3, 3))
        cfg = method_config(method, FRAME, 1.0, t_max=30.0)
        chain = SpinSystem(spins=spins, exchange={(0, 1): j, (1, 2): zero})
        idle = SpinSystem(spins=spins, exchange={(0, 1): zero, (1, 2): zero})
        pair = integrate(SpinSystem(spins=spins[:2], exchange={(0, 1): j}),
                         cfg, seed=90)
        for system in (chain, idle):
            traj = integrate(system, cfg, seed=90)
            alone = range(3) if system is idle else [2]
            for k in range(3):
                if k in alone:
                    ref = integrate(SpinSystem.single(spins[k]), cfg,
                                    seed=site_seed(90, k))
                    r = 0
                else:
                    ref, r = pair, k
                assert np.array_equal(traj.spins[k], ref.spins[r])
                assert np.array_equal(traj.norms[k], ref.norms[r])
                if ref.aux_v is not None:
                    assert np.array_equal(traj.aux_v[k], ref.aux_v[r])
        assert not np.array_equal(pair.spins[0], integrate(
            SpinSystem.single(spins[0]), cfg, seed=90).spins[0])
