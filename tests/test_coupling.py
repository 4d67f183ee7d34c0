import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinbath.coupling import (DEFAULT_CUTOFF, fdt_check, fdt_residuals,
                               kernel_moments, lorentzian_coupling,
                               lorentzian_kernel_freq, lorentzian_kernel_time,
                               moment_quadrature_error, ohmic_coupling,
                               power_spectrum, psd_expansion)
from spinbath.model import (ConfigurationError, LorentzianParams, OhmicParams,
                            ParameterError, SET1, SET2, build_unit_frame)

FRAME = build_unit_frame(10.0, -1.76e11, 1)
ETA = SET1.eta_equivalent  # 50/2401


class TestOhmicCoupling:
    def test_zero_at_origin(self):
        assert ohmic_coupling(0.0, 0.02) == 0.0

    def test_closed_form_value(self):
        assert ohmic_coupling(1.0, 0.02) == pytest.approx(math.sqrt(0.04 / math.pi))
        assert ohmic_coupling(1.0, 0.02) == pytest.approx(0.11284, abs=1e-5)

    def test_linearity(self):
        assert ohmic_coupling(2.0, 0.02) == pytest.approx(2 * ohmic_coupling(1.0, 0.02))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ParameterError):
            ohmic_coupling(-1.0, 0.02)


class TestLorentzianCoupling:
    def test_zero_at_origin(self):
        assert lorentzian_coupling(0.0, SET1) == 0.0

    def test_resonance_value(self):
        # at omega = omega0 the denominator reduces to omega0^2 Gamma^2
        expect = math.sqrt(2 * SET2.alpha / (math.pi * SET2.gamma_width))
        assert lorentzian_coupling(SET2.omega0, SET2) == pytest.approx(expect)

    def test_ohmic_approximation_below_half_larmor(self):
        om = np.linspace(1e-4, 0.5, 200)
        c_lor = lorentzian_coupling(om, SET1)
        c_ohm = ohmic_coupling(om, ETA)
        assert np.max(np.abs(c_lor - c_ohm) / c_ohm) < 0.02

    def test_decays_at_high_frequency(self):
        # c ~ sqrt(2 alpha Gamma / pi) / omega well above the resonance
        tail = math.sqrt(2 * SET1.alpha * SET1.gamma_width / math.pi) / 200.0
        assert lorentzian_coupling(200.0, SET1) == pytest.approx(tail, rel=0.01)


class TestKernelTime:
    def test_causality(self):
        assert lorentzian_kernel_time(-1.0, SET1) == 0.0
        assert lorentzian_kernel_time(0.0, SET1) == 0.0

    def test_against_inverse_transform_oracle(self):
        # K(tau) = (2/pi) * int_0^inf Im k(w) sin(w tau) dw, sin-weighted quadrature
        p = SET1
        tau = 0.4

        def im_k(w):
            return (2.0 / math.pi) * lorentzian_kernel_freq(w, p).imag

        oracle, err = quad(im_k, 0.0, 2000.0, weight="sin", wvar=tau, limit=2000)
        assert err < 1e-8
        assert lorentzian_kernel_time(tau, p) == pytest.approx(oracle, abs=1e-4)

    def test_decay_envelope(self):
        t = np.array([1.0, 5.0, 9.0])
        k = np.abs(lorentzian_kernel_time(t, SET2))
        env = SET2.alpha / SET2.omega1 * np.exp(-0.5 * SET2.gamma_width * t)
        assert np.all(k <= env + 1e-15)


class TestKernelMoments:
    def test_first_moment_is_minus_eta(self):
        mom = kernel_moments(SET1)
        assert mom.kappa[0] == pytest.approx(-50.0 / 2401.0, rel=1e-12)
        assert -mom.kappa[0] == pytest.approx(SET1.eta_equivalent, rel=1e-10)

    def test_second_moment_closed_form(self):
        for p in (SET1, SET2):
            mom = kernel_moments(p)
            expect = p.alpha * (p.gamma_width ** 2 - p.omega0 ** 2) / p.omega0 ** 6
            assert mom.kappa[1] == pytest.approx(expect, rel=1e-12)

    def test_inertial_and_decay_times(self):
        m1 = kernel_moments(SET1)
        m2 = kernel_moments(SET2)
        assert m1.tau_in == pytest.approx(24.0 / 245.0, rel=1e-10)   # ~0.098
        assert m2.tau_in == pytest.approx(1.71 / 0.98, rel=1e-10)    # ~1.745
        assert m1.tau_d == pytest.approx(0.4)
        assert m2.tau_d == pytest.approx(4.0)

    def test_tau_in_formula(self):
        for p in (SET1, SET2):
            mom = kernel_moments(p)
            expect = (p.omega0 ** 2 - p.gamma_width ** 2) / (p.omega0 ** 2 * p.gamma_width)
            assert mom.tau_in == pytest.approx(expect, rel=1e-10)

    def test_tau_in_sign_surfaces_for_wide_resonance(self):
        p = LorentzianParams(omega0=1.0, gamma_width=1.5, alpha=0.1)
        assert kernel_moments(p).tau_in < 0.0

    def test_quadrature_oracle_matches_closed_form(self):
        # kappa_m = ((-1)^m / m!) * int tau^m K(tau)
        for p in (SET1, SET2):
            assert moment_quadrature_error(p) < 1e-6

    def test_max_m_validated(self):
        with pytest.raises(ParameterError):
            kernel_moments(SET1, max_m=1)


class TestFdtIdentity:
    def test_standard_baths(self):
        res = fdt_residuals()
        assert list(res) == ["set1", "set2", "ohmic"]
        assert max(res.values()) < 1e-10

    def test_mismatched_parameters_fail_loudly(self):
        res = fdt_check(lambda w: lorentzian_coupling(w, SET1),
                        lambda w: lorentzian_kernel_freq(w, SET2).imag)
        assert res > 0.1


class TestPowerSpectrum:
    def test_classical_ohmic_is_white(self):
        psd = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        om = np.linspace(-15, 15, 301)
        vals = psd(om)
        assert np.ptp(vals) == 0.0
        assert vals[0] > 0

    def test_quantum_ohmic_zero_temperature_is_linear(self):
        psd = power_spectrum("quantum-ohmic", OhmicParams(ETA), 0.0, FRAME,
                             cutoff=DEFAULT_CUTOFF)
        om = np.linspace(0.1, 9.5, 50)
        np.testing.assert_allclose(psd(om), ETA * om, rtol=1e-12)
        assert psd(11.0) == 0.0  # beyond the cutoff

    def test_quantum_lorentzian_low_frequency_matches_white_level(self):
        # high T, omega -> 0: ratio to the white level -> 1 when eta = alpha*Gamma/omega0^4
        lor = power_spectrum("quantum-lorentzian", SET1, 200.0, FRAME)
        cls = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        assert lor(1e-3) / cls(1e-3) == pytest.approx(1.0, abs=1e-4)

    def test_high_temperature_limit_all_kinds(self):
        # quantum/classical -> 1 when kB T / (hbar w_L w) = 100, within 0.01%
        zeta = FRAME.thermal_ratio(200.0)
        om = zeta / 200.0
        q_o = power_spectrum("quantum-ohmic", OhmicParams(ETA), 200.0, FRAME, cutoff=50.0)
        c_o = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        assert q_o(om) / c_o(om) == pytest.approx(1.0, abs=1e-4)
        q_l = power_spectrum("quantum-lorentzian", SET2, 200.0, FRAME)
        c_l = power_spectrum("classical-lorentzian", SET2, 200.0, FRAME)
        assert q_l(om) / c_l(om) == pytest.approx(1.0, abs=1e-4)

    @given(st.floats(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_nonnegativity(self, om):
        for psd in (
            power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME),
            power_spectrum("classical-lorentzian", SET2, 5.0, FRAME),
            power_spectrum("quantum-ohmic", OhmicParams(ETA), 1.0, FRAME, cutoff=10.0),
        ):
            assert psd(om) >= 0.0
            assert psd(-om) == pytest.approx(psd(om), rel=1e-12)

    def test_quantum_lorentzian_high_frequency_decay(self):
        # ~ omega^-3 at large omega: doubling omega cuts the density ~8x
        psd = power_spectrum("quantum-lorentzian", SET1, 1.0, FRAME)
        assert psd(400.0) / psd(800.0) == pytest.approx(8.0, rel=0.02)

    def test_trace_density_scales_with_halfspin_count(self):
        f1 = build_unit_frame(10.0, -1.76e11, 1)
        f4 = build_unit_frame(10.0, -1.76e11, 4)
        p1 = power_spectrum("quantum-lorentzian", SET2, 1.0, f1)
        p4 = power_spectrum("quantum-lorentzian", SET2, 1.0, f4)
        assert p1.trace_density(1.3) == pytest.approx(4 * p4.trace_density(1.3))
        assert p1.trace_density(1.3) == pytest.approx(2 * p1(1.3))

    def test_classical_trace_density_collapses_bitwise_on_t_over_n(self):
        a = power_spectrum("classical-ohmic", OhmicParams(ETA), 1.0,
                           build_unit_frame(10.0, -1.76e11, 1))
        b = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0,
                           build_unit_frame(10.0, -1.76e11, 200))
        om = np.linspace(-20, 20, 101)
        assert np.array_equal(a.trace_density(om), b.trace_density(om))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["temperature", "cutoff"])
    def test_non_finite_rejected_by_name(self, name, bad):
        kwargs = dict(temperature=1.0, cutoff=10.0)
        kwargs[name] = bad
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            power_spectrum("quantum-ohmic", OhmicParams(ETA), frame=FRAME,
                           **kwargs)

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            power_spectrum("classical-ohmic", OhmicParams(ETA), -1.0, FRAME)
        with pytest.raises(ConfigurationError):
            power_spectrum("quantum-ohmic", OhmicParams(ETA), 1.0, FRAME)
        with pytest.raises(ConfigurationError):
            power_spectrum("quantum-ohmic", SET1, 1.0, FRAME, cutoff=10.0)
        with pytest.raises(ConfigurationError):
            power_spectrum("white", OhmicParams(ETA), 1.0, FRAME)


class TestPsdExpansion:
    def test_leading_order_is_ohmic_form(self):
        mom = kernel_moments(SET2)
        for om in (0.05, 0.2, 0.4):
            lead = psd_expansion(SET2, 0, om, 200.0, FRAME)
            zeta = FRAME.thermal_ratio(200.0)
            expect = -mom.kappa[0] * om / math.tanh(om / zeta)
            assert lead == pytest.approx(expect, rel=1e-12)

    def test_order_three_accuracy_at_low_frequency(self):
        exact = power_spectrum("quantum-lorentzian", SET2, 200.0, FRAME)(0.1)
        approx = psd_expansion(SET2, 3, 0.1, 200.0, FRAME)
        assert abs(approx - exact) / exact < 0.01

    def test_even_orders_add_nothing(self):
        for om in (0.1, 0.3):
            assert psd_expansion(SET2, 2, om, 100.0, FRAME) == \
                psd_expansion(SET2, 1, om, 100.0, FRAME)
            assert psd_expansion(SET2, 4, om, 100.0, FRAME) == \
                psd_expansion(SET2, 3, om, 100.0, FRAME)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            psd_expansion(SET2, -1, 0.1, 100.0, FRAME)


def test_ohmic_limit_of_lorentzian_coupling_is_monotone():
    # scale omega0 up holding eta fixed: sup relative deviation from the
    # ohmic coupling over [0, 2.5] must shrink monotonically
    om = np.linspace(1e-3, 2.5, 400)
    sups = []
    for scale in (1.0, 10.0, 100.0):
        w0 = 7.0 * scale
        p = LorentzianParams(omega0=w0, gamma_width=5.0,
                             alpha=ETA * w0 ** 4 / 5.0)
        c_l = lorentzian_coupling(om, p)
        c_o = ohmic_coupling(om, ETA)
        sups.append(float(np.max(np.abs(c_l - c_o) / c_o)))
    assert sups[0] > sups[1] > sups[2]
