import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.model import (GAMMA_ELECTRON, IntegrationDivergedError,
                            LorentzianParams, OhmicParams, ParameterError,
                            SET1, SET2, SpinSystem, build_unit_frame,
                            symmetrize_exchange)


class TestUnitFrame:
    def test_larmor_10T_electron(self):
        frame = build_unit_frame(10.0, -1.76e11, 1)
        assert frame.larmor == pytest.approx(1.76e12)
        # inverse Larmor time ~ 0.57 ps
        assert frame.t_si(1.0) == pytest.approx(0.57e-12, rel=0.01)

    def test_larmor_independent_of_spin_length(self):
        a = build_unit_frame(10.0, -1.76e11, 1)
        b = build_unit_frame(10.0, -1.76e11, 200)
        assert a.larmor == b.larmor
        assert b.s0_si == pytest.approx(200 * a.s0_si)

    def test_larmor_linear_in_field(self):
        assert build_unit_frame(1.0, -1.76e11, 1).larmor == pytest.approx(1.76e11)

    def test_sign_gamma(self):
        assert build_unit_frame(10.0, -1.76e11, 1).sign_gamma == -1.0
        assert build_unit_frame(10.0, +1.76e11, 1).sign_gamma == +1.0

    @pytest.mark.parametrize("bad", [
        dict(b_ext_tesla=0.0), dict(b_ext_tesla=-2.0),
        dict(gamma_si=0.0), dict(n_half_hbar=0), dict(n_half_hbar=-3),
    ])
    def test_invalid_parameters(self, bad):
        kwargs = dict(b_ext_tesla=10.0, gamma_si=GAMMA_ELECTRON, n_half_hbar=1)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            build_unit_frame(**kwargs)

    @given(b=st.floats(1e-3, 1e3), g=st.floats(1e9, 1e13),
           t=st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_time_roundtrip(self, b, g, t):
        frame = build_unit_frame(b, -g, 1)
        assert frame.t_unitfree(frame.t_si(t)) == pytest.approx(t, rel=1e-12)
        assert frame.field_unitfree(frame.field_si(t)) == pytest.approx(t, rel=1e-12)

    def test_thermal_ratio_collapses_on_t_over_n(self):
        a = build_unit_frame(10.0, -1.76e11, 1)
        b = build_unit_frame(10.0, -1.76e11, 200)
        assert a.thermal_ratio_per_halfspin(1.0) == b.thermal_ratio_per_halfspin(200.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ParameterError):
            build_unit_frame(10.0, -1.76e11, 1).thermal_ratio(-1.0)


class TestBathParams:
    def test_presets_pin_published_values(self):
        assert (SET1.omega0, SET1.gamma_width, SET1.alpha) == (7.0, 5.0, 10.0)
        assert (SET2.omega0, SET2.gamma_width, SET2.alpha) == (1.4, 0.5, 0.16)

    def test_shared_effective_damping(self):
        assert SET1.eta_equivalent == pytest.approx(50.0 / 2401.0, rel=1e-12)
        assert SET2.eta_equivalent == pytest.approx(50.0 / 2401.0, rel=1e-12)

    def test_decay_times(self):
        assert SET1.tau_d == pytest.approx(0.4)
        assert SET2.tau_d == pytest.approx(4.0)

    def test_omega1(self):
        assert SET2.omega1 == pytest.approx(math.sqrt(1.96 - 0.0625))

    def test_overdamped_resonance_rejected(self):
        with pytest.raises(ParameterError):
            LorentzianParams(omega0=1.0, gamma_width=2.5, alpha=0.1)

    def test_wide_resonance_between_omega0_and_2omega0_allowed(self):
        # tau_in goes negative here but the kernel stays oscillatory
        p = LorentzianParams(omega0=1.0, gamma_width=1.5, alpha=0.1)
        assert p.omega1 > 0

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(ParameterError):
            OhmicParams(eta=-0.1)
        with pytest.raises(ParameterError):
            LorentzianParams(omega0=1.0, gamma_width=0.5, alpha=-1.0)

    def test_decoupled_limits_allowed(self):
        assert OhmicParams(eta=0.0).eta == 0.0
        assert LorentzianParams(1.0, 0.5, 0.0).alpha == 0.0


class TestSymmetrizeExchange:
    def test_missing_partner_counts_as_zero(self):
        out = symmetrize_exchange({(0, 1): np.eye(3)})
        np.testing.assert_allclose(out[(0, 1)], np.eye(3) / 2)
        np.testing.assert_allclose(out[(1, 0)], np.eye(3) / 2)

    def test_symmetric_pair_is_fixed_point(self):
        t = np.arange(9.0).reshape(3, 3)
        out = symmetrize_exchange({(0, 1): t, (1, 0): t.T})
        np.testing.assert_allclose(out[(0, 1)], t)
        np.testing.assert_allclose(out[(1, 0)], t.T)

    @given(st.lists(st.floats(-5, 5), min_size=18, max_size=18))
    @settings(max_examples=100, deadline=None)
    def test_output_pair_transposes(self, vals):
        a = np.array(vals[:9]).reshape(3, 3)
        b = np.array(vals[9:]).reshape(3, 3)
        out = symmetrize_exchange({(0, 1): a, (1, 0): b})
        np.testing.assert_allclose(out[(0, 1)], out[(1, 0)].T, atol=1e-12)
        np.testing.assert_allclose(out[(0, 1)], 0.5 * (a + b.T), atol=1e-12)

    def test_self_exchange_rejected(self):
        with pytest.raises(ParameterError):
            symmetrize_exchange({(2, 2): np.eye(3)})


class TestSpinSystem:
    def test_single_normalizes_direction(self):
        sys = SpinSystem.single((-2.0, 0.0, 0.0))
        np.testing.assert_allclose(sys.spins, [[-1.0, 0.0, 0.0]])
        np.testing.assert_allclose(sys.aux_v, 0.0)
        np.testing.assert_allclose(sys.aux_w, 0.0)

    def test_non_unit_spins_rejected(self):
        with pytest.raises(ParameterError):
            SpinSystem(spins=np.array([[0.5, 0.0, 0.0]]))

    def test_exchange_symmetrized_at_construction(self):
        j = np.arange(9.0).reshape(3, 3)
        sys = SpinSystem(spins=np.array([[0, 0, 1.0], [1.0, 0, 0]]),
                         exchange={(0, 1): j})
        np.testing.assert_allclose(sys.exchange[(0, 1)], j / 2)
        np.testing.assert_allclose(sys.exchange[(1, 0)], j.T / 2)

    def test_exchange_site_bounds_checked(self):
        with pytest.raises(ParameterError):
            SpinSystem(spins=np.array([[0, 0, 1.0]]), exchange={(0, 1): np.eye(3)})

    def test_copy_is_deep(self):
        sys = SpinSystem.single((0, 0, 1.0))
        other = sys.copy()
        other.spins[0, 0] = 5.0
        assert sys.spins[0, 0] == 0.0


class TestIntegrationDivergedError:
    @pytest.mark.parametrize("message", [
        "", "integration diverged at step 26 in steady-state replica 3"])
    def test_pickle_round_trip(self, message):
        # process pools pickle exceptions raised in their workers
        err = IntegrationDivergedError(26, message)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is IntegrationDivergedError
        assert back.step == 26
        assert str(back) == str(err)
        assert str(back) == (message or "integration diverged at step 26")
