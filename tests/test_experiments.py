import math

import numpy as np
import pytest

from spinbath import dynamics, experiments
from spinbath.dynamics import integrate
from spinbath.experiments import (DEFAULT_ETA, METHOD_TAGS,
                                  STEADY_BLOCK_LENGTH, STEADY_WINDOW_FRACTION,
                                  averaged_steady_state, ensemble_average,
                                  equilibration_time,
                                  equivalent_classical_temperature,
                                  method_config, statphys_oracle,
                                  temperature_sweep)
from spinbath.model import (IntegrationDivergedError, ParameterError, SET1,
                            SpinSystem, build_unit_frame)

FRAME = build_unit_frame(10.0, -1.76e11, 1)
FRAME200 = build_unit_frame(10.0, -1.76e11, 200)


class TestStatphysOracle:
    def test_zero_temperature_saturates(self):
        assert statphys_oracle(1, 0.0, FRAME) == 1.0

    def test_at_equivalent_classical_temperature(self):
        t_cl = equivalent_classical_temperature(FRAME)
        # argument becomes exactly n at T_cl
        assert statphys_oracle(1, t_cl, FRAME) == pytest.approx(
            1.0 / math.tanh(1.0) - 1.0, rel=1e-9)
        assert statphys_oracle(5, t_cl, FRAME) == pytest.approx(
            1.0 / math.tanh(5.0) - 0.2, rel=1e-9)
        assert statphys_oracle(5, t_cl, FRAME) == pytest.approx(0.800, abs=1e-3)
        assert statphys_oracle(200, t_cl, FRAME) == pytest.approx(0.995, abs=1e-3)

    def test_monotone_decreasing_in_temperature(self):
        temps = [0.0, 0.5, 2.0, 10.0, 50.0, 300.0]
        vals = [statphys_oracle(1, t, FRAME) for t in temps]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_small_argument_series(self):
        assert statphys_oracle(1, 1e9, FRAME) == pytest.approx(
            FRAME.boltzmann_argument(1e9) / 3.0, rel=1e-6)


class TestEquivalentClassicalTemperature:
    def test_ten_tesla_value(self):
        assert equivalent_classical_temperature(FRAME) == pytest.approx(6.7, abs=0.1)

    def test_linear_in_field(self):
        t10 = equivalent_classical_temperature(FRAME)
        t20 = equivalent_classical_temperature(build_unit_frame(20.0, -1.76e11, 1))
        t1 = equivalent_classical_temperature(build_unit_frame(1.0, -1.76e11, 1))
        assert t20 == pytest.approx(2 * t10, rel=1e-12)
        assert t1 == pytest.approx(t10 / 10, rel=1e-12)


class TestEnsembleAverage:
    def test_zero_noise_ensemble_has_zero_spread(self):
        cfg = method_config("llg-classical", FRAME, 0.0, t_max=30.0)
        res = ensemble_average(cfg, 8, base_seed=1)
        assert np.all(res.sz_stderr == 0.0)
        single = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=0)
        np.testing.assert_allclose(res.sz_mean, single.sz(), atol=1e-14)

    def test_requires_at_least_two_members(self):
        cfg = method_config("llg-classical", FRAME, 1.0, t_max=30.0)
        with pytest.raises(ParameterError):
            ensemble_average(cfg, 1)

    def test_stderr_scales_as_inverse_sqrt_members(self):
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=30.0)
        small = ensemble_average(cfg, 125, base_seed=7)
        large = ensemble_average(cfg, 500, base_seed=7)
        late = slice(len(small.times) // 2, None)
        ratio = small.sz_stderr[late].mean() / large.sz_stderr[late].mean()
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_workers_do_not_change_the_result(self):
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=30.0)
        a = ensemble_average(cfg, 6, base_seed=3, workers=1)
        b = ensemble_average(cfg, 6, base_seed=3, workers=2)
        assert np.array_equal(a.sz_mean, b.sz_mean)

    def test_batches_follow_budget_and_workers(self):
        batches = experiments._ensemble_batches
        assert batches(100, 2011, 1) == [(0, 100)]
        assert batches(100, 2011, 2) == [(0, 50), (50, 100)]
        assert batches(600, 2011, 1) == [(0, 200), (200, 400), (400, 600)]
        assert len(batches(500, 301593, 1)) == 500  # full scale: floats

    def test_batch_split_does_not_change_the_result(self, monkeypatch):
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=15.0)
        n = 2 * dynamics.MIN_LANES
        one_batch = ensemble_average(cfg, n, base_seed=4)
        two_batches = ensemble_average(cfg, n, base_seed=4, workers=2)
        monkeypatch.setattr(dynamics, "MIN_LANES", n + 1)
        floats = ensemble_average(cfg, n, base_seed=4)
        monkeypatch.setattr(dynamics, "MIN_LANES", 8)
        monkeypatch.setattr(experiments, "LANE_BUDGET_BYTES",
                            50 * 32 * (cfg.n_steps + 1))
        three_batches = ensemble_average(cfg, n, base_seed=4)
        for other in (two_batches, floats, three_batches):
            assert np.array_equal(other.sz_mean, one_batch.sz_mean)
            assert np.array_equal(other.sz_stderr, one_batch.sz_stderr)
        assert one_batch.n_used == n

    def test_divergence_names_first_member_and_step(self, monkeypatch):
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=15.0)
        real = dynamics.noise_traces

        def patched(cfg, seed, n_sites):
            traces = real(cfg, seed, n_sites)
            if seed in (3, 90):  # members 3 and 90 at base_seed 0
                traces[0].components[:, 40:] = np.inf
            return traces
        monkeypatch.setattr(dynamics, "noise_traces", patched)
        with pytest.warns(UserWarning):
            res = ensemble_average(cfg, 200, base_seed=0)
        assert res.diverged == [(3, 40), (90, 40)]
        assert res.n_used == 198
        with pytest.warns(UserWarning), \
                pytest.raises(IntegrationDivergedError) as err:
            ensemble_average(cfg, 100, base_seed=0)  # members 3 and 90
        assert isinstance(err.value, RuntimeError)
        assert err.value.step == 40
        assert "step 40 in ensemble member 3" in str(err.value)

    def test_classical_relaxation_plateau(self):
        cfg = method_config("llg-classical", FRAME, 1.0, t_max=300.0)
        res = ensemble_average(cfg, 100, base_seed=11)
        plateau = res.sz_mean[3 * len(res.sz_mean) // 4:].mean()
        assert plateau == pytest.approx(statphys_oracle(1, 1.0, FRAME), abs=0.05)

    def test_quantum_noise_depletes_the_plateau(self):
        cfg = method_config("llg-quantum", FRAME, 1.0, t_max=300.0)
        res = ensemble_average(cfg, 100, base_seed=12)
        plateau = res.sz_mean[3 * len(res.sz_mean) // 4:].mean()
        assert 0.18 < plateau < 0.38


class TestSteadyState:
    def test_matches_oracle_with_replica_averaging(self):
        cfg = method_config("llg-classical", FRAME, 1.0, t_max=2 * math.pi * 500)
        value, err = averaged_steady_state(cfg, 8, base_seed=5)
        assert value == pytest.approx(statphys_oracle(1, 1.0, FRAME), abs=3 * err)

    def test_window_must_hold_ten_blocks(self, monkeypatch):
        def never(*args):
            raise AssertionError("ran before the averaging window was checked")
        monkeypatch.setattr(experiments, "integrate_members", never)
        cfg = method_config("llg-classical", FRAME, 1.0, t_max=300.0)
        with pytest.raises(ParameterError, match="only 1 blocks"):
            averaged_steady_state(cfg, 1)  # 75-unit window < 10 blocks of 50
        monkeypatch.setattr(experiments, "_pmap", never)
        with pytest.raises(ParameterError, match="only 1 blocks"):
            temperature_sweep(["llg-classical"], [1.0, 5.0], FRAME,
                              t_max=300.0, workers=2)

    def test_deterministic_given_seed(self):
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=2 * math.pi * 350)
        assert (averaged_steady_state(cfg, 1, base_seed=9)
                == averaged_steady_state(cfg, 1, base_seed=9))

    def test_one_replica_averages_the_trailing_window_of_its_run(self):
        cfg = method_config("lorentzian-set2", FRAME, 1.0,
                            t_max=2 * math.pi * 350)
        sz = integrate(SpinSystem.single((-1, 0, 0)), cfg, seed=9).sz()
        start = math.ceil((1.0 - STEADY_WINDOW_FRACTION) * cfg.t_max / cfg.dt)
        block = round(STEADY_BLOCK_LENGTH / cfg.dt)
        n_blocks = (len(sz) - start) // block
        window = sz[len(sz) - n_blocks * block:]
        blocks = window.reshape(n_blocks, block).mean(axis=1)
        value, err = averaged_steady_state(cfg, 1, base_seed=9)
        assert value == window.mean()
        assert err == np.std(blocks, ddof=1) / math.sqrt(n_blocks)

    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_lane_path_does_not_change_the_result(self, monkeypatch,
                                                  n_replicas):
        cfg = method_config("lorentzian-set1", FRAME, 1.0,
                            t_max=2 * math.pi * 350)
        floats = averaged_steady_state(cfg, n_replicas, base_seed=2)
        monkeypatch.setattr(dynamics, "MIN_LANES", 1)
        assert averaged_steady_state(cfg, n_replicas, base_seed=2) == floats

    @pytest.mark.parametrize("min_lanes", [1, 64])
    def test_divergence_names_replica_and_step(self, monkeypatch, min_lanes):
        cfg = method_config("llg-classical", FRAME, 10.0,
                            t_max=2 * math.pi * 350)
        real = dynamics.noise_traces

        def patched(cfg, seed, n_sites):
            traces = real(cfg, seed, n_sites)
            if seed == 7 ^ (2 << 8):  # replica 2 at base_seed 7
                traces[0].components[:, 40:] = np.inf
            return traces
        monkeypatch.setattr(dynamics, "noise_traces", patched)
        monkeypatch.setattr(dynamics, "MIN_LANES", min_lanes)
        with pytest.raises(IntegrationDivergedError) as err:
            averaged_steady_state(cfg, 4, base_seed=7)
        assert err.value.step == 40
        assert str(err.value) == ("integration diverged at step 40 in "
                                  "steady-state replica 2")


class TestEquilibrationTime:
    def test_identical_traces_give_identical_times(self):
        t = np.linspace(0.0, 100.0, 500)
        m = np.tanh(0.05 * t)
        assert equilibration_time(t, m) == equilibration_time(t, m.copy())

    def test_deterministic_decay_matches_tanh_law(self):
        cfg = method_config("llg-classical", FRAME, 0.0, t_max=400.0)
        res = ensemble_average(cfg, 2, base_seed=0)
        t_eq = equilibration_time(res.times, res.sz_mean, band=0.05)
        lam = DEFAULT_ETA / (1 + DEFAULT_ETA ** 2)
        plateau = np.tanh(lam * res.times[3 * len(res.times) // 4:]).mean()
        expect = math.atanh(0.95 * plateau) / lam
        assert t_eq == pytest.approx(expect, rel=0.1)

    def test_never_settling_trace_reports_final_time(self):
        t = np.linspace(0.0, 10.0, 200)
        m = np.sin(3.0 * t)  # oscillates forever around a zero plateau
        assert equilibration_time(t, m) == t[-1]

    def test_non_markovian_bath_equilibrates_faster(self):
        # band wide enough (10%) that the finite-ensemble noise of the mean
        # (sigma_z / sqrt(n) ~ 0.02 here) cannot masquerade as an excursion
        r = {}
        for method in ("lorentzian-set1", "lorentzian-set2"):
            cfg = method_config(method, FRAME200, 200.0, t_max=2 * math.pi * 48)
            res = ensemble_average(cfg, 60, base_seed=21)
            r[method] = equilibration_time(res.times, res.sz_mean, band=0.10)
        assert r["lorentzian-set2"] / r["lorentzian-set1"] < 0.8


class TestTemperatureSweep:
    def test_rescaled_curve_starts_at_unity(self):
        out = temperature_sweep(["llg-classical"], [0.0, 200.0], FRAME200,
                                t_max=2 * math.pi * 350, seed=3)
        assert out[0].rescaled[0] == 1.0
        assert out[0].sz_mean[0] == pytest.approx(1.0, abs=1e-6)

    def test_no_rescaling_without_zero_temperature(self):
        out = temperature_sweep(["llg-classical"], [1.0, 200.0], FRAME200,
                                t_max=2 * math.pi * 350, seed=3)
        assert out[0].rescaled is None

    def test_monotone_decrease_with_temperature(self):
        out = temperature_sweep(["llg-classical"], [1.0, 50.0, 200.0], FRAME200,
                                t_max=2 * math.pi * 500, seed=4, n_replicas=2)
        vals = out[0].sz_mean
        errs = out[0].sz_stderr
        assert vals[0] > vals[1] - 3 * (errs[0] + errs[1])
        assert vals[1] > vals[2] - 3 * (errs[1] + errs[2])
        assert vals[0] > vals[2]

    def test_quantum_method_is_monotone_in_temperature(self):
        out = temperature_sweep(["llg-quantum"], [0.0, 25.0, 200.0], FRAME,
                                t_max=2 * math.pi * 500, seed=9, n_replicas=4)[0]
        vals = out.sz_mean
        errs = out.sz_stderr
        assert vals[0] > vals[1] - 3 * (errs[0] + errs[1])
        assert vals[1] > vals[2] - 3 * (errs[1] + errs[2])
        assert vals[0] > vals[2]

    def test_quantum_statistics_flatten_the_rescaled_curve(self):
        temps = [0.0, 5.0]
        q = temperature_sweep(["llg-quantum"], temps, FRAME,
                              t_max=2 * math.pi * 500, seed=6, n_replicas=6)[0]
        c = temperature_sweep(["llg-classical"], temps, FRAME,
                              t_max=2 * math.pi * 500, seed=6, n_replicas=6)[0]
        assert q.rescaled[1] > c.rescaled[1] + 0.2

    def test_workers_do_not_change_the_result(self):
        kwargs = dict(t_max=2 * math.pi * 350, seed=5, n_replicas=2)
        methods = ["llg-quantum", "lorentzian-set1"]
        one = temperature_sweep(methods, [0.0, 25.0], FRAME, workers=1,
                                **kwargs)
        two = temperature_sweep(methods, [0.0, 25.0], FRAME, workers=2,
                                **kwargs)
        for a, b in zip(one, two):
            assert np.array_equal(a.sz_mean, b.sz_mean)
            assert np.array_equal(a.sz_stderr, b.sz_stderr)
            assert np.array_equal(a.rescaled, b.rescaled)

    def test_unsorted_or_negative_grids_rejected(self):
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [5.0, 1.0], FRAME)
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [-1.0, 1.0], FRAME)
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [], FRAME)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            method_config("llg-heun", FRAME, 1.0)


def test_method_tags_cover_the_standard_matrix():
    kinds = {m: method_config(m, FRAME, 1.0).noise_kind for m in METHOD_TAGS}
    assert kinds == {
        "llg-classical": "classical-ohmic",
        "llg-quantum": "quantum-ohmic",
        "lorentzian-set1": "quantum-lorentzian",
        "lorentzian-set2": "quantum-lorentzian",
    }
    assert method_config("llg-classical", FRAME, 0.0).noise_kind is None
    assert isinstance(method_config("lorentzian-set1", FRAME, 1.0).bath,
                      type(SET1))
    assert method_config("llg-quantum", FRAME, 1.0).effective_cutoff == 10.0
