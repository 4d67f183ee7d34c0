import concurrent.futures
import math
import os
import weakref

import numpy as np
import pytest

from spinbath import dynamics, experiments
from spinbath.coupling import DEFAULT_CUTOFF
from spinbath.dynamics import IntegratorConfig, integrate
from spinbath.experiments import (DEFAULT_ETA, DESK_SWEEP_T_MAX, METHOD_TAGS,
                                  STEADY_BLOCK_LENGTH, STEADY_WINDOW_FRACTION,
                                  averaged_steady_state, ensemble_average,
                                  equilibration_time, method_config,
                                  statphys_oracle, temperature_sweep)
from spinbath.model import (HBAR, KB, IntegrationDivergedError,
                            ParameterError, SET1, SET2, SpinSystem,
                            build_unit_frame)
from spinbath.noise import derive_seed

FRAME = build_unit_frame(10.0, -1.76e11, 1)
FRAME200 = build_unit_frame(10.0, -1.76e11, 200)


def record_pools(monkeypatch, cpus):
    """Replace the process pool by one that maps in this process, and the
    CPU count by cpus; returns the list of the pool sizes asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes


# (workers, jobs, CPU count, processes the pool gets or None for no pool)
@pytest.mark.parametrize("workers,n_jobs,cpus,size", [
    (5000, 10, 3, 3), (5000, 2, 3, 2), (2, 10, 3, 2), (5000, 1, 3, None),
    (5000, 0, 3, None), (5000, 10, 1, None), (5000, 10, None, None)])
def test_pool_capped_by_jobs_and_cpus(monkeypatch, workers, n_jobs, cpus,
                                      size):
    sizes = record_pools(monkeypatch, cpus)
    items = [(k,) for k in range(n_jobs)]
    assert list(experiments._pmap(lambda k: -k, items, workers)) == [
        -k for k in range(n_jobs)]
    assert sizes == ([] if size is None else [size])


def forbid_runs(monkeypatch):
    """Make running a member or starting a process pool fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a member ran or a process started")
    monkeypatch.setattr(experiments, "integrate_members", forbidden)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)


class TestStatphysOracle:
    def test_zero_temperature_saturates(self):
        assert statphys_oracle(1, 0.0, FRAME) == 1.0

    def test_at_equivalent_classical_temperature(self):
        # T_cl: the white-noise level equals the zero-point noise at the
        # precession frequency, about 6.7 K at 10 T
        t_cl = HBAR * FRAME.larmor / (2.0 * KB)
        assert t_cl == pytest.approx(6.7, abs=0.1)
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
        # L(x) ~ x/3 for the argument x = n / thermal_ratio
        assert statphys_oracle(1, 1e9, FRAME) == pytest.approx(
            1.0 / (3.0 * FRAME.thermal_ratio(1e9)), rel=1e-6)


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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        forbid_runs(monkeypatch)
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=30.0)
        with pytest.raises(ParameterError, match="workers"):
            ensemble_average(cfg, 2, workers=workers)

    @pytest.mark.parametrize("n", [experiments._MAX_MEMBERS + 1, 10 ** 400],
                             ids=["above-bound", "400-digits"])
    def test_member_counts_bounded_before_any_seed(self, monkeypatch, n):
        forbid_runs(monkeypatch)

        def no_seeds(*args):
            raise AssertionError("a seed list was built")
        monkeypatch.setattr(experiments, "derive_seed", no_seeds)
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=30.0)
        with pytest.raises(ParameterError, match="^n_traj must be"):
            ensemble_average(cfg, n)
        with pytest.raises(ParameterError, match="^n_replicas must be"):
            averaged_steady_state(cfg, n)

    def test_pool_capped_for_a_huge_worker_count(self, monkeypatch):
        sizes = record_pools(monkeypatch, cpus=3)
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=30.0)
        want = ensemble_average(cfg, 2, base_seed=3)
        got = ensemble_average(cfg, 2, base_seed=3, workers=5000)
        assert np.array_equal(got.sz_mean, want.sz_mean)
        assert sizes == [2]  # one per batch of one member

    def test_batches_follow_the_processes_not_the_workers_asked(
            self, monkeypatch):
        sizes = record_pools(monkeypatch, cpus=2)
        batches = []
        real = experiments.integrate_members

        def spy(cfg, seeds, initial_spin):
            batches.append(len(seeds))
            return real(cfg, seeds, initial_spin)
        monkeypatch.setattr(experiments, "integrate_members", spy)
        cfg = method_config("llg-classical", FRAME, 10.0, t_max=3.0)
        n = 256
        two = ensemble_average(cfg, n, base_seed=6, workers=2)
        many = ensemble_average(cfg, n, base_seed=6, workers=5000)
        assert batches == [n // 2] * 4 and sizes == [2, 2]
        assert two.sz_mean.tobytes() == many.sz_mean.tobytes()
        assert two.sz_stderr.tobytes() == many.sz_stderr.tobytes()

    def test_batches_follow_budget_and_workers(self):
        def batches(n_traj, n_steps, workers):
            cfg = method_config("llg-quantum", FRAME, 1.0,
                                t_max=0.15 * n_steps)
            assert cfg.n_steps == n_steps
            return experiments._ensemble_batches(n_traj, cfg, workers)
        assert batches(100, 2011, 1) == [(0, 100)]
        assert batches(100, 2011, 2) == [(0, 50), (50, 100)]
        assert batches(3, 2011, 2) == [(0, 1), (1, 3)]
        assert batches(1, 2011, 2) == [(0, 1)]  # no empty batch
        # 7,952 members' s_z fit the budget at 2,011 steps
        assert batches(7952, 2011, 1) == [(0, 7952)]
        assert batches(7953, 2011, 1) == [(0, 3976), (3976, 7953)]
        assert batches(96, 20944, 1) == [(0, 96)]  # a criterion-2 point
        full = batches(500, 301593, 1)  # the paper's ensemble, full scale
        assert len(full) == 10 and max(b - a for a, b in full) * 8 * (
            301593 + 1) <= experiments.SZ_BLOCK_BUDGET_BYTES

    @pytest.mark.parametrize("temp", [1.0, 0.0])
    def test_batch_width_follows_bytes_per_member_step(self, monkeypatch,
                                                       temp):
        # a batch returns an s_z block of 8 bytes per member-step, with
        # noise or without
        cfg = method_config("llg-classical", FRAME, temp, t_max=300.0)
        assert (cfg.noise_kind is None) == (temp == 0.0)
        member = 8 * (cfg.n_steps + 1)
        for width in (64, 100, 1000):
            for budget, sizes in ((width * member, [width] * 3),
                                  ((width + 1) * member - 1, [width] * 3),
                                  (width * member - 1, [3 * width // 4] * 4)):
                monkeypatch.setattr(experiments, "SZ_BLOCK_BUDGET_BYTES",
                                    budget)
                got = experiments._ensemble_batches(3 * width, cfg, 1)
                assert [b - a for a, b in got] == sizes

    def test_batch_split_does_not_change_the_result(self, monkeypatch):
        cfg = method_config("lorentzian-set2", FRAME, 1.0, t_max=15.0)
        n = 128
        one_batch = ensemble_average(cfg, n, base_seed=4)
        two_batches = ensemble_average(cfg, n, base_seed=4, workers=2)
        monkeypatch.setattr(experiments, "SZ_BLOCK_BUDGET_BYTES",
                            50 * 8 * (cfg.n_steps + 1))
        three_batches = ensemble_average(cfg, n, base_seed=4)
        monkeypatch.setattr(experiments, "SZ_BLOCK_BUDGET_BYTES", 1)
        one_member_batches = ensemble_average(cfg, n, base_seed=4)
        for other in (two_batches, three_batches, one_member_batches):
            assert np.array_equal(other.sz_mean, one_batch.sz_mean)
            assert np.array_equal(other.sz_stderr, one_batch.sz_stderr)
        assert one_batch.n_used == n

    def test_batches_run_as_their_columns_are_consumed(self, monkeypatch):
        cfg = method_config("llg-classical", FRAME, 1.0, t_max=15.0)
        monkeypatch.setattr(experiments, "SZ_BLOCK_BUDGET_BYTES",
                            4 * 8 * (cfg.n_steps + 1))
        log = []
        real = experiments.integrate_members

        def spy(cfg, seeds, initial_spin):
            log.append(("batch", seeds[0]))
            return real(cfg, seeds, initial_spin)
        monkeypatch.setattr(experiments, "integrate_members", spy)
        members = experiments._run_members([(cfg, list(range(12)))],
                                           (-1.0, 0.0, 0.0))
        for i, _ in enumerate(members):
            log.append(("column", i))
        want = []
        for b in range(3):
            want += [("batch", 4 * b)] + [("column", i)
                                          for i in range(4 * b, 4 * b + 4)]
        assert log == want

    @pytest.mark.parametrize("consumer", ["ensemble", "steady state"])
    def test_finished_batch_is_released_before_the_next_runs(self, monkeypatch,
                                                             consumer):
        cfg = method_config("llg-classical", FRAME, 1.0,
                            t_max=15.0 if consumer == "ensemble" else 2100.0)
        monkeypatch.setattr(experiments, "SZ_BLOCK_BUDGET_BYTES",
                            8 * (cfg.n_steps + 1))  # one member per batch
        batches, alive = [], []
        real = experiments.integrate_members

        def spy(cfg, seeds, initial_spin):
            alive.append([ref() is not None for ref in batches])
            sz, steps = real(cfg, seeds, initial_spin)
            batches.append(weakref.ref(sz))
            return sz, steps
        monkeypatch.setattr(experiments, "integrate_members", spy)
        if consumer == "ensemble":
            ensemble_average(cfg, 3, base_seed=2)
        else:
            averaged_steady_state(cfg, 3, base_seed=2)
        assert alive == [[], [False], [False, False]]

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

    def test_divergence_names_replica_and_step(self, monkeypatch):
        cfg = method_config("llg-classical", FRAME, 10.0,
                            t_max=2 * math.pi * 350)
        real = dynamics.noise_traces

        def patched(cfg, seed, n_sites):
            traces = real(cfg, seed, n_sites)
            if seed == 7 ^ (2 << 8):  # replica 2 at base_seed 7
                traces[0].components[:, 40:] = np.inf
            return traces
        monkeypatch.setattr(dynamics, "noise_traces", patched)
        with pytest.raises(IntegrationDivergedError) as err:
            averaged_steady_state(cfg, 4, base_seed=7)
        assert err.value.step == 40
        assert str(err.value) == ("integration diverged at step 40 in "
                                  "steady-state replica 2")


class TestResonantBathOracle:
    """The classical Boltzmann oracle holds for the resonant baths too.  The
    static part of V is parallel to s, so s x V drops it, and the bath's
    reorganisation term is constant on the sphere: with the bath
    integrated out, the stationary density is proportional to
    exp(n s_z / zeta) for any kernel, the density statphys_oracle averages.

    Gate: 4 error bars.  Measured with this test's settings over base seeds
    0-9 (40 runs, numpy 2.4.6): (s_z - oracle) / error had mean +0.1, RMS
    1.1 and largest 2.9 (set2, n = 200, seed 5).  Seed-to-seed spreads of
    s_z - oracle: set1 0.013 (n = 1) and 0.0041 (n = 200); set2 0.010 and
    0.0034.  At seed 0 the pulls are +0.15, +1.31, +0.95 and +0.64.  A
    factor 2 in the classical Lorentzian density would move the oracle by
    0.18 (n = 1) and 0.15 (n = 200), 14 error bars or more, and a factor
    1.25 fails all four points."""

    @pytest.mark.parametrize("bath", [SET1, SET2], ids=["set1", "set2"])
    @pytest.mark.parametrize("n,temp", [(1, 5.0), (200, 200.0)])
    def test_classical_lorentzian_steady_state_matches_oracle(self, bath, n,
                                                              temp):
        frame = build_unit_frame(10.0, -1.76e11, n)
        cfg = IntegratorConfig(frame=frame, bath=bath,
                               noise_kind="classical-lorentzian",
                               temperature=temp, dt=0.15,
                               t_max=DESK_SWEEP_T_MAX)
        value, err = averaged_steady_state(cfg, 96, base_seed=0)
        assert abs(value - statphys_oracle(n, temp, frame)) < 4.0 * err
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_maps_the_member_batches_of_every_point(self, monkeypatch,
                                                         workers):
        methods, temps = ["llg-classical", "llg-quantum"], [1.0, 5.0]
        calls = []
        real = experiments._pmap
        # batches are cut for min(workers, CPU count) processes
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def spy(job, items, workers):
            calls.append((job, list(items), workers))
            return real(job, items, workers)
        monkeypatch.setattr(experiments, "_pmap", spy)
        temperature_sweep(methods, temps, FRAME, dt=1.0, t_max=2000.0,
                          seed=3, n_replicas=3, workers=workers)
        want = []
        for mi, method in enumerate(methods):
            for ti, temp in enumerate(temps):
                cfg = method_config(method, FRAME, temp, dt=1.0, t_max=2000.0)
                seeds = [derive_seed(experiments._sweep_seed(3, mi, ti),
                                     r << 8) for r in range(3)]
                want += [(cfg, seeds[a:b], (-1.0, 0.0, 0.0)) for a, b in
                         experiments._ensemble_batches(3, cfg, workers)]
        assert calls == [(experiments.integrate_members, want, workers)]
        assert len(want) == 4 * workers  # a point's replicas split at 2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        forbid_runs(monkeypatch)
        with pytest.raises(ParameterError, match="workers"):
            temperature_sweep(["llg-classical"], [1.0], FRAME, workers=workers)

    def test_unsorted_or_negative_grids_rejected(self):
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [5.0, 1.0], FRAME)
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [-1.0, 1.0], FRAME)
        with pytest.raises(ParameterError):
            temperature_sweep(["llg-classical"], [], FRAME)

    def test_more_temperatures_than_seed_fields_rejected(self, monkeypatch):
        # the temperature index has 10 bits of the sweep seed; point (0, 1024)
        # would take every replica seed of point (1, 0)
        assert (experiments._sweep_seed(5, 0, 1024)
                == experiments._sweep_seed(5, 1, 0))
        forbid_runs(monkeypatch)
        with pytest.raises(ParameterError, match="at most 1024 temperatures"):
            temperature_sweep(["llg-classical"], np.linspace(0.0, 5.0, 1025),
                              FRAME)

    def test_bad_cutoff_fails_before_any_member(self, monkeypatch):
        with pytest.raises(ParameterError, match="cutoff must be positive"):
            method_config("llg-quantum", FRAME, 1.0, cutoff=-1.0)
        forbid_runs(monkeypatch)
        # the noise-free point at 0 K used to run before the noisy one failed
        with pytest.raises(ParameterError, match="cutoff must be positive"):
            temperature_sweep(["llg-classical"], [0.0, 1.0], FRAME,
                              t_max=2000.0, dt=1.0, cutoff=-1.0, workers=2)

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
    assert (method_config("llg-quantum", FRAME, 1.0).spectrum.cutoff
            == DEFAULT_CUTOFF)
