import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinbath.coupling import power_spectrum
from spinbath.dynamics import noise_traces
from spinbath.experiments import (DESK_ENSEMBLE_T_MAX, DESK_SWEEP_T_MAX,
                                  METHOD_TAGS, method_config)
from spinbath.model import OhmicParams, ParameterError, SET1, SET2, build_unit_frame
from spinbath.noise import (WhiteSeed, _amplitude, _fast_length, colour,
                            coloured_trace, derive_seed, site_seed, trace_for_run,
                            welch_density, white_gaussian)

FRAME = build_unit_frame(10.0, -1.76e11, 1)
ETA = SET1.eta_equivalent
DT = 0.15


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join((src, path))}


def banded(omega, values, width=0.1):
    nb = max(1, int(round(width / (omega[1] - omega[0]))))
    m = (len(omega) // nb) * nb
    return (omega[:m].reshape(-1, nb).mean(axis=1),
            values[:m].reshape(-1, nb).mean(axis=1))


def colour_whole_array(white, psd, dt):
    """irfft(amp * rfft(xi)) on all three rows at once."""
    n = white.shape[1]
    amp = np.sqrt(psd.trace_density(2.0 * math.pi * np.fft.rfftfreq(n, d=dt)))
    return np.fft.irfft(amp * np.fft.rfft(white, axis=1), n, axis=1)


def colour_reference(white, psd, dt):
    """Complex-transform colouring, ifft(amp * fft(xi)) over the whole
    frequency grid, kept as an independent oracle."""
    omega = 2.0 * math.pi * np.fft.fftfreq(white.shape[1], d=dt)
    amp = np.sqrt(psd.trace_density(omega))
    return np.fft.ifft(amp * np.fft.fft(white, axis=1), axis=1).real


# Every spectrum kind; quantum-ohmic cut at the Nyquist frequency and inside
# the band, where its hard cutoff zeroes part of the filter.
SPECTRA = [("classical-ohmic", OhmicParams(ETA), 200.0, None),
           ("quantum-ohmic", OhmicParams(ETA), 1.0, math.pi / DT),
           ("quantum-ohmic", OhmicParams(ETA), 1.0, 10.0),
           ("quantum-lorentzian", SET1, 1.0, None),
           ("quantum-lorentzian", SET2, 0.0, None),
           ("classical-lorentzian", SET2, 5.0, None)]


class TestWhiteGaussian:
    def test_per_sample_variance_is_inverse_dt(self):
        ws = WhiteSeed(seed=7, n_samples=10 ** 6 // 3, dt=DT)
        xi = white_gaussian(ws)
        assert xi.var() == pytest.approx(1.0 / DT, rel=0.01)

    def test_deterministic_given_seed(self):
        ws = WhiteSeed(seed=123456789, n_samples=4096, dt=DT)
        assert np.array_equal(white_gaussian(ws), white_gaussian(ws))

    def test_rows_equal_one_whole_block_draw(self):
        # the white stream is one standard_normal((3, n)) draw from a Philox
        # generator keyed by the seed
        ws = WhiteSeed(seed=99, n_samples=4099, dt=DT)
        rng = np.random.Generator(np.random.Philox(key=ws.seed))
        block = rng.standard_normal((3, ws.n_samples))
        block /= math.sqrt(DT)
        assert np.array_equal(white_gaussian(ws), block)

    def test_distinct_seeds_decorrelated(self):
        a = white_gaussian(WhiteSeed(seed=1, n_samples=65536, dt=DT))
        b = white_gaussian(WhiteSeed(seed=2, n_samples=65536, dt=DT))
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 0.01

    def test_lag_one_autocorrelation_vanishes(self):
        xi = white_gaussian(WhiteSeed(seed=5, n_samples=10 ** 6 // 3, dt=DT))
        x = xi.ravel()
        r1 = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
        assert abs(r1) < 0.005

    def test_too_few_samples_rejected(self):
        with pytest.raises(ParameterError):
            WhiteSeed(seed=0, n_samples=1, dt=DT)
        with pytest.raises(ParameterError):
            WhiteSeed(seed=0, n_samples=16, dt=0.0)


class TestColour:
    def test_flat_spectrum_rescales_white_noise(self):
        psd = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        ws = WhiteSeed(seed=21, n_samples=2 ** 20, dt=DT)
        trace = coloured_trace(ws, psd)
        expect = psd.trace_density(0.0) / DT
        assert trace.components.var() == pytest.approx(expect, rel=0.02)

    def test_white_level_tracks_target_within_5pc(self):
        psd = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        trace = coloured_trace(WhiteSeed(seed=11, n_samples=2 ** 20, dt=DT), psd)
        om, est = welch_density(trace, nperseg=2 ** 14)
        ob, eb = banded(om, est)
        sel = (ob >= 0.2) & (ob <= 2.5)
        target = psd.trace_density(ob[sel])
        assert np.max(np.abs(eb[sel] - target) / target) < 0.05

    def test_resonant_spectrum_peak_location(self):
        psd = power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME)
        trace = coloured_trace(WhiteSeed(seed=31, n_samples=2 ** 20, dt=DT), psd)
        om, est = welch_density(trace, nperseg=2 ** 14)
        ob, eb = banded(om, est)
        tb = psd.trace_density(ob)
        # banded peak within one 0.1-wide band of the target's peak
        assert abs(ob[np.argmax(eb)] - ob[np.argmax(tb)]) <= 0.1 + 1e-9

    def test_output_is_real_and_mean_free(self):
        psd = power_spectrum("quantum-lorentzian", SET1, 1.0, FRAME)
        trace = coloured_trace(WhiteSeed(seed=41, n_samples=2 ** 18, dt=DT), psd)
        assert trace.components.dtype == np.float64
        n = trace.components.shape[1]
        sigma = trace.components.std()
        assert abs(trace.components.mean()) < 5 * sigma / math.sqrt(n)

    def test_stationarity_between_halves(self):
        psd = power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME)
        x = coloured_trace(WhiteSeed(seed=51, n_samples=2 ** 19, dt=DT), psd).components[2]
        h = len(x) // 2
        a, b = x[:h], x[h:]
        # effective sample count reduced by the noise correlation time
        n_eff = h * DT / SET2.tau_d
        se_mean = np.std(x) / math.sqrt(n_eff)
        assert abs(a.mean() - b.mean()) < 3 * se_mean
        se_var = np.var(x) * math.sqrt(2.0 / n_eff)
        assert abs(a.var() - b.var()) < 3 * se_var

    def test_shared_seed_traces_are_reproducible_pairs(self):
        ws = WhiteSeed(seed=61, n_samples=2 ** 14, dt=DT)
        p_a = power_spectrum("quantum-lorentzian", SET1, 1.0, FRAME)
        p_b = power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME)
        a1, b1 = coloured_trace(ws, p_a), coloured_trace(ws, p_b)
        a2, b2 = coloured_trace(ws, p_a), coloured_trace(ws, p_b)
        assert np.array_equal(a1.components, a2.components)
        assert np.array_equal(b1.components, b2.components)
        assert not np.array_equal(a1.components, b1.components)

    def test_zero_temperature_classical_spectrum_gives_silence(self):
        psd = power_spectrum("classical-ohmic", OhmicParams(ETA), 0.0, FRAME)
        trace = coloured_trace(WhiteSeed(seed=71, n_samples=4096, dt=DT), psd)
        assert np.all(trace.components == 0.0)

    # n = 2 and 3 are the shortest traces; at every even n here the Nyquist
    # bin lies inside the pi/DT cutoff, and 4099 is prime (Bluestein)
    @pytest.mark.parametrize("n", [2, 3, 10, 2 ** 12, 4099])
    @pytest.mark.parametrize("kind,params,temp,cutoff", SPECTRA)
    def test_bitwise_equal_to_whole_array_colouring(self, kind, params, temp,
                                                    cutoff, n):
        psd = power_spectrum(kind, params, temp, FRAME, cutoff=cutoff)
        ws = WhiteSeed(seed=13, n_samples=n, dt=DT)
        white = white_gaussian(ws)
        want = colour_whole_array(white, psd, DT).tobytes()
        got = colour(white, psd, DT).components
        assert got.flags.c_contiguous and got.shape == (3, n)
        assert got.tobytes() == want
        # coloured_trace filters its white draw in place, row by row
        assert coloured_trace(ws, psd).components.tobytes() == want

    # the real transform pair rounds differently from the complex one, by
    # at most 2.5e-15 rms over these cases, and 4.3e-15 at n = 2,279 and
    # 301,661 (numpy 2.4.6)
    @pytest.mark.parametrize("n", [2, 3, 10, 2 ** 12, 4099])
    @pytest.mark.parametrize("kind,params,temp,cutoff", SPECTRA)
    def test_within_rounding_of_complex_transform(self, kind, params, temp,
                                                  cutoff, n):
        psd = power_spectrum(kind, params, temp, FRAME, cutoff=cutoff)
        white = white_gaussian(WhiteSeed(seed=13, n_samples=n, dt=DT))
        want = colour_reference(white, psd, DT)
        got = colour(white, psd, DT).components
        rms = math.sqrt(np.mean(want ** 2))
        assert np.max(np.abs(got - want)) <= 1e-13 * rms

    def test_colour_leaves_white_unchanged(self):
        psd = power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME)
        white = white_gaussian(WhiteSeed(seed=19, n_samples=1000, dt=DT))
        before = white.copy()
        trace = colour(white, psd, DT)
        assert np.array_equal(white, before)
        assert not np.shares_memory(trace.components, white)

    # Peak bytes allocated per sample, tracemalloc, numpy 2.4.6, for
    # quantum-ohmic (cutoff 10) at n = 301,661 and quantum-lorentzian at
    # n = 2,279.  colour: 120.4 and 184.8 colouring all three rows at once
    # with complex transforms, 44.9 and 52.5 one row at a time through a
    # complex row with the filter on the half grid, now 36.9 and 44.3 with
    # a real transform pair filtering a copy of white in place.
    # coloured_trace: 83.0 and 91.6 with the (3, n) white block beside the
    # result, 44.4 and 52.9 with each white row drawn into its row of the
    # result, now 36.4 and 44.3 filtering the white block in place.  Both
    # evaluate the filter before the (3, n) block exists; evaluated after
    # the draw, the spectrum's temporaries sit on top of the block (53.5 at
    # 301,661).  The block holds 24, the complex row 8 and the filter 4; the
    # shorter trace pays more for fixed costs.  tracemalloc counts numpy's
    # array allocations only, not pocketfft's internal scratch (Bluestein
    # buffers), so these gates cannot catch growth there;
    # TestRunTraces.test_full_scale_set2_trace_rss covers that.
    @pytest.mark.parametrize("kind,params,cutoff,n,gate", [
        ("quantum-ohmic", OhmicParams(ETA), 10.0, 301_661, 38.0),
        ("quantum-lorentzian", SET2, None, 2_279, 45.0)])
    @pytest.mark.parametrize("whole_white", [True, False],
                             ids=["colour", "coloured_trace"])
    def test_peak_memory_per_sample(self, kind, params, cutoff, n, gate,
                                    whole_white):
        psd = power_spectrum(kind, params, 1.0, FRAME, cutoff=cutoff)
        ws = WhiteSeed(seed=17, n_samples=n, dt=DT)
        white = white_gaussian(ws) if whole_white else None
        tracemalloc.start()
        try:
            trace = (colour(white, psd, DT) if whole_white
                     else coloured_trace(ws, psd))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_samples == n
        assert peak / n < gate

    def test_bad_shapes_rejected(self):
        psd = power_spectrum("classical-ohmic", OhmicParams(ETA), 200.0, FRAME)
        with pytest.raises(ParameterError):
            colour(np.zeros((2, 128)), psd, DT)

    @pytest.mark.parametrize("kind", ["classical-ohmic", "quantum-ohmic"])
    def test_overflowing_density_is_a_parameter_error(self, kind):
        # eta T = 1e600 overflows the density to inf; the error names it
        psd = power_spectrum(kind, OhmicParams(1e300), 1e300, FRAME,
                             cutoff=10.0 if kind == "quantum-ohmic" else None)
        with pytest.raises(ParameterError, match=kind):
            _amplitude(psd, 128, DT)


def is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestRunTraces:
    def test_margin_is_discarded(self):
        psd = power_spectrum("quantum-lorentzian", SET2, 1.0, FRAME)
        n_steps = 1000
        tr = trace_for_run(psd, seed=3, dt=DT, n_steps=n_steps, margin_time=40.0)
        assert tr.n_samples == n_steps + 1
        # 1,001 grid points and a lead-in of ceil(40 / DT) = 267 samples
        # pad to 1,280 = 2^8 * 5; the padding joins the lead-in
        ws = WhiteSeed(seed=3, n_samples=1280, dt=DT)
        assert tr.provenance[0] == ws
        full = coloured_trace(ws, psd)
        assert np.array_equal(tr.components,
                              full.components[:, 1280 - n_steps - 1:])

    @pytest.mark.parametrize("t_max", [DESK_ENSEMBLE_T_MAX, DESK_SWEEP_T_MAX],
                             ids=["desk-ensemble", "desk-sweep"])
    @pytest.mark.parametrize("method", METHOD_TAGS)
    def test_trace_length_is_the_next_5_smooth_number(self, method, t_max):
        cfg = method_config(method, FRAME, 1.0, t_max=t_max)
        n = noise_traces(cfg, 5, 1)[0].provenance[0].n_samples
        need = cfg.n_steps + 1 + math.ceil(cfg.margin_time / cfg.dt)
        assert is_5_smooth(n) and n >= need
        assert not any(is_5_smooth(m) for m in range(need, n))

    def test_fast_length_matches_a_table_of_5_smooth_numbers(self):
        table = sorted(2 ** a * 3 ** b * 5 ** c for a in range(64)
                       for b in range(41) for c in range(28))
        rng = np.random.default_rng(8)
        ns = [*range(1, 3000), 21_212, 301_861, 2 ** 40 + 1,
              *(int(x) for x in rng.integers(1, 2 ** 62, 2000))]
        for n in ns:
            assert _fast_length(n) == table[bisect.bisect_left(table, n)]

    # Rise of ru_maxrss over one full-scale set2 noise_traces call in a
    # fresh process (T = 1 K, 301,593 steps; numpy 2.4.6, Linux, three runs
    # each): +59.6-59.8 MB at 301,861 samples, where pocketfft takes its
    # Bluestein path and caches its workspace, against +24.2-24.3 MB at the
    # 5-smooth 303,750, of which the trace itself holds 7.3 MB.  The
    # tracemalloc gates above cannot see pocketfft's scratch; this can.
    RSS_GATE_MB = 36.0

    def test_full_scale_set2_trace_rss(self):
        probe = """
import resource
from spinbath.dynamics import noise_traces
from spinbath.experiments import FULL_SWEEP_T_MAX, method_config
from spinbath.model import SET2, build_unit_frame
cfg = method_config("lorentzian-set2", build_unit_frame(10.0, -1.76e11, 1),
                    1.0, t_max=FULL_SWEEP_T_MAX)
assert cfg.bath is SET2
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
noise_traces(cfg, 5, 1)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024.0)
"""
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             text=True, stdout=subprocess.PIPE,
                             env=src_env(), timeout=300).stdout
        assert float(out) < self.RSS_GATE_MB

    def test_seed_derivations(self):
        assert derive_seed(0b1010, 0b0110) == 0b1100
        assert derive_seed(5, 0) == 5
        assert site_seed(42, 0) == 42
        assert site_seed(42, 1) != 42

    def test_provenance_recorded(self):
        psd = power_spectrum("quantum-lorentzian", SET1, 2.0, FRAME)
        ws = WhiteSeed(seed=9, n_samples=256, dt=DT)
        tr = coloured_trace(ws, psd)
        assert tr.provenance[0] == ws
        assert "quantum-lorentzian" in tr.provenance[1]
