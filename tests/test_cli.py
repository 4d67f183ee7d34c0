import concurrent.futures
import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinbath
from spinbath import cli, experiments
from spinbath.cli import (PRESETS, ExperimentConfig, main, parse_config, run,
                          write_csv)
from spinbath.coupling import SPECTRUM_KINDS
from spinbath.dynamics import integrate, noise_traces
from spinbath.experiments import METHOD_TAGS, _MAX_MEMBERS
from spinbath.model import ConfigurationError, SpinSystem

BASE = """
[frame]
b_ext_tesla = 10.0
spin_halves = 1

[bath]
kind = lorentzian
preset = set2

[noise]
kind = quantum-lorentzian
temperature = 1.0

[run]
mode = trajectory
t_max = 30.0
seed = 42
"""


def body_of(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


def split_csv(path: Path):
    """(metadata lines, header, rows of cell strings) of a CSV output."""
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = lines[len(meta):]
    return meta, body[0], [l.split(",") for l in body[1:]]


class TestWriteCsv:
    def test_one_format_for_every_cell(self, tmp_path):
        path = tmp_path / "sub" / "w.csv"
        write_csv(path, ["a=1", "b='x'"], "x,n",
                  [([0.1, 1e-300, -2.0], [3, 0, 12])])
        assert path.read_text() == ("# a=1\n# b='x'\nx,n\n"
                                    "0.10000000000000001,3\n"
                                    "1e-300,0\n-2,12\n")


class TestParseConfig:
    def test_preset_set2_expands_exactly(self):
        cfg = parse_config(BASE)
        bath = cfg.bath()
        assert (bath.omega0, bath.gamma_width, bath.alpha) == (1.4, 0.5, 0.16)

    def test_preset_set1_expands_exactly(self):
        cfg = parse_config(BASE.replace("set2", "set1"))
        bath = cfg.bath()
        assert (bath.omega0, bath.gamma_width, bath.alpha) == (7.0, 5.0, 10.0)

    def test_defaults_fill_in(self):
        cfg = parse_config(BASE)
        assert cfg.dt == 0.15
        assert cfg.b_ext_tesla == 10.0
        assert cfg.initial_spin == (-1.0, 0.0, 0.0)

    def test_missing_bath_is_an_error(self):
        text = BASE.replace("kind = lorentzian", "").replace("preset = set2", "")
        with pytest.raises(ConfigurationError, match="bath"):
            parse_config(text)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError, match="dt"):
            parse_config(BASE + "\ndt = -1\n")

    def test_unknown_keys_are_listed(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(BASE + "\nfrobnicate = 3\nwibble = 4\n")
        assert "frobnicate" in str(err.value)
        assert "wibble" in str(err.value)

    def test_explicit_lorentzian_needs_all_three(self):
        text = BASE.replace("preset = set2", "omega0 = 1.4")
        with pytest.raises(ConfigurationError, match="gamma_width"):
            parse_config(text).bath()

    def test_bad_initial_spin_arity(self):
        with pytest.raises(ConfigurationError, match="initial_spin"):
            parse_config(BASE + "\ninitial_spin = 1, 0\n")

    def test_sweep_needs_temperatures(self):
        with pytest.raises(ConfigurationError, match="temperatures"):
            parse_config(BASE.replace("mode = trajectory", "mode = sweep"))

    def test_unknown_method_listed(self):
        text = BASE.replace("mode = trajectory", "mode = sweep").replace(
            "temperature = 1.0", "temperatures = 0, 1")
        with pytest.raises(ConfigurationError,
                           match=r"^unknown methods \['llg-magic'\]; "):
            parse_config(text.replace("[run]", "[run]\nmethods = llg-magic\n"))


KEYED_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)
                if f.metadata}

# every config key: its text in a config, and the value its field then holds,
# which is not the field's default
KEY_VALUES = {
    "run.mode": ("ensemble", "ensemble"),
    "frame.b_ext_tesla": ("2.5", 2.5),
    "frame.gamma": ("1.76e11", 1.76e11),
    "frame.spin_halves": ("3", 3),
    "bath.kind": ("lorentzian", "lorentzian"),
    "bath.eta": ("0.05", 0.05),
    "bath.preset": ("set1", "set1"),
    "bath.omega0": ("2.0", 2.0),
    "bath.gamma_width": ("0.25", 0.25),
    "bath.alpha": ("0.5", 0.5),
    "noise.kind": ("quantum-ohmic", "quantum-ohmic"),
    "noise.temperature": ("3.5", 3.5),
    "noise.temperatures": ("2, 3", (2.0, 3.0)),
    "noise.cutoff": ("12.0", 12.0),
    "run.dt": ("0.1", 0.1),
    "run.t_max": ("30.0", 30.0),
    "run.n_traj": ("7", 7),
    "run.n_replicas": ("5", 5),
    "run.seed": ("9", 9),
    "run.initial_spin": ("0, 0, 1", (0.0, 0.0, 1.0)),
    "run.methods": ("llg-quantum, lorentzian-set1",
                    ("llg-quantum", "lorentzian-set1")),
    "run.downsample": ("4", 4),
    "run.workers": ("2", 2),
    "output.path": ("out/x.csv", "out/x.csv"),
}


@pytest.mark.parametrize("key", list(KEYED_FIELDS))
def test_every_key_reaches_its_field(key):
    assert set(KEY_VALUES) == set(KEYED_FIELDS)
    text, expected = KEY_VALUES[key]
    field = KEYED_FIELDS[key]
    assert expected != field.default
    sections = {"bath": {"kind": "ohmic"},
                "noise": {"kind": "classical-ohmic", "temperatures": "0, 1"},
                "run": {"mode": "sweep"}}
    section, name = key.split(".")
    sections.setdefault(section, {})[name] = text
    cfg = parse_config("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in sections.items()))
    value = getattr(cfg, field.name)
    assert value == expected and type(value) is type(expected)


def test_readme_config_parses_and_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parse_config(block)
    parts = re.split(r"(?m)^\[(\w+)\]$", block)
    sections = dict(zip(parts[1::2], parts[2::2]))
    missing = [key for key in KEYED_FIELDS
               if not re.search(rf"\b{key.split('.')[1]}\b",
                                sections.get(key.split(".")[0], ""))]
    assert missing == []


class TestRunModes:
    def test_trajectory_csv_and_metadata(self, tmp_path):
        cfg = parse_config(BASE)
        cfg.out_path = str(tmp_path / "t.csv")
        assert run(cfg, out_dir=tmp_path) == 0
        text = (tmp_path / "t.csv").read_text()
        meta = [l for l in text.splitlines() if l.startswith("#")]
        assert any("version=" in l for l in meta)
        assert any("seed=42" in l for l in meta)
        header = next(l for l in text.splitlines() if not l.startswith("#"))
        assert header == "t,site,s_x,s_y,s_z,norm"
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == int(round(30.0 / 0.15)) + 1
        first = rows[0].split(",")
        assert float(first[2]) == -1.0 and float(first[5]) == 1.0

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = parse_config(BASE)
        cfg.out_path = str(tmp_path / "a.csv")
        run(cfg, out_dir=tmp_path)
        cfg.out_path = str(tmp_path / "b.csv")
        run(cfg, out_dir=tmp_path)
        assert body_of(tmp_path / "a.csv") == body_of(tmp_path / "b.csv")

    def test_downsampling(self, tmp_path):
        cfg = parse_config(BASE + "\ndownsample = 5\n")
        cfg.out_path = str(tmp_path / "d.csv")
        run(cfg, out_dir=tmp_path)
        rows = [l for l in (tmp_path / "d.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == len(range(0, 201, 5))

    def test_dump_noise_writes_trace_files(self, tmp_path):
        cfg = parse_config(BASE)
        cfg.out_path = str(tmp_path / "t.csv")
        cfg.dump_noise = True
        run(cfg, out_dir=tmp_path)
        icfg = cfg.integrator_config()
        trace, = noise_traces(icfg, cfg.seed, 1)
        traj = integrate(SpinSystem.single(cfg.initial_spin), icfg,
                         seed=cfg.seed)
        dt, n = icfg.dt, icfg.n_steps + 1

        _, header, rows = split_csv(tmp_path / "t.csv")
        assert header == "t,site,s_x,s_y,s_z,norm"
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert row[:2] == [f"{i * dt:.17g}", "0"]
            assert row[2:] == [f"{v:.17g}" for v in
                               (*traj.spins[0, i], traj.norms[0, i])]

        meta, header, rows = split_csv(tmp_path / "t.noise0.csv")
        assert meta == [f"# dt={dt!r}", f"# provenance={trace.provenance[1]}"]
        assert header == "t,b_x,b_y,b_z"
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert row == [f"{v:.17g}" for v in
                           (i * dt, *trace.components[:, i])]

    @pytest.mark.parametrize("downsample", [1, 5])
    def test_chunk_boundaries_do_not_change_the_files(self, tmp_path,
                                                      monkeypatch, downsample):
        cfg = parse_config(BASE + f"\ndownsample = {downsample}\n")
        cfg.dump_noise = True
        run(cfg, out_dir=tmp_path / "default")
        monkeypatch.setattr(cli, "CHUNK_ROWS", 7)  # rows: 201, 41 at ds = 5
        run(cfg, out_dir=tmp_path / "chunked")
        for name in ("trajectory.csv", "trajectory.noise0.csv"):
            assert ((tmp_path / "chunked" / name).read_bytes()
                    == (tmp_path / "default" / name).read_bytes())

    def test_ensemble_mode(self, tmp_path):
        text = BASE.replace("mode = trajectory", "mode = ensemble") + "\nn_traj = 4\n"
        cfg = parse_config(text)
        cfg.out_path = str(tmp_path / "e.csv")
        assert run(cfg, out_dir=tmp_path) == 0
        rows = [l for l in (tmp_path / "e.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "t,sz_mean,sz_stderr"
        vals = np.array([r.split(",") for r in rows[1:]], dtype=float)
        assert np.all(np.abs(vals[:, 1]) <= 1.0)

    def test_sweep_mode_tracks_oracle(self, tmp_path):
        text = f"""
[frame]
b_ext_tesla = 10.0
spin_halves = 200

[noise]
temperatures = 1.0, 200.0

[run]
mode = sweep
methods = llg-classical
t_max = {2 * math.pi * 350}
seed = 8
"""
        cfg = parse_config(text)
        cfg.out_path = str(tmp_path / "s.csv")
        assert run(cfg, out_dir=tmp_path) == 0
        rows = [l for l in (tmp_path / "s.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0].split(",")[:4] == ["temperature", "oracle",
                                          "llg-classical_sz", "llg-classical_err"]
        for row in rows[1:]:
            t, oracle, sz, err = (float(x) for x in row.split(",")[:4])
            assert abs(sz - oracle) < max(0.1, 5 * err)


class TestMain:
    def test_requires_config_except_validate(self, capsys):
        with pytest.raises(SystemExit):
            main(["--mode", "trajectory"])

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE + "\ndt = -1\n")
        assert main(["--config", str(bad)]) == 2

    def test_end_to_end_trajectory(self, tmp_path):
        ini = tmp_path / "ok.ini"
        ini.write_text(BASE)
        assert main(["--config", str(ini), "--out", str(tmp_path),
                     "--seed", "7"]) == 0
        assert (tmp_path / "trajectory.csv").exists()
        meta = (tmp_path / "trajectory.csv").read_text()
        assert "seed=7" in meta  # CLI override recorded

    def test_diverging_ensemble_exits_with_message(self, tmp_path, capsys):
        ini = tmp_path / "unstable.ini"
        ini.write_text("""
[frame]
b_ext_tesla = 10.0

[bath]
kind = lorentzian
omega0 = 50
gamma_width = 1
alpha = 1

[run]
mode = trajectory
dt = 0.5
t_max = 30
n_traj = 4
""")
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 1
        assert "error: integration diverged at step 6\n" in capsys.readouterr().err
        with pytest.warns(UserWarning):
            status = main(["--config", str(ini), "--out", str(tmp_path),
                           "--mode", "ensemble"])
        assert status == 1
        err = capsys.readouterr().err
        assert "error: integration diverged at step 6 in ensemble member 0" in err
        assert not (tmp_path / "ensemble.csv").exists()

    def test_diverging_sweep_message_does_not_depend_on_workers(
            self, tmp_path, capsys):
        ini = tmp_path / "unstable.ini"
        ini.write_text("""
[frame]
b_ext_tesla = 10.0

[noise]
temperatures = 1.0, 5.0

[run]
mode = sweep
dt = 0.5
methods = lorentzian-set1
""")
        errs = []
        for workers in ("1", "2"):
            assert main(["--config", str(ini), "--out", str(tmp_path),
                         "--workers", workers]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0] == ("error: integration diverged at step 12 in "
                           "steady-state replica 0 of lorentzian-set1 at "
                           "T = 1 K\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("key", ["run.workers", "--workers"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, key, workers):
        ini = tmp_path / "w.ini"
        args = ["--config", str(ini), "--out", str(tmp_path)]
        if key == "--workers":
            ini.write_text(BASE)
            args += [key, workers]
        else:
            ini.write_text(BASE + f"\nworkers = {workers}\n")
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {key} must be >= 1\n"
        assert not (tmp_path / "trajectory.csv").exists()

    # each row of this table was accepted, or failed with a traceback or a
    # divergence, before values were checked for finiteness where they enter
    @pytest.mark.parametrize("key,value,name", [
        ("cutoff", "nan", "cutoff"), ("cutoff", "inf", "cutoff"),
        ("b_ext_tesla", "inf", "b_ext_tesla"), ("eta", "nan", "eta"),
        ("temperature", "nan", "temperature"), ("t_max", "inf", "t_max"),
        ("initial_spin", "nan, 0, 0", "initial_spin")])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, key,
                                                value, name):
        text = """
[frame]
b_ext_tesla = 10.0

[bath]
kind = ohmic
eta = 0.02

[noise]
kind = quantum-ohmic
temperature = 1.0
cutoff = 10.0

[run]
mode = trajectory
t_max = 3.0
initial_spin = -1, 0, 0
"""
        assert f"\n{key} = " in text
        ini = tmp_path / "bad.ini"
        ini.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text))
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name} must be finite, got ")
        assert not (tmp_path / "trajectory.csv").exists()

    # both used to exit 1 with a traceback: a ValueError from the FFT
    # frequency grid, and an OverflowError allocating the zero noise lanes
    @pytest.mark.parametrize("kind,dt,t_max", [
        ("quantum-ohmic", "1e-300", "3e-300"), ("none", "0.15", "1e300")])
    def test_run_no_array_can_index_is_a_config_error(self, tmp_path, capsys,
                                                      kind, dt, t_max):
        ini = tmp_path / "long.ini"
        ini.write_text(f"""
[bath]
kind = ohmic

[noise]
kind = {kind}
temperature = 1.0

[run]
mode = trajectory
dt = {dt}
t_max = {t_max}
""")
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_max / dt too large: t_max = ")
        assert not (tmp_path / "trajectory.csv").exists()

    # each used to end in a traceback, or exit 1 as a divergence at step 1
    @pytest.mark.parametrize("key,value,kind,message", [
        ("gamma", "1e-300", "quantum-lorentzian",
         "hbar * |gamma_si| * b_ext_tesla must be a normal finite float"),
        ("b_ext_tesla", "1e-300", "quantum-lorentzian",
         "hbar * |gamma_si| * b_ext_tesla must be a normal finite float"),
        ("omega0", "1e300", "quantum-lorentzian",
         "omega0 = 1e+300 is too large: omega0**4 overflows"),
        ("omega0", "1e300", "none",
         "omega0 = 1e+300 is too large: omega0**4 overflows")])
    def test_finite_value_out_of_range_is_a_config_error(
            self, tmp_path, capsys, key, value, kind, message):
        text = f"""
[frame]
b_ext_tesla = 10.0
gamma = -1.76e11

[bath]
kind = lorentzian
omega0 = 1.4
gamma_width = 0.5
alpha = 0.16

[noise]
kind = {kind}
temperature = 1.0

[run]
mode = trajectory
t_max = 3.0
"""
        ini = tmp_path / "far.ini"
        ini.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text))
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "trajectory.csv").exists()

    # a density that overflows to inf used to end in a RuntimeError traceback
    @pytest.mark.parametrize("kind,eta,b_ext", [
        ("classical-ohmic", "1e300", "10.0"),
        ("quantum-ohmic", "1e300", "10.0"),
        ("classical-ohmic", "0.02", "1e-280")])
    def test_overflowing_spectrum_is_a_config_error(self, tmp_path, capsys,
                                                    kind, eta, b_ext):
        ini = tmp_path / "hot.ini"
        ini.write_text(f"""
[frame]
b_ext_tesla = {b_ext}

[bath]
kind = ohmic
eta = {eta}

[noise]
kind = {kind}
temperature = 1e300

[run]
mode = trajectory
t_max = 3.0
""")
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: spectral density must be finite "
                              f"and non-negative: {kind} T=1e+300K")
        assert not (tmp_path / "trajectory.csv").exists()

    # a huge spin length used to end in an OverflowError traceback, and the
    # spin length errors named n_halves, not the key; the run sizes used to
    # build the seed list of every member before any check
    @pytest.mark.parametrize("key,value,mode,message", [
        *(("spin_halves", value, mode, "frame.spin_halves must be an "
           "integer >= 1 with a finite float value")
          for value in ("9" * 400, "0") for mode in ("trajectory", "sweep")),
        ("n_traj", _MAX_MEMBERS + 1, "ensemble",
         f"n_traj must be >= 2 and <= {_MAX_MEMBERS}"),
        ("n_replicas", _MAX_MEMBERS + 1, "sweep",
         f"n_replicas must be >= 1 and <= {_MAX_MEMBERS}"),
        ("temperatures", ", ".join(["1.0"] * 1025), "sweep",
         "at most 1024 temperatures, got 1025")],
        ids=["spin_halves", "spin_halves-huge-sweep",
             "spin_halves-0-trajectory", "spin_halves-0-sweep", "n_traj",
             "n_replicas", "temperatures"])
    def test_huge_run_size_is_a_config_error(self, tmp_path, capsys,
                                             monkeypatch, key, value, mode,
                                             message):
        def forbidden(*args, **kwargs):
            raise AssertionError("a member ran or a process started")
        monkeypatch.setattr(experiments, "integrate_members", forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            forbidden)
        text = f"""
[frame]
b_ext_tesla = 10.0
spin_halves = 1

[bath]
kind = ohmic

[noise]
kind = quantum-ohmic
temperature = 1.0
temperatures = 1.0

[run]
mode = {mode}
t_max = 3.0
n_traj = 4
n_replicas = 1
methods = llg-classical
"""
        ini = tmp_path / "big.ini"
        ini.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text))
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / f"{mode}.csv").exists()

    def test_default_section_is_a_config_error(self, tmp_path, capsys):
        # it used to lend its keys to every section: [DEFAULT] seed = 3 set
        # run.seed, and was reported as frame.seed once [frame] was there
        ini = tmp_path / "default.ini"
        ini.write_text("[DEFAULT]\nseed = 3\n" + BASE)
        assert main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == "config error: unknown config keys: DEFAULT\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_validate_mode_passes_on_defaults(self, capsys):
        assert main(["--mode", "validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = (["fdt-identity-set1", "fdt-identity-set2", "fdt-identity-ohmic",
                  "kernel-moments-set1", "kernel-moments-set2",
                  "noise-psd-classical-ohmic", "noise-psd-quantum-ohmic",
                  "noise-psd-quantum-lorentzian",
                  "noise-psd-quantum-lorentzian-set2"]
                 + [f"norm-conservation-{m}" for m in METHOD_TAGS]
                 + ["determinism", "linear-response-ohmic",
                    "linear-response-set1", "linear-response-set2",
                    "ohmic-limit-set2"])
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", name] for name in names]
        assert lines[-1] == "OK: all checks passed"


def test_import_loads_no_scipy():
    # scipy.signal is slow to import; the CLI's start-up must not pay for it
    code = ("import sys, spinbath, spinbath.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(Path(spinbath.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}
                         ).stdout
    assert out == "[]\n"


# Typical value of every numeric key.  dt and t_max depend on the mode
# (RUN_LENGTHS), so that a typical run takes a few thousand member-steps.
PROPERTY_KEYS = {
    "frame.b_ext_tesla": 10.0, "frame.gamma": -1.76e11, "frame.spin_halves": 2,
    "bath.eta": 0.02, "bath.omega0": 1.4, "bath.gamma_width": 0.5,
    "bath.alpha": 0.16, "noise.temperature": 1.0,
    "noise.temperatures": (1.0, 5.0), "noise.cutoff": 10.0,
    "run.dt": None, "run.t_max": None, "run.initial_spin": (-1.0, 0.0, 0.0),
    "run.n_traj": 4, "run.n_replicas": 2, "run.workers": 2,
    "run.downsample": 2,
}
PROPERTY_METHODS = "llg-classical, lorentzian-set2"
HUGE = int("9" * 400)
# a sweep needs ten blocks of 50 time units in the last quarter of its run
RUN_LENGTHS = {"trajectory": (0.15, 3.0), "ensemble": (0.15, 3.0),
               "sweep": (1.0, 2000.0)}
NOISE_KINDS = {"ohmic": ["classical-ohmic", "quantum-ohmic", "none"],
               "lorentzian": ["quantum-lorentzian", "classical-lorentzian",
                              "none"]}


@st.composite
def cli_configs(draw):
    """(config text, whether a value in it is not finite).  One run in
    three has dt = 1e-300 or t_max = 1e300.  Up to three keys take an
    atypical value: 1, 0, -1 or a 400-digit integer for an integer; 0, a
    negative value, 1e-300, 1e300, +-inf or nan for a float, or for one
    entry of a list."""
    mode = draw(st.sampled_from(sorted(RUN_LENGTHS)))
    values = dict(PROPERTY_KEYS)
    dt, t_max = RUN_LENGTHS[mode]
    values["run.dt"], values["run.t_max"] = draw(st.sampled_from(
        [(dt, t_max), (1e-300, t_max), (dt, 1e300)]))
    odd = draw(st.sets(st.sampled_from(sorted(values)), max_size=3))
    non_finite = False
    for key in sorted(odd):
        typical = values[key]
        if isinstance(typical, int):
            values[key] = draw(st.sampled_from([1, 0, -1, HUGE]))
            continue
        scale = typical[0] if isinstance(typical, tuple) else typical
        value = draw(st.sampled_from([0.0, -abs(scale), 1e-300, 1e300,
                                      math.inf, -math.inf, math.nan]))
        non_finite = non_finite or not math.isfinite(value)
        if isinstance(typical, tuple):
            i = draw(st.integers(0, len(typical) - 1))
            value = typical[:i] + (value,) + typical[i + 1:]
        values[key] = value
    bath = draw(st.sampled_from(["ohmic", "lorentzian", "set1", "set2"]))
    family = "ohmic" if bath == "ohmic" else "lorentzian"
    values["bath.kind"] = family
    if bath in PRESETS:
        values["bath.preset"] = bath
    values["noise.kind"] = draw(st.sampled_from(NOISE_KINDS[family]))
    values["run.mode"] = mode
    return ini_text(values), non_finite


def ini_text(values: dict) -> str:
    """Config text setting each "section.name" key of values, with the
    methods of every property run; a tuple is written comma-separated."""
    sections = {}
    for key, value in {**values, "run.methods": PROPERTY_METHODS}.items():
        section, name = key.split(".")
        if isinstance(value, tuple):
            value = ", ".join(map(repr, value))
        sections.setdefault(section, []).append(f"{name} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                   for name, lines in sections.items())


class SerialPool:
    """Stand-in for ProcessPoolExecutor that maps in this process, so that
    no drawn worker count starts processes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


# a drawn example that used to end in an OverflowError traceback
HUGE_SPIN = ini_text({**PROPERTY_KEYS, "frame.spin_halves": HUGE,
                      "run.dt": 0.15, "run.t_max": 3.0, "bath.kind": "ohmic",
                      "noise.kind": "classical-ohmic", "run.mode": "ensemble"})

# a spectral density that overflows to inf; it used to end in a
# RuntimeError traceback out of the noise filter
OVERFLOWING_SPECTRUM = ini_text({
    **PROPERTY_KEYS, "bath.eta": 1e300, "noise.temperature": 1e300,
    "run.dt": 0.15, "run.t_max": 3.0, "bath.kind": "ohmic",
    "noise.kind": "classical-ohmic", "run.mode": "trajectory"})


@given(cli_configs())
@example(config=(HUGE_SPIN, False))
@example(config=(OVERFLOWING_SPECTRUM, False))
@settings(max_examples=200, deadline=None)
def test_main_returns_a_status_for_any_numeric_config(config):
    # main never raises; it exits 0, 1 (divergence) or 2 (config error), and
    # a value that is not finite is always a config error
    text, non_finite = config
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                              SerialPool), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        ini = Path(tmp) / "run.ini"
        ini.write_text(text)
        status = main(["--config", str(ini), "--out", tmp])
    assert status in (0, 1, 2)
    if non_finite:
        assert status == 2
