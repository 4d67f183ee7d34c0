import math
from pathlib import Path

import numpy as np
import pytest

from spinbath.cli import main, parse_config, run, write_csv
from spinbath.dynamics import integrate, noise_traces
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
        rows = ((x, n) for x, n in [(0.1, 3), (1e-300, 0), (-2.0, 12)])
        write_csv(path, ["a=1", "b='x'"], "x,n", rows)
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
        text = BASE.replace("mode = trajectory", "mode = sweep") + \
            "\n[noise]\ntemperatures = 0, 1\n"
        with pytest.raises(ConfigurationError):
            parse_config(text.replace("[run]", "[run]\nmethods = llg-magic\n"))


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
        assert "error: integration diverged at step 5\n" in capsys.readouterr().err
        with pytest.warns(UserWarning):
            status = main(["--config", str(ini), "--out", str(tmp_path),
                           "--mode", "ensemble"])
        assert status == 1
        err = capsys.readouterr().err
        assert "error: integration diverged at step 5 in ensemble member 0" in err
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
        assert errs[0] == ("error: integration diverged at step 26 in "
                           "steady-state replica 0\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_validate_mode_passes_on_defaults(self, capsys):
        assert main(["--mode", "validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "fdt-identity-set1" in out
        assert "norm-conservation-lorentzian-set2" in out
