"""The step library's build: its fixed flags, its cache and its errors."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinbath import dynamics
from spinbath.cli import main
from spinbath.dynamics import BuildError

SRC = Path(dynamics.__file__).resolve().parent.parent


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """An empty cache directory, and no library loaded before or after."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(dynamics, "_CACHE_DIR", cache)
    dynamics._step_library.cache_clear()
    yield cache
    dynamics._step_library.cache_clear()


def test_flags_are_pinned():
    cmd = dynamics._CC_COMMAND
    assert cmd[0] == "cc"
    assert "-O2" in cmd and "-ffp-contract=off" in cmd
    for flag in ("-ffast-math", "-Ofast", "-march=native"):
        assert flag not in cmd


def test_changed_key_builds_a_new_file_beside_the_old(fresh_library,
                                                      monkeypatch, tmp_path):
    first = dynamics._library_path()
    built = first.stat().st_mtime_ns
    assert first.parent == fresh_library
    assert dynamics._library_path() == first  # the same key is not rebuilt
    assert first.stat().st_mtime_ns == built
    edited = tmp_path / "_step.c"
    edited.write_bytes(dynamics._SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(dynamics, "_SOURCE", edited)
    second = dynamics._library_path()
    assert second != first and second.parent == fresh_library
    assert first.exists() and first.stat().st_mtime_ns == built
    assert sorted(p.name for p in fresh_library.iterdir()) == sorted(
        [first.name, second.name])


RUN_ONE = """
import sys
from pathlib import Path
from spinbath import dynamics
from spinbath.dynamics import IntegratorConfig, integrate
from spinbath.model import OhmicParams, SpinSystem, build_unit_frame
dynamics._CACHE_DIR = Path(sys.argv[1])
cfg = IntegratorConfig(frame=build_unit_frame(10.0), bath=OhmicParams(0.0),
                       dt=0.1, t_max=0.1)
traj = integrate(SpinSystem.single((1.0, 0.0, 0.0)), cfg)
print(Path(dynamics._step_library()._name).name, traj.spins[0, 1].tolist())
"""


def test_processes_building_at_once_both_load_a_working_library(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-c", RUN_ONE, str(cache)],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    name = outs[0][0].split()[0]
    assert [p.name for p in cache.iterdir()] == [name]  # no temporary left
    # one step of pure precession at h = 0.1 turns s = x by 0.1 about z,
    # to RK4's h^5/120 in angle
    spin = eval(outs[0][0].split(" ", 1)[1])
    assert spin == pytest.approx([math.cos(0.1), math.sin(0.1), 0.0],
                                 abs=0.1 ** 5 / 120)


def test_missing_compiler_is_a_build_error_naming_it(fresh_library,
                                                     monkeypatch, tmp_path,
                                                     capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(BuildError, match="'cc'") as err:
        dynamics._step_library()
    ini = tmp_path / "run.ini"
    ini.write_text("[bath]\nkind = ohmic\n[run]\nmode = trajectory\n"
                   "t_max = 3.0\n")
    assert main(["--config", str(ini), "--out", str(tmp_path)]) == 1
    stderr = capsys.readouterr().err
    assert stderr == f"error: {err.value}\n"
    assert not (tmp_path / "trajectory.csv").exists()


def test_unwritable_cache_is_a_build_error_naming_it(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(dynamics, "_CACHE_DIR", blocker / "cache")
    with pytest.raises(BuildError, match=re.escape(str(blocker / "cache"))):
        dynamics._library_path()


def test_failed_compile_is_a_build_error_naming_the_command(fresh_library,
                                                            monkeypatch,
                                                            tmp_path):
    broken = tmp_path / "_step.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(dynamics, "_SOURCE", broken)
    with pytest.raises(BuildError, match=r"^cc -O2 -ffp-contract=off .* "
                       r"exited with status \d+: ") as err:
        dynamics._library_path()
    assert "\n" not in str(err.value)
    assert list(fresh_library.iterdir()) == []  # no temporary left
