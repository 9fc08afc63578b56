import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import plant_step_fault
from fsifem import analysis, cli, fem, helper, mesh as meshmod, sparse as sla


def run_cli(args, monkeypatch=None, env=None):
    if monkeypatch is not None and env is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    return cli.main(args)


def test_requires_mode(capsys):
    assert cli.main([]) == 2
    assert "mode" in capsys.readouterr().err


def test_rejects_unknown_mode():
    with pytest.raises(SystemExit) as err:
        cli.main(["--mode", "interpretive-dance"])
    assert err.value.code == 2


def test_rejects_bad_levels(capsys):
    assert cli.main(["--mode", "convergence", "--levels", "2,1"]) == 2
    assert "ascending" in capsys.readouterr().err


@pytest.mark.parametrize("levels, message", [
    (",", "at least one entry"),
    ("-1", "nonnegative"),
    ("0,-1", "nonnegative"),
    ("2,1", "ascending and distinct"),
    ("1,1", "ascending and distinct"),
    ("1,x", "cannot parse"),
])
def test_bad_levels_name_the_flag(tmp_path, capsys, levels, message):
    assert cli.main(["--mode", "convergence", f"--levels={levels}",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --levels:")
    assert message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["resolvent", "evolve"])
def test_single_level_mode_rejects_extra_levels(tmp_path, capsys, mode):
    # these modes run levels[0]; a second level must not be silently dropped
    assert cli.main(["--mode", mode, "--levels", "1,2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: --levels:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("levels", ["3,4", "1", "0,1,2"])
def test_certify_rejects_levels_it_does_not_run(tmp_path, capsys, levels):
    # certify always runs levels 0 and 1; other levels must not pass unread
    assert cli.main(["--mode", "certify", "--levels", levels, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: --levels:")
    assert not any(tmp_path.iterdir())


def test_rejects_levels_above_the_mesh_range(tmp_path, capsys):
    # refused before the run starts, not as a mesh error from inside it
    level = str(meshmod.MAX_LEVEL + 1)
    assert cli.main(["--mode", "resolvent", "--levels", level, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: --levels:")
    assert not any(tmp_path.iterdir())


def test_rejects_bad_lambda(capsys):
    assert cli.main(["--mode", "resolvent", "--lambda", "-2"]) == 2
    assert "lambda" in capsys.readouterr().err


def test_rejects_nan_lame_lambda(capsys):
    assert cli.main(["--mode", "resolvent", "--levels", "0", "--lame-lambda", "nan"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --lame-lambda:")


def test_rejects_infinite_t_final(capsys):
    assert cli.main(["--mode", "evolve", "--t-final", "inf"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --t-final:")


def test_rejects_negative_seed(capsys):
    assert cli.main(["--mode", "certify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --seed:")


@pytest.mark.parametrize("args", [["--mode", "resolvent", "--lambda", "1e200"],
                                  ["--mode", "evolve", "--t-final", "1e-300",
                                   "--steps", "2"]])
def test_overflowing_shift_names_the_sparse_layer(tmp_path, capsys, args):
    # lam^2 + 1 overflows, so the shifted solid matrix is infinite
    assert cli.main(args + ["--levels", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("[sparse] ValueError: matrix has a non-finite")


def test_convergence_mode_writes_tables(tmp_path, capsys):
    code = cli.main(["--mode", "convergence", "--levels", "0,1",
                     "--out", str(tmp_path)])
    assert code == 0
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    rates = (tmp_path / "rates.csv").read_text().splitlines()
    assert len(conv) == 1 + 2          # header + one row per level
    assert len(rates) == 1 + 1         # header + one adjacent pair
    assert conv[0].startswith("elements,hypotenuse,fluid_h1,pressure_l2,solid_h1")
    out = capsys.readouterr().out
    assert "rates" in out


def test_fault_in_error_norm_helper_names_the_analysis_layer(tmp_path, capsys,
                                                            monkeypatch):
    real = analysis._fluid_error_squares

    def faulty(*args):
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("injected in the helper")
        return real(*args)

    monkeypatch.setattr(analysis, "_fluid_error_squares", faulty)
    monkeypatch.setattr(helper, "_helper_cpus", lambda jobs: os.sched_getaffinity(0))
    monkeypatch.setattr(analysis, "ERROR_NORM_CHUNK", 7)   # 10 chunks at level 0
    code = cli.main(["--mode", "convergence", "--levels", "0", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == ("[analysis] ZeroDivisionError: "
                                       "injected in the helper\n")
    assert threading.enumerate() == [threading.main_thread()]


def test_resolvent_mode_exports_state(tmp_path):
    code = cli.main(["--mode", "resolvent", "--levels", "0", "--out", str(tmp_path)])
    assert code == 0
    for name in ("state_u.csv", "state_w.csv", "state_z.csv", "pressure.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "dof_id,value"
        assert len(lines) > 1
    report = json.loads((tmp_path / "domain_conditions.json").read_text())
    assert report["conditions"]["A2_gamma_f_zero"]["passed"]
    assert report["data_identity_residual"] <= 1e-12


def test_resolvent_mode_solves_small_shift_nearly_incompressible_solid(tmp_path, capsys):
    # the constant pressure is a near-null mode of this saddle; factorized
    # bordered against it, the solve goes through and every check passes
    code = cli.main(["--mode", "resolvent", "--levels", "1", "--lambda", "1e-3",
                     "--lame-lambda", "1e6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    checks = [line for line in out.splitlines() if "residual" in line and "<=" in line]
    assert len(checks) == 4 and all(line.endswith(": PASS") for line in checks)
    report = json.loads((tmp_path / "domain_conditions.json").read_text())
    assert report["solve_residual"] <= 1e-10
    assert all(c["passed"] for c in report["conditions"].values())


def test_infsup_mode(tmp_path, capsys):
    code = cli.main(["--mode", "infsup", "--levels", "0,1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "infsup.csv").read_text().splitlines()
    assert lines[0] == "level,hypotenuse,beta_h"
    betas = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(betas) == 2 and all(b > 0 for b in betas)


def test_failed_infsup_eigensolve_keeps_its_type(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sla, "EIG_MAX_ITER", 1)
    with pytest.raises(sla.EigenIterationError, match="failed at level 0: ") as err:
        analysis.infsup_study([0])
    cause = err.value.__cause__
    assert isinstance(cause, sla.EigenIterationError)
    assert err.value.value is cause.value and err.value.vector is cause.vector
    code = cli.main(["--mode", "infsup", "--levels", "0", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "[analysis] EigenIterationError: inf-sup eigensolve failed at level 0: ")


def test_evolve_mode_trace(tmp_path):
    code = cli.main(["--mode", "evolve", "--levels", "0", "--t-final", "0.2",
                     "--steps", "10", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "energy_trace.csv").read_text().splitlines()
    assert lines[0] == ("step,time,E_total,E_fluid,E_solid_potential,"
                        "E_solid_kinetic,dissipation")
    assert len(lines) == 1 + 11        # initial row + 10 steps


def test_certify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--mode", "certify", "--seed", "7", "--out", str(out1)]) == 0
    assert cli.main(["--mode", "certify", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "certify.txt").read_bytes() == (out2 / "certify.txt").read_bytes()
    # every gap (eps - a) / max(1, a) is negative, so the largest is too
    gap = next(line for line in (out1 / "certify.txt").read_text().splitlines()
               if line.startswith("kernel_coercivity_gap "))
    assert float(gap.split()[1].removeprefix("value=")) < 0.0


def test_certify_reads_u_of_no_factor(tmp_path, monkeypatch):
    # no factor of a certify run reads SuperLU's L or U, whose first read
    # makes scipy keep CSC copies of both: the resolvent saddle is
    # factorized bordered against its constant pressure, and no pivot is
    # tested against a tolerance
    made, reads = [], []
    real = sla.spla.splu

    class Watched:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            if name in ("L", "U"):
                reads.append(name)
            return getattr(self._lu, name)

    def watched_splu(a, **kwargs):
        made.append(a.shape[0])
        return Watched(real(a, **kwargs))

    monkeypatch.setattr(sla.spla, "splu", watched_splu)
    assert cli.main(["--mode", "certify", "--out", str(tmp_path)]) == 0
    # the bordered resolvent saddle of each level (1, then 0) is among them
    spaces = [fem.build_space(meshmod.generate(level)) for level in (1, 0)]
    saddles = [space.free_velocity_dofs.size + space.solid_interior_dofs.size
               + space.num_pressure_dofs + 1 for space in spaces]
    assert [n for n in made if n in saddles] == saddles
    assert reads == []


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text("mode = infsup\nlevels = 0,1\nlambda = 2.0\n# comment\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(config), "--levels", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "infsup.csv").read_text().splitlines()
    assert len(lines) == 2             # flag --levels 0 overrides the file


@pytest.mark.parametrize("line", ["shift = 5.0", "lamda = 3"])
def test_config_file_rejects_unknown_key(tmp_path, capsys, line):
    # a field name or a misspelt flag must not leave the default in force
    config = tmp_path / "study.cfg"
    config.write_text(f"mode = resolvent\nlevels = 0\n{line}\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    key = line.split(" ", 1)[0]
    assert err.startswith("usage error: ")
    assert f"{config}:3: unknown key '{key}'" in err
    assert not (tmp_path / "domain_conditions.json").exists()


def test_config_file_rejects_duplicate_key(tmp_path, capsys):
    # a repeated key must not silently let its last value win
    config = tmp_path / "study.cfg"
    config.write_text("mode = resolvent\nlevels = 0\nlambda = 2.0\nlambda = 3.0\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert f"{config}:4: duplicate key 'lambda'" in err
    assert not (tmp_path / "domain_conditions.json").exists()


@pytest.mark.parametrize("text, lineno, key, message", [
    ("mode = foo\n", 1, "mode", "invalid choice 'foo'"),
    ("mode = evolve\nlambda = abc\n", 2, "lambda", "invalid float value 'abc'"),
    ("mode = evolve\nlevels = 0\nsteps = 2.5\n", 3, "steps", "invalid int value '2.5'"),
    ("mode = evolve\nlevels = 0,x\n", 2, "levels",
     "levels must be comma-separated integers, cannot parse '0,x'"),
], ids=["mode", "lambda", "steps", "levels"])
def test_config_file_values_are_parsed_as_flags(tmp_path, capsys, text, lineno, key,
                                                message):
    # a value goes through its flag's type and choices, and a bad one is a
    # usage error naming the file, line and key, not a traceback
    config = tmp_path / "study.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"usage error: {config}:{lineno}: key '{key}': {message}")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_output_directory_is_a_usage_error(tmp_path, capsys, source):
    # it would otherwise fail only at the first write, after the whole study
    if source == "flag":
        args = ["--mode", "infsup", "--levels", "0", "--out", ""]
    else:
        config = tmp_path / "study.cfg"
        config.write_text("mode = infsup\nlevels = 0\nout =\n")
        args = ["--config", str(config)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("usage error: --out: ")


def test_errors_under_python_m_name_the_cli_layer(tmp_path):
    # run as `python -m fsifem.cli`, the CLI's frames are named __main__
    taken = tmp_path / "taken"
    taken.write_text("")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "fsifem.cli", "--mode", "infsup",
                           "--levels", "0", "--out", str(taken)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("[cli] FileExistsError: ")


def test_planted_step_fault_names_the_sparse_layer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(helper, "_helper_cpus", lambda jobs: os.sched_getaffinity(0))
    plant_step_fault(monkeypatch, 3)
    code = cli.main(["--mode", "evolve", "--levels", "0", "--t-final", "0.1",
                     "--steps", "10", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "[sparse] SolveAccuracyError: relative residual ")
    assert not (tmp_path / "energy_trace.csv").exists()
    assert threading.enumerate() == [threading.main_thread()]


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("FSI_OUT_DIR", str(target))
    code = cli.main(["--mode", "infsup", "--levels", "0"])
    assert code == 0
    assert (target / "infsup.csv").exists()


def test_missing_config_file(capsys):
    assert cli.main(["--config", "/nonexistent/path.cfg"]) == 2
    assert "config" in capsys.readouterr().err


def test_build_config_defaults():
    cfg = cli.build_config(["--mode", "convergence"])
    assert cfg.levels == [0, 1, 2, 3]
    assert cfg.shift == 1.0
    assert cfg.seed == 0


# The runs whose artifacts tests/artifacts.sha256 pins, each written to the
# directory named after its mode.  A change that moves an artifact's bytes
# updates that file.
_ARTIFACT_RUNS = [
    ["--mode", "convergence", "--levels", "0,1,2"],
    ["--mode", "resolvent", "--levels", "1"],
    ["--mode", "infsup", "--levels", "0,1,2"],
    ["--mode", "evolve", "--steps", "20", "--t-final", "0.2"],
    ["--mode", "certify", "--seed", "7"],
]

_WRITE_ARTIFACTS = """
import contextlib, io, sys
from fsifem import cli
with contextlib.redirect_stdout(io.StringIO()):
    for args in {runs!r}:
        assert cli.main(args + ["--out", sys.argv[1] + "/" + args[1]]) == 0, args
"""


def _digests(root):
    """`sha256sum` lines of every file under `root`, sorted by path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def test_artifacts_match_committed_digests_under_one_and_two_blas_threads(tmp_path):
    committed = (Path(__file__).parent / "artifacts.sha256").read_text().splitlines()
    src = str(Path(cli.__file__).resolve().parents[1])
    script = _WRITE_ARTIFACTS.format(runs=_ARTIFACT_RUNS)
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert _digests(out) == committed, f"{threads} BLAS thread(s)"
