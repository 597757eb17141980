import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import csv_without_wall_time

import mmvsolve
from mmvsolve import ProblemSpec, gen_instance, write_matrix
from mmvsolve import cli, harness
from mmvsolve.cli import main


def strip_walltime(text):
    return re.sub(r"wall_time_s=\S+", "wall_time_s=*", text)


def test_solve_prints_summary(capsys):
    code = main(
        ["solve", "--n", "10", "--N", "20", "--L", "3", "--k", "2", "--seed", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("solver=nesta ")
    assert "rel_error=" in out and "inner_iters=" in out and "wall_time_s=" in out


def test_solve_deterministic_except_walltime(capsys):
    args = ["solve", "--n", "10", "--N", "20", "--L", "3", "--k", "2", "--seed", "9",
            "--solver", "iterative-nesta", "--use-music"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert strip_walltime(first) == strip_walltime(second)


def test_solve_spec_file_and_dump(tmp_path, capsys):
    spec_file = tmp_path / "case.txt"
    spec_file.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nnoise_sigma = 0\nseed = 12\n"
    )
    dump = tmp_path / "estimate.csv"
    code = main(["solve", "--spec", str(spec_file), "--dump-estimate", str(dump)])
    assert code == 0
    est = np.loadtxt(dump, delimiter=",", ndmin=2)
    inst = gen_instance(ProblemSpec(n=10, N=20, L=3, k=2, rank=2, seed=12))
    rel = np.linalg.norm(est - inst.X_true) / np.linalg.norm(inst.X_true)
    assert rel < 1e-3


# ``mmvsolve solve`` output on fixed seeds, wall_time_s removed: the four
# solvers, a noisy Gaussian spec file and a loaded operator/data pair
SOLVE_PIN = [
    "solver=nesta rel_error=8.571448642393181e-05 residual=3.0006203508625224e-16 "
    "support_exact=1 inner_iters=97 outer_iters=1",
    "solver=iterative-nesta rel_error=6.045857596555116e-17 residual=7.505561329662603e-17 "
    "support_exact=1 inner_iters=166 outer_iters=2",
    "solver=iht rel_error=1.196228098426972e-16 residual=2.0434424045405772e-16 "
    "support_exact=1 inner_iters=0 outer_iters=1",
    "solver=smv rel_error=8.495607772136673e-05 residual=2.784217668602551e-16 "
    "support_exact=1 inner_iters=293 outer_iters=1",
    "solver=nesta rel_error=0.014777691497168278 residual=0.05388877434123126 "
    "support_exact=0 inner_iters=127 outer_iters=1",
    "solver=nesta residual=2.280831551728593e-16 inner_iters=274 outer_iters=1",
]


def summary_fields(line):
    """A summary line's key-value pairs without wall_time_s; floats as floats,
    integers and text as text."""
    fields = dict(token.split("=", 1) for token in line.split())
    fields.pop("wall_time_s", None)
    for key, value in fields.items():
        if not value.isdigit():
            try:
                fields[key] = float(value)
            except ValueError:
                pass
    return fields


def test_solve_output_is_pinned(tmp_path, capsys):
    base = ["solve", "--n", "10", "--N", "20", "--L", "3", "--k", "2", "--seed", "5"]
    runs = [base + ["--solver", solver] for solver in ("nesta", "iterative-nesta", "iht", "smv")]
    spec_file = tmp_path / "case.txt"
    spec_file.write_text(
        "n = 12\nN = 24\nL = 2\nk = 3\nrank = 2\nnoise_sigma = 0.01\n"
        "matrix_kind = gaussian\nseed = 21\n"
    )
    runs.append(["solve", "--spec", str(spec_file)])
    inst = gen_instance(ProblemSpec(n=10, N=20, L=3, k=2, rank=2, seed=3))
    a_path, b_path = tmp_path / "A.csv", tmp_path / "B.csv"
    write_matrix(a_path, inst.problem.A.entries)
    write_matrix(b_path, inst.problem.B)
    runs.append(["solve", "--load-matrix", str(a_path), "--load-data", str(b_path)])
    for args, expected in zip(runs, SOLVE_PIN, strict=True):
        assert main(args) == 0
        got, want = summary_fields(capsys.readouterr().out), summary_fields(expected)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert got[key] == value, key


def spec_of_flags(flags, monkeypatch, capsys):
    """The ProblemSpec ``mmvsolve solve`` generates its instance from."""
    specs = []

    def recording(spec):
        specs.append(spec)
        return gen_instance(spec)

    monkeypatch.setattr(cli, "gen_instance", recording)
    assert main(["solve", *flags]) == 0
    capsys.readouterr()
    (spec,) = specs
    return spec


@pytest.mark.parametrize("k, L", [(2, 3), (4, 3)])
def test_solve_flags_left_out_take_the_spec_defaults_and_rank_min_k_l(k, L, monkeypatch, capsys):
    flags = ["--n", "10", "--N", "20", "--L", str(L), "--k", str(k)]
    assert spec_of_flags(flags, monkeypatch, capsys) == ProblemSpec(10, 20, L, k, rank=min(k, L))


def test_solve_flags_given_all_reach_the_spec(monkeypatch, capsys):
    flags = ["--n", "10", "--N", "20", "--L", "3", "--k", "4", "--rank", "2", "--noise", "0.01",
             "--seed", "7", "--matrix-kind", "gaussian"]
    assert spec_of_flags(flags, monkeypatch, capsys) == ProblemSpec(
        10, 20, 3, 4, rank=2, noise_sigma=0.01, matrix_kind="gaussian", seed=7
    )


def test_solve_missing_dimensions_exits_2(capsys):
    assert main(["solve", "--n", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_spec_value_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "case.txt"
    spec_file.write_text("n = 10\nN = 20\nL = 3\nk = eight\nrank = 2\n")
    assert main(["solve", "--spec", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'k'" in err


@pytest.mark.parametrize(
    "extra, words",
    [("noise_sigm = 0.5", "key 'noise_sigm' unknown"), ("k = 10", "key 'k' repeated")],
)
def test_solve_spec_with_an_unknown_or_repeated_key_exits_2(extra, words, tmp_path, capsys):
    # a misspelt key must not solve noiselessly, nor a repeated one take its last value
    spec_file = tmp_path / "case.txt"
    spec_file.write_text(f"n = 20\nN = 40\nL = 3\nk = 8\nrank = 2\n{extra}\n")
    assert main(["solve", "--spec", str(spec_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {spec_file}:6: {words}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_noise_exits_2(value, capsys):
    assert main(["solve", "--n", "16", "--N", "32", "--L", "2", "--k", "3", "--noise", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise_sigma" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_eps_exits_2(value, capsys):
    assert main(["solve", "--n", "16", "--N", "32", "--L", "2", "--k", "3", "--eps", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon" in err


def solve_residual(args, capsys):
    assert main(["solve", *args]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    return float(re.search(r"residual=(\S+)", line).group(1))


@pytest.mark.parametrize(
    "args,eps",
    [
        (["--n", "16", "--N", "32", "--L", "4", "--k", "3", "--seed", "1"], 0.5),
        (
            ["--n", "12", "--N", "24", "--L", "2", "--k", "3", "--rank", "2",
             "--noise", "0.01", "--matrix-kind", "gaussian", "--seed", "21"],
            0.05,
        ),
    ],
)
def test_solve_smv_eps_is_the_problem_radius(args, eps, capsys):
    # smv splits the given radius as eps / sqrt(L) per column, so the
    # stacked residual stays inside the ball that --eps asks for
    residual = solve_residual([*args, "--solver", "smv", "--eps", str(eps)], capsys)
    assert residual <= eps * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "solver,flags",
    [
        pytest.param("iht", ["--eps", "0.05"], id="--eps-0.05"),
        pytest.param("iht", ["--mu-final", "1e-3"], id="--mu-final-1e-3"),
        pytest.param("iht", ["--use-music"], id="iht--use-music"),
        pytest.param("nesta", ["--use-music"], id="nesta--use-music"),
        pytest.param("smv", ["--use-music"], id="smv--use-music"),
        pytest.param("nesta", ["--k-threshold", "3"], id="nesta--k-threshold-3"),
        pytest.param("smv", ["--k-threshold", "3"], id="smv--k-threshold-3"),
    ],
)
def test_solve_iht_rejects_noise_ball_and_smoothing_flags(solver, flags, tmp_path, capsys):
    # the solver never reads the flag, so it would be ignored without a word
    spec_file = tmp_path / "case.txt"
    spec_file.write_text(
        "n = 12\nN = 24\nL = 2\nk = 3\nrank = 2\nnoise_sigma = 0.01\n"
        "matrix_kind = gaussian\nseed = 21\n"
    )
    assert main(["solve", "--spec", str(spec_file), "--solver", solver, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags[0]} does not apply to --solver {solver}")


def readme_commands():
    """Every ``mmvsolve ...`` line of README's shell blocks, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [line.split()[1:] for line in lines if line.startswith("mmvsolve ")]


def test_readme_commands_parse_and_pass_the_solver_flag_rule():
    commands = readme_commands()
    assert len(commands) >= 7
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # exits on an unknown flag or value
        if args.command == "solve":
            cli.check_solver_flags(args)
            cli.check_problem_source(args)


@pytest.mark.parametrize(
    "args, named",
    [
        ("--spec case.txt --n 12 --seed 5 --noise 0.1", "--n, --noise, --seed; --spec"),
        ("--load-matrix A.csv --load-data B.csv --spec case.txt --seed 3", "--seed; --spec; --"),
        ("--n 8 --N 16 --L 2 --k 2 --load-matrix A.csv --load-data B.csv", "--k; --load-matrix"),
        ("--spec case.txt --load-data B.csv", "--spec; --load-data"),
    ],
    ids=["spec-and-flags", "loaded-spec-and-flags", "flags-and-loaded", "spec-and-data"],
)
def test_solve_takes_its_problem_from_exactly_one_source(
    args, named, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    inst = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=3))
    write_matrix("A.csv", inst.problem.A.entries)
    write_matrix("B.csv", inst.problem.B)
    Path("case.txt").write_text("n = 8\nN = 16\nL = 2\nk = 2\nrank = 2\n")
    assert main(["solve", *args.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solve takes its problem from one source")
    assert named in captured.err


def test_solve_loaded_matrices(tmp_path, capsys):
    inst = gen_instance(ProblemSpec(n=10, N=20, L=3, k=2, rank=2, seed=3))
    a_path, b_path = tmp_path / "A.csv", tmp_path / "B.csv"
    write_matrix(a_path, inst.problem.A.entries)
    write_matrix(b_path, inst.problem.B)
    code = main(["solve", "--load-matrix", str(a_path), "--load-data", str(b_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rel_error" not in out  # no ground truth available
    assert "residual=" in out


def test_solve_loaded_requires_k_for_iht(tmp_path, capsys):
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=3))
    a_path, b_path = tmp_path / "A.csv", tmp_path / "B.csv"
    write_matrix(a_path, inst.problem.A.entries)
    write_matrix(b_path, inst.problem.B)
    code = main(
        ["solve", "--load-matrix", str(a_path), "--load-data", str(b_path), "--solver", "iht"]
    )
    assert code == 2
    capsys.readouterr()


def inconsistent_pair(tmp_path):
    # rows e0, e1, e0 of a 3x5 operator: B's first and last entries must
    # agree for an exact fit, and 1 and 5 do not
    A = np.zeros((3, 5))
    A[0, 0] = A[1, 1] = A[2, 0] = 1.0
    a_path, b_path = tmp_path / "A.csv", tmp_path / "B.csv"
    write_matrix(a_path, A)
    write_matrix(b_path, np.array([[1.0], [2.0], [5.0]]))
    return ["--load-matrix", str(a_path), "--load-data", str(b_path)]


@pytest.mark.parametrize(
    "eps, message",
    [
        (None, "exact consistency demanded but the data has components outside the range"),
        ("0.5", "feasible set is empty: best attainable residual 2.82843 exceeds eps = 0.5"),
    ],
    ids=["exact", "eps"],
)
def test_solve_infeasible_loaded_problem_exits_3(eps, message, tmp_path, capsys):
    flags = [] if eps is None else ["--eps", eps]
    assert main(["solve", *inconsistent_pair(tmp_path), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "given, missing", [(0, "--load-data"), (2, "--load-matrix")], ids=["matrix-only", "data-only"]
)
def test_solve_loaded_flag_without_its_pair_exits_2(given, missing, tmp_path, capsys):
    flags = inconsistent_pair(tmp_path)[given : given + 2]
    assert main(["solve", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} requires {missing}\n"


def test_spark_subcommand(tmp_path, capsys):
    path = tmp_path / "m.csv"
    write_matrix(path, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert main(["spark", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
def test_spark_rejects_a_tolerance_outside_0_1(tmp_path, capsys, tol):
    path = tmp_path / "m.csv"
    write_matrix(path, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert main(["spark", "--matrix", str(path), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "rank_tol" in captured.err


@pytest.mark.parametrize(
    "text", ["", "\n\n", "a,b\n", "1,2\n3\n"], ids=["empty", "blank", "word", "ragged"]
)
def test_spark_on_a_csv_without_a_matrix_exits_2_naming_the_file_and_no_warning(
    text, tmp_path, capsys
):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spark", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: matrix from {path}")
    assert captured.err.count("\n") == 1


def test_spark_missing_file_exits_4(tmp_path, capsys):
    assert main(["spark", "--matrix", str(tmp_path / "nope.csv")]) == 4
    capsys.readouterr()


def test_spark_oversize_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    write_matrix(path, np.ones((2, 21)))
    assert main(["spark", "--matrix", str(path)]) == 2
    capsys.readouterr()


def test_music_subcommand(tmp_path, capsys):
    inst = gen_instance(
        ProblemSpec(n=10, N=20, L=3, k=3, rank=3, matrix_kind="gaussian", seed=17)
    )
    a_path, b_path = tmp_path / "A.csv", tmp_path / "B.csv"
    write_matrix(a_path, inst.problem.A.entries)
    write_matrix(b_path, inst.problem.B)
    code = main(["music", "--matrix", str(a_path), "--data", str(b_path), "--k", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "rank=3"
    assert out[1] == "support=" + ",".join(str(i) for i in inst.support_true)


def test_sweep_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "res.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 0\ntrials = 2\n"
        f"solvers = nesta\ngrid.k = 2, 3\noutput = {out_csv}\n"
    )
    code = main(["sweep", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 trial rows" in out and "2 aggregate rows" in out
    assert out_csv.exists()


def test_sweep_bad_output_exits_4(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 0\ntrials = 1\n"
        f"solvers = nesta\noutput = {tmp_path}/no_dir/res.csv\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 4
    capsys.readouterr()


def test_sweep_malformed_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 0\ntrials = two\n"
        f"solvers = nesta\noutput = {tmp_path}/res.csv\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'trials'" in err


@pytest.mark.parametrize(
    "lines, key",
    [("solvers = nesta, nesta", "solvers"), ("solvers = nesta\ngrid.k = 2, 2", "grid.k")],
)
def test_sweep_with_a_repeated_value_exits_2_before_any_output(lines, key, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 0\ntrials = 2\n"
        f"{lines}\noutput = {tmp_path}/res.csv\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} repeats a value")
    assert not (tmp_path / "res.csv").exists()


def test_sweep_non_finite_success_threshold_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 0\ntrials = 1\n"
        f"solvers = nesta\nsuccess_threshold = nan\noutput = {tmp_path}/res.csv\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "success_threshold" in err
    assert not (tmp_path / "res.csv").exists()


def test_module_entry_point_runs():
    # the child imports the package under test, wherever pytest found it
    source = str(Path(mmvsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mmvsolve", "solve", "--n", "8", "--N", "16",
         "--L", "2", "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("solver=nesta ")


def test_module_sweep_writes_the_csv_of_an_in_process_serial_run(tmp_path, monkeypatch):
    # a two-cell sweep of small operators: the child may run its cells in
    # worker processes, and must exit 0 with the rows of a serial run
    def config(output):
        cfg = tmp_path / f"{output}.cfg"
        cfg.write_text(
            "n = 16\nN = 32\nL = 3\nk = 2\nrank = 2\nseed = 5\ntrials = 3\n"
            f"solvers = nesta, smv, iht\ngrid.k = 2, 4\noutput = {tmp_path / output}\n"
        )
        return str(cfg)

    source = str(Path(mmvsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mmvsolve", "sweep", "--config", config("child.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "18 trial rows, 6 aggregate rows" in proc.stdout
    monkeypatch.setattr(harness, "_cell_workers", lambda sweep, cells: 1)
    assert main(["sweep", "--config", config("serial.csv")]) == 0
    child = csv_without_wall_time((tmp_path / "child.csv").read_text())
    serial = csv_without_wall_time((tmp_path / "serial.csv").read_text())
    assert len(child) == 2 + 2 * 3 * (3 + 1)
    assert child == serial


@pytest.mark.parametrize("grid", ["grid.k = 2, 32", "grid.n = 32, 0"], ids=["k", "n"])
def test_sweep_bad_grid_value_exits_2_before_any_output(tmp_path, capsys, grid):
    # the first cell is valid; the bad one must stop the sweep before it
    # solves anything or touches the output file
    out_csv = tmp_path / "res.csv"
    out_csv.write_text("earlier results\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 16\nN = 32\nL = 2\nk = 2\nrank = 2\nseed = 0\ntrials = 1\n"
        f"solvers = nesta\n{grid}\noutput = {out_csv}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out_csv.read_text() == "earlier results\n"


def test_sweep_trial_seed_past_the_seed_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = {2**64 - 1}\ntrials = 2\n"
        f"solvers = nesta\noutput = {tmp_path}/res.csv\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "res.csv").exists()
