"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line. The
checks are oracle-based (independent brute force, finite differences,
bisection, exhaustive enumeration) with fixed seeds throughout.
"""

import itertools
import re

import numpy as np

from mmvsolve import (
    FeasibilityProjector,
    IhtConfig,
    MeasurementMatrix,
    MmvProblem,
    ProblemSpec,
    SmoothingConfig,
    SupportSet,
    gen_instance,
    iht_solve,
    initial_state,
    iterative_nesta,
    music_support,
    nesta_solve,
    nesta_step,
    run_sweep,
    smoothed_gradient,
    smoothed_objective,
    spark,
)
from mmvsolve.cli import main as cli_main
from mmvsolve.harness import parse_sweep_config


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# --- 1. gradient correctness ------------------------------------------------


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    mus = (1.0, 0.1, 0.01)
    worst = 0.0
    for trial in range(50):
        N = int(rng.integers(2, 31))
        L = int(rng.integers(1, 6))
        mu = mus[trial % 3]
        cfg = SmoothingConfig(mu=mu)
        alpha = rng.standard_normal((N, L))
        grad = smoothed_gradient(alpha, cfg)
        for i in range(N):
            for j in range(L):
                h = 1e-6 * max(1.0, abs(alpha[i, j]))
                up = alpha.copy()
                up[i, j] += h
                dn = alpha.copy()
                dn[i, j] -= h
                fd = (smoothed_objective(up, cfg) - smoothed_objective(dn, cfg)) / (2 * h)
                err = abs(grad[i, j] - fd)
                if err >= 1e-8:
                    rel = err / max(abs(fd), 1e-300)
                    worst = max(worst, rel)
    _report("1 gradient-vs-finite-differences", worst < 1e-5, f"worst rel err {worst:.3g}")


# --- 2. projection correctness ----------------------------------------------


def _bisection_oracle(phi, B, eps, q, width=1e-12):
    N = phi.shape[1]
    gram = phi.T @ phi

    def alpha_of(lam):
        return np.linalg.solve(np.eye(N) + lam * gram, q + lam * (phi.T @ B))

    def excess(lam):
        return np.linalg.norm(phi @ alpha_of(lam) - B) - eps

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        hi *= 2.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return alpha_of(0.5 * (lo + hi))


def test_criterion_2_projection_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    worst_res, worst_dev, cases = 0.0, 0.0, 0
    while cases < 100:
        orthonormal = cases < 50
        n = int(rng.integers(2, 11))
        N = int(rng.integers(n + 1, 21))
        L = int(rng.integers(1, 5))
        phi = rng.standard_normal((n, N))
        if orthonormal:
            phi = np.linalg.qr(phi.T)[0].T
        B = rng.standard_normal((n, L))
        eps = float(rng.uniform(0.1, 1.0))
        q = rng.standard_normal((N, L)) * 2.0
        if np.linalg.norm(phi @ q - B) <= eps:
            continue
        cases += 1
        if orthonormal:
            A = MeasurementMatrix(phi, row_orthonormal=True, row_gram_scale=1.0)
        else:
            A = MeasurementMatrix(phi)
        proj = FeasibilityProjector(MmvProblem(A=A, B=B, epsilon=eps))
        out = proj(q)
        worst_res = max(worst_res, abs(np.linalg.norm(phi @ out - B) - eps))
        worst_dev = max(worst_dev, float(np.abs(out - _bisection_oracle(phi, B, eps, q)).max()))
    ok = worst_res <= 1e-9 and worst_dev <= 1e-8
    _report(
        "2 projection-vs-bisection-oracle",
        ok,
        f"|res-eps| {worst_res:.3g}, oracle dev {worst_dev:.3g} over {cases} cases",
    )


# --- 3. literal iteration fidelity ------------------------------------------


def test_criterion_3_step_matches_literal_transcription():
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])  # A A^T = 2 I exactly
    B = np.array([[0.5, -0.25], [1.0, 0.75]])
    alpha0 = np.array([[0.1, -0.2], [0.3, 0.45], [-0.5, 0.6]])
    mu, eps = 0.5, 0.25

    def grad(X):
        g = np.zeros_like(X)
        for j in range(X.shape[0]):
            t = np.sqrt((X[j] ** 2).sum())
            g[j] = X[j] / mu if t < mu else X[j] / t
        return g

    def proj(q):
        r = A @ q - B
        rho = np.sqrt((r**2).sum())
        if rho <= eps:
            return q
        return q - (1.0 - eps / rho) * 0.5 * (A.T @ r)

    problem = MmvProblem(A=MeasurementMatrix.from_entries(A), B=B, epsilon=eps)
    sm = SmoothingConfig(mu=mu)
    state = initial_state(alpha0)
    ref_alpha = alpha0.copy()
    accum = np.zeros_like(alpha0)
    worst = 0.0
    for k in range(25):
        g = grad(ref_alpha)
        y = proj(ref_alpha - mu * g)
        accum = accum + ((k + 1) / 2.0) * g
        z = proj(alpha0 - mu * accum)
        tau = 2.0 / (k + 3)
        ref_alpha = tau * z + (1 - tau) * y
        state = nesta_step(state, problem, sm)
        worst = max(
            worst,
            float(np.abs(state.y - y).max()),
            float(np.abs(state.z - z).max()),
            float(np.abs(state.alpha - ref_alpha).max()),
        )
    _report("3 literal-iteration-fidelity", worst <= 1e-12, f"max deviation {worst:.3g}")


# --- 4. noiseless joint recovery ---------------------------------------------


def test_criterion_4_noiseless_recovery_rate():
    wins = 0
    for seed in range(50):
        inst = gen_instance(ProblemSpec(n=40, N=80, L=4, k=5, rank=4, seed=seed))
        report = nesta_solve(inst.problem)
        rel = np.linalg.norm(report.estimate - inst.X_true) / np.linalg.norm(inst.X_true)
        wins += rel < 1e-3
    _report("4 noiseless-recovery-rate", wins >= 45, f"{wins}/50 successes")


# --- 5. joint recovery beats per-channel recovery ----------------------------


def test_criterion_5_joint_beats_per_channel(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "n = 32\nN = 64\nL = 4\nk = 8\nrank = 4\nnoise_sigma = 0\nseed = 0\n"
        "trials = 25\nsolvers = nesta, smv\ngrid.k = 8, 10, 12, 14\n"
        f"success_threshold = 1e-3\noutput = {out}\n"
    )
    _, aggregates = run_sweep(parse_sweep_config(cfg_file))
    dominated = True
    best_gap = -1.0
    rates = {}
    for k in (8, 10, 12, 14):
        joint = aggregates[(32, k, "nesta")]["success_rate"]
        per_channel = aggregates[(32, k, "smv")]["success_rate"]
        rates[k] = (joint, per_channel)
        dominated = dominated and joint >= per_channel
        best_gap = max(best_gap, joint - per_channel)
    ok = dominated and best_gap >= 0.2
    _report(
        "5 joint-vs-per-channel",
        ok,
        " ".join(f"k={k}:{j:.2f}/{s:.2f}" for k, (j, s) in rates.items()),
    )


# --- 6. subspace support detection exactness ---------------------------------


def test_criterion_6_music_exactness():
    ok = True
    details = []
    for k in (2, 3, 4):
        exact = 0
        worst_in, best_out = 0.0, np.inf
        for seed in range(20):
            inst = gen_instance(
                ProblemSpec(
                    n=2 * k + 2, N=4 * k, L=k, k=k, rank=k,
                    matrix_kind="gaussian", seed=seed,
                )
            )
            res = music_support(inst.problem, k)
            exact += res.support == inst.support_true
            mask = inst.support_true.mask(inst.problem.N)
            worst_in = max(worst_in, float(res.scores[mask].max()))
            best_out = min(best_out, float(res.scores[~mask].min()))
        ok = ok and exact == 20 and worst_in < 1e-8 and best_out > 1e-2
        details.append(f"k={k}:{exact}/20 in<{worst_in:.1e} out>{best_out:.1e}")
    _report("6 music-exact-support", ok, " ".join(details))


# --- 7. support recovery at the spark limit -----------------------------------


def test_criterion_7_spark_level_recovery():
    # MMV uniqueness bound (Chen & Huo, IEEE TSP 2006): B = A X has X as its
    # only solution with at most k nonzero rows when
    # k < (spark(A) - 1 + rank(X)) / 2. With rank(X) = k this reads
    # k <= spark(A) - 2, the largest identifiable sparsity, so exact support
    # recovery is asserted there. One row above it, at k = spark(A) - 1
    # (= n for a generic 6 x 12 A), any k columns reproduce B, so only
    # non-uniqueness and an exact fit can be asserted.
    def instance(seed, k):
        return gen_instance(
            ProblemSpec(n=6, N=12, L=k, k=k, rank=k, matrix_kind="gaussian", seed=seed)
        )

    wins = 0
    ambiguous = 0
    exact_fits = 0
    sparks = []
    for seed in range(100, 110):
        probe = instance(seed, 6)
        s = spark(probe.problem.A)
        sparks.append(s)
        inst = instance(seed, s - 2)
        report = iterative_nesta(inst.problem, s - 2, use_music=True)
        wins += report.detected_support == inst.support_true

        above = probe if s - 1 == 6 else instance(seed, s - 1)
        A, B = above.problem.A.entries, above.problem.B
        other_res = min(
            np.linalg.norm(B - A[:, list(S)] @ np.linalg.lstsq(A[:, list(S)], B, rcond=None)[0])
            for S in itertools.combinations(range(12), s - 1)
            if S != tuple(above.support_true)
        )
        ambiguous += other_res <= 1e-10 * np.linalg.norm(B)
        report = iterative_nesta(above.problem, s - 1, use_music=True)
        exact_fits += np.linalg.norm(B - A @ report.estimate) <= 1e-10 * np.linalg.norm(B)
    _report(
        "7 spark-level-recovery",
        wins >= 9 and ambiguous == 10 and exact_fits == 10,
        f"{wins}/10 exact supports at spark(A) - 2; at spark(A) - 1, {ambiguous}/10 "
        f"with another exact support, {exact_fits}/10 exact fits "
        f"(sparks {sorted(set(sparks))})",
    )


def test_criterion_7_companion_support_identifiable_margin():
    # one row below the spark limit the support is identifiable, and the
    # seeded outer loop recovers it every time
    wins = 0
    for seed in range(100, 110):
        inst = gen_instance(
            ProblemSpec(n=6, N=12, L=5, k=5, rank=5, matrix_kind="gaussian", seed=seed)
        )
        assert spark(inst.problem.A) == 7
        report = iterative_nesta(inst.problem, 5, use_music=True)
        wins += report.detected_support == inst.support_true
    _report("7c spark-margin-recovery", wins == 10, f"{wins}/10 exact supports")


# --- 8. hard-thresholding solver ----------------------------------------------


def test_criterion_8a_iht_monotone_residual():
    violations = 0
    for seed in range(50):
        inst = gen_instance(
            ProblemSpec(n=10, N=20, L=3, k=3, rank=2, matrix_kind="gaussian", seed=seed)
        )
        report = iht_solve(inst.problem, IhtConfig(k=3))
        trace = report.objective_trace
        if any(trace[i + 1] > trace[i] + 1e-12 for i in range(len(trace) - 1)):
            violations += 1
    _report("8a iht-monotone-residual", violations == 0, f"{violations} violations in 50 runs")


def test_criterion_8b_iht_matches_exhaustive_oracle():
    wins = 0
    for seed in range(20):
        inst = gen_instance(ProblemSpec(n=8, N=16, L=3, k=2, rank=2, seed=seed))
        report = iht_solve(inst.problem, IhtConfig(k=2, adaptive_step=True, max_iters=5000))
        A, B = inst.problem.A.entries, inst.problem.B
        best, best_res = None, np.inf
        for S in itertools.combinations(range(16), 2):
            sol, _, _, _ = np.linalg.lstsq(A[:, list(S)], B, rcond=None)
            res = np.linalg.norm(B - A[:, list(S)] @ sol)
            if res < best_res:
                best_res, best = res, S
        wins += tuple(report.detected_support) == best
    _report("8b iht-vs-exhaustive-oracle", wins >= 18, f"{wins}/20 oracle matches")


# --- 9. trusted-support acceleration -------------------------------------------


def test_criterion_9_known_support_accelerates():
    blind, seeded = [], []
    for seed in range(20):
        inst = gen_instance(ProblemSpec(n=32, N=64, L=4, k=8, rank=4, seed=seed))
        blind.append(nesta_solve(inst.problem).inner_iterations)
        half = SupportSet(tuple(inst.support_true)[:4])
        seeded.append(nesta_solve(inst.problem, half).inner_iterations)
    ok = np.median(seeded) < np.median(blind)
    _report(
        "9 known-support-acceleration",
        ok,
        f"median {np.median(seeded):.1f} (half known) vs {np.median(blind):.1f} (blind)",
    )


# --- 10. CLI determinism ---------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    solve_args = [
        "solve", "--n", "12", "--N", "24", "--L", "3", "--k", "3", "--seed", "21",
        "--solver", "iterative-nesta", "--use-music",
    ]
    assert cli_main(solve_args) == 0
    first = capsys.readouterr().out
    assert cli_main(solve_args) == 0
    second = capsys.readouterr().out

    def strip(text):
        return re.sub(r"wall_time_s=\S+", "wall_time_s=*", text)

    solve_ok = strip(first) == strip(second)

    csvs = []
    for name in ("a.csv", "b.csv"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "n = 10\nN = 20\nL = 3\nk = 2\nrank = 2\nseed = 3\ntrials = 2\n"
            f"solvers = nesta, iht\ngrid.k = 2, 3\noutput = {tmp_path / name}\n"
        )
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        rows = []
        for line in (tmp_path / name).read_text().splitlines():
            cells = line.split(",")
            if len(cells) == 14:
                del cells[12]  # wall_time_s column
            rows.append(",".join(cells))
        csvs.append(rows)
    sweep_ok = csvs[0] == csvs[1]
    _report("10 cli-determinism", solve_ok and sweep_ok,
            f"solve {'=' if solve_ok else '!='} sweep {'=' if sweep_ok else '!='}")
