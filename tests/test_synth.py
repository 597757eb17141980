import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mmvsolve import (
    InvalidArgumentError,
    ProblemSpec,
    Rng64,
    export_instance,
    gen_instance,
    import_instance,
    row_support,
)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(n=4, N=8, L=2, k=8, rank=1)  # k >= N
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=3)  # rank > min(k, L)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=2, noise_sigma=-0.1)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=2, matrix_kind="bernoulli")


def test_spec_stores_integral_float_sizes_as_ints():
    floats = ProblemSpec(n=32.0, N=64.0, L=4.0, k=8.0, rank=4.0, seed=7.0)
    ints = ProblemSpec(n=32, N=64, L=4, k=8, rank=4, seed=7)
    assert floats == ints
    assert all(type(getattr(floats, f)) is int for f in ("n", "N", "L", "k", "rank", "seed"))
    a, b = gen_instance(floats), gen_instance(ints)
    for x, y in ((a.problem.A.entries, b.problem.A.entries), (a.problem.B, b.problem.B)):
        assert x.tobytes() == y.tobytes()
    assert a.X_true.tobytes() == b.X_true.tobytes()


@pytest.mark.parametrize("name", ["n", "N", "L", "k", "rank"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5])
def test_spec_rejects_a_size_that_is_no_integer(name, value):
    fields = dict(n=4, N=8, L=2, k=3, rank=2)
    fields[name] = value
    with pytest.raises(InvalidArgumentError, match=f"{name} must be .*got {value!r}"):
        ProblemSpec(**fields)


@pytest.mark.parametrize("seed", [2.5, -1, 2**64, float("nan")])
def test_spec_rejects_a_seed_outside_64_unsigned_bits(seed):
    with pytest.raises(InvalidArgumentError, match=f"seed .*got {seed!r}"):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=2, seed=seed)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_noise(sigma):
    with pytest.raises(InvalidArgumentError, match="noise_sigma"):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=2, noise_sigma=sigma)


def test_rng_determinism_and_range():
    a = Rng64(123)
    b = Rng64(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Rng64(124)
    assert a.next_u64() != c.next_u64()
    r = Rng64(7)
    us = [r.uniform() for _ in range(1000)]
    assert all(0 < u <= 1 for u in us)
    draws = [r.below(13) for _ in range(500)]
    assert set(draws) <= set(range(13))


@pytest.mark.parametrize("seed", [2.5, -1, 2**64, float("nan"), float("inf"), "3", None])
def test_rng_rejects_the_seeds_a_spec_rejects(seed):
    # truncating 2.5 or wrapping -1 would draw another seed's stream
    with pytest.raises(InvalidArgumentError, match=f"seed .*got {seed!r}"):
        Rng64(seed)
    with pytest.raises(InvalidArgumentError, match=f"seed .*got {seed!r}"):
        ProblemSpec(n=4, N=8, L=2, k=3, rank=2, seed=seed)


def test_rng_normals_moments():
    r = Rng64(99)
    xs = r.normals(200, 50).ravel()
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02


def _scalar_normals(rng, rows, cols):
    """Reference for ``normals``: one ``normal()`` call per entry, row-major."""
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[i, j] = rng.normal()
    return out


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 5])
def test_block_normals_interleave_with_scalar_draws(seed):
    fast, ref = Rng64(seed), Rng64(seed)
    # odd sizes leave a spare that the next call must consume first; the last
    # two calls start with a spare and cross several internal blocks
    calls = [
        ("normals", (3, 5)), ("normal", ()), ("below", (97,)), ("normals", (2, 3)),
        ("normals", (0, 4)), ("normals", (256, 1024)), ("normals", (1, 3)),
        ("normals", (3, 4099)),
    ]
    for name, args in calls:
        if name == "normals":
            got, want = fast.normals(*args), _scalar_normals(ref, *args)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (name, args)
        else:
            assert getattr(fast, name)(*args) == getattr(ref, name)(*args)
        assert fast._state == ref._state, (name, args)
        assert fast._spare == ref._spare, (name, args)


def test_block_normals_memory_is_bounded():
    # numpy reports its buffers to tracemalloc: the peak is the output plus
    # one block's scratch, not a second copy of the matrix
    output_bytes = 512 * 2048 * 8
    tracemalloc.start()
    try:
        Rng64(0).normals(512, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= output_bytes + 2 * 2**20


def test_rng_subset_uniformity():
    r = Rng64(5)
    seen = set()
    for _ in range(400):
        s = r.subset(6, 2)
        assert len(s) == 2 and s[0] < s[1] < 6
        seen.add(s)
    assert len(seen) == 15  # all C(6,2) subsets appear


def test_instance_determinism():
    spec = ProblemSpec(n=12, N=30, L=3, k=4, rank=2, noise_sigma=0.1, seed=77)
    a = gen_instance(spec)
    b = gen_instance(spec)
    assert np.array_equal(a.problem.A.entries, b.problem.A.entries)
    assert np.array_equal(a.problem.B, b.problem.B)
    assert np.array_equal(a.X_true, b.X_true)
    assert a.support_true == b.support_true
    assert a.problem.epsilon == b.problem.epsilon


# SHA-256 of A, B and X_true (``tobytes()``), the support and epsilon for
# fixed specs: both matrix kinds, noiseless and noisy, the criterion-5 sweep
# shape, the Gaussian benchmark shape, a seed near 2^64, and two specs with
# odd n * N, whose Box-Muller spare carries into the next ``normals`` call.
# Any change to the draw stream, the draw order or the construction fails
# here; ``test_instance_determinism`` only compares the code with itself.
PINNED_DRAWS = [
    (
        ProblemSpec(n=32, N=64, L=4, k=8, rank=4, seed=0),
        "b244a01bcb35a1baf7e8258587564ea8bd1532c8f43b67894622f39753dfbb1e",
        "0958b7929798ad6c734b00ad416e1a3e5b2f4fda57df202240509039628bcea2",
        "8de42e742b7d41738bacb0cab211b7d6bd962f38af7d04c568d9a8a7f824b369",
        (27, 28, 33, 34, 43, 46, 48, 61),
        0.0,
    ),
    (
        ProblemSpec(
            n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3,
            matrix_kind="gaussian", seed=0,
        ),
        "f6016c8b28450de9a90717a1c409195ec6769785d6b862e8cce53fa4c7dee015",
        "ce5155e54310809df536973ab1b6d31c164b0347cb33f3ef2ac0aa29c67a2561",
        "28c7befb721ce81fdc48ed26f2a2f5026978f6b98acebb615d20488c3e577951",
        (2, 28, 78, 109, 129, 141, 205, 229, 239, 255, 260, 268, 276, 312, 333,
         395, 406, 435, 499, 501),
        0.0352,
    ),
    (
        ProblemSpec(n=20, N=50, L=3, k=5, rank=3, noise_sigma=0.05, seed=11),
        "f9ee3ea6b033d94d00d68632a2342db0dd9523f09d3a1a0c06a4d57afabccc5d",
        "37955bbf2aae76ad57689f9f3fc85dc20dfe4d0e12f02503b158d060165b9ef8",
        "c4fc72f9bdc93f5177295dcd5987ea20be411513e7ef53594c98758fd1f3872b",
        (2, 11, 29, 34, 47),
        0.42602816808281596,
    ),
    (
        ProblemSpec(
            n=16, N=40, L=2, k=4, rank=2, noise_sigma=0.2,
            matrix_kind="gaussian", seed=2**64 - 5,
        ),
        "0c11d5c47ea1cdb6628fa0726e6d7f1aa49b05f23759ac5f56ce60599f78b31d",
        "224a952b17a3d783792208126b909016726a44e91e2ab47e9ba3f1d205fcf7be",
        "bf60b8bb73ff6d6181998ee5c27026c714895aa0ac350625e584315062d30f65",
        (14, 17, 21, 31),
        1.244507934888324,
    ),
    (
        ProblemSpec(
            n=7, N=13, L=3, k=4, rank=2, noise_sigma=0.1,
            matrix_kind="gaussian", seed=77,
        ),
        "366fc2c7227ed6ea0f295024b56fa69ea0abee77f5bdf635e42d0093bcecf163",
        "aa32512da823f8617da09d3f09ad6e1fb942fced9b503051399fc2898d746184",
        "8c6b9da237c4f19702f68705e8692f6682acadaf04bee0866625a08c1a280ad4",
        (5, 6, 7, 9),
        0.5040833264451424,
    ),
    (
        ProblemSpec(n=9, N=15, L=5, k=3, rank=3, seed=123),
        "01c3e830b8453603c1378780852eddbb801470df2b0a0d747a33020ee2d9c26e",
        "761471792883d99466d155141871604c0652bed28c335f8092a2f2d68b0212b1",
        "99e69b7e7bd1e65160853b8d22d4755c333961c8cb7b34fadf55e45ffef0356a",
        (1, 8, 9),
        0.0,
    ),
]


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "spec,a_sha,b_sha,x_sha,support,epsilon",
    PINNED_DRAWS,
    ids=["sweep", "gaussian", "noisy", "seed-near-2^64", "odd-gaussian", "odd-orthonormal"],
)
def test_draw_stream_is_pinned(spec, a_sha, b_sha, x_sha, support, epsilon):
    inst = gen_instance(spec)
    assert _sha256(inst.problem.A.entries) == a_sha
    assert _sha256(inst.problem.B) == b_sha
    assert _sha256(inst.X_true) == x_sha
    assert inst.support_true.indices == support
    assert inst.problem.epsilon == epsilon


def test_noiseless_instances_are_exactly_consistent():
    inst = gen_instance(ProblemSpec(n=10, N=25, L=4, k=5, rank=3, seed=3))
    assert inst.problem.epsilon == 0.0
    resid = np.linalg.norm(inst.problem.A.entries @ inst.X_true - inst.problem.B)
    assert resid == 0.0


def test_support_and_rank_control():
    spec = ProblemSpec(n=20, N=40, L=4, k=5, rank=4, seed=11)
    inst = gen_instance(spec)
    assert row_support(inst.X_true, 0.0) == inst.support_true
    assert len(inst.support_true) == 5
    sv = np.linalg.svd(inst.X_true, compute_uv=False)
    assert int((sv > 1e-10 * sv[0]).sum()) == 4
    # a rank-3 request on the same shape leaves a negligible 4th value
    inst3 = gen_instance(ProblemSpec(n=20, N=40, L=4, k=5, rank=3, seed=11))
    sv3 = np.linalg.svd(inst3.X_true, compute_uv=False)
    assert sv3[2] > 1e-10 * sv3[0]
    assert sv3[3] < 1e-10 * sv3[0]


def test_rank_control_across_many_specs():
    rng = np.random.default_rng(0)
    for _ in range(30):
        L = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        rank = int(rng.integers(1, min(k, L) + 1))
        N = int(rng.integers(k + 1, 20))
        n = int(rng.integers(1, N + 1))
        spec = ProblemSpec(
            n=n, N=N, L=L, k=k, rank=rank, matrix_kind="gaussian",
            seed=int(rng.integers(0, 2**32)),
        )
        inst = gen_instance(spec)
        sv = np.linalg.svd(inst.X_true, compute_uv=False)
        assert int((sv > 1e-10 * sv[0]).sum()) == rank


def test_row_orthonormal_kind_is_certified():
    inst = gen_instance(ProblemSpec(n=8, N=20, L=2, k=3, rank=2, seed=1))
    assert inst.problem.A.row_orthonormal
    gram = inst.problem.A.entries @ inst.problem.A.entries.T
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_noise_calibration():
    spec = ProblemSpec(n=15, N=30, L=4, k=4, rank=3, noise_sigma=0.05, seed=23)
    inst = gen_instance(spec)
    assert inst.problem.epsilon == pytest.approx(1.1 * np.sqrt(15 * 4) * 0.05)
    resid = np.linalg.norm(inst.problem.A.entries @ inst.X_true - inst.problem.B)
    assert resid <= inst.problem.epsilon  # the slack covers typical draws


def test_export_import_round_trip(tmp_path):
    spec = ProblemSpec(n=9, N=18, L=3, k=3, rank=2, noise_sigma=0.02, seed=55)
    inst = gen_instance(spec)
    prefix = str(tmp_path / "case")
    export_instance(inst, prefix)
    back = import_instance(prefix)
    assert back.spec == spec
    assert np.array_equal(back.problem.A.entries, inst.problem.A.entries)
    assert np.array_equal(back.problem.B, inst.problem.B)
    assert np.array_equal(back.X_true, inst.X_true)
    assert back.support_true == inst.support_true
    assert back.problem.epsilon == inst.problem.epsilon
    assert back.problem.A.row_orthonormal  # certification recomputed on load


def test_import_rejects_a_malformed_spec_file(tmp_path):
    inst = gen_instance(ProblemSpec(n=9, N=18, L=3, k=3, rank=2, seed=55))
    prefix = str(tmp_path / "case")
    export_instance(inst, prefix)
    spec_path = tmp_path / "case_spec.txt"
    lines = spec_path.read_text().splitlines()
    spec_path.write_text("\n".join(line for line in lines if not line.startswith("rank")))
    with pytest.raises(InvalidArgumentError, match="'rank'"):
        import_instance(prefix)
    spec_path.write_text("\n".join(lines[:2] + ["L 3"] + lines[3:]))
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{spec_path}:3:")):
        import_instance(prefix)
