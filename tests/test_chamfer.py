import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from xembody import MetricConfig, ValidationError, dcd, functional_similarity
from xembody.chamfer import _DcdWorkspace, _matches, _smooth_norm, dcd_value_and_cotangent
from xembody.funcrep import WorldFuncRep
from xembody.native import load_kernels


def pair(point, direction):
    return WorldFuncRep(np.array([point], dtype=float), np.array([direction], dtype=float))


def oracle_dcd(x, xp, lam, eps):
    def smooth(d):
        return d if eps == 0 else np.sqrt(d * d + eps * eps) - eps

    total = 0.0
    for a, b in ((x, xp), (xp, x)):
        acc = 0.0
        for i in range(len(a)):
            acc += min(
                smooth(np.linalg.norm(a.points[i] - b.points[j]))
                - lam * float(np.dot(a.directions[i], b.directions[j]))
                for j in range(len(b))
            )
        total += acc / len(a)
    return total


def test_identical_single_pair_gives_minus_two_lambda():
    x = pair([0, 0, 0], [0, 0, 1])
    assert dcd(x, x, MetricConfig(0.5, 0.0)) == -1.0


def test_separated_single_pair():
    x = pair([0, 0, 0], [0, 0, 1])
    xp = pair([1, 0, 0], [0, 0, 1])
    assert np.isclose(dcd(x, xp, MetricConfig(0.5, 0.0)), 1.0, atol=1e-15)


def test_functional_similarity_is_negative_dcd():
    x = pair([0, 0, 0], [0, 0, 1])
    assert functional_similarity(x, x, MetricConfig(0.5, 0.0)) == 1.0


def test_similarity_decreases_when_translated_away():
    x = pair([0, 0, 0], [0, 0, 1])
    near = pair([0.05, 0, 0], [0, 0, 1])
    far = pair([0.15, 0, 0], [0, 0, 1])
    cfg = MetricConfig(0.5, 0.0)
    assert functional_similarity(x, far, cfg) < functional_similarity(x, near, cfg)


def test_lambda_zero_reduces_to_point_chamfer(rng):
    x = helpers.random_funcrep(rng, 6)
    xp = helpers.random_funcrep(rng, 4)
    got = dcd(x, xp, MetricConfig(0.0, 0.0))
    fwd = np.linalg.norm(x.points[:, None] - xp.points[None], axis=2).min(axis=1).mean()
    bwd = np.linalg.norm(xp.points[:, None] - x.points[None], axis=2).min(axis=1).mean()
    assert np.isclose(got, fwd + bwd, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    x = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
    xp = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
    lam = float(rng.choice([0.0, 0.5, 2.0]))
    eps = float(rng.choice([0.0, 1e-9, 1e-3]))
    cfg = MetricConfig(lam, eps)
    assert abs(dcd(x, xp, cfg) - oracle_dcd(x, xp, lam, eps)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_symmetry_is_exact(seed):
    rng = np.random.default_rng(100 + seed)
    x = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
    xp = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
    cfg = MetricConfig(0.5, 0.0)
    assert dcd(x, xp, cfg) == dcd(xp, x, cfg)


def test_identity_bound_for_random_sets(rng):
    for _ in range(20):
        x = helpers.random_funcrep(rng, int(rng.integers(1, 12)))
        assert abs(dcd(x, x, MetricConfig(0.5, 0.0)) + 1.0) <= 1e-12


def test_rigid_invariance(rng):
    from xembody.transforms import rotation_about_axis

    x = helpers.random_funcrep(rng, 7)
    xp = helpers.random_funcrep(rng, 5)
    cfg = MetricConfig(0.5, 0.0)
    base = dcd(x, xp, cfg)
    r = rotation_about_axis(np.array([1 / np.sqrt(3)] * 3), 1.1)
    t = np.array([0.4, -0.2, 0.9])

    def moved(rep):
        return WorldFuncRep(rep.points @ r.T + t, rep.directions @ r.T)

    assert abs(dcd(moved(x), moved(xp), cfg) - base) <= 1e-9


def test_empty_set_is_an_error():
    x = pair([0, 0, 0], [0, 0, 1])
    empty = WorldFuncRep(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        dcd(x, empty)
    with pytest.raises(ValidationError):
        dcd(empty, x)


def full_matrix_matches(x, xp, cfg):
    """Row and column argmins of one full cost matrix, ties to the lowest index."""
    cost = helpers.pair_costs(x.points, x.directions, xp.points, xp.directions, cfg)
    fwd, bwd = np.argmin(cost, axis=1), np.argmin(cost, axis=0)
    return fwd, bwd, cost[np.arange(len(x)), fwd], cost[bwd, np.arange(len(xp))]


def assert_same_matches(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_bruteforce_and_accelerated_agree_bitwise(rng):
    x = helpers.random_funcrep(rng, 600, scale=0.3)
    xp = helpers.random_funcrep(rng, 550, scale=0.3)
    for cfg in (MetricConfig(0.5, 0.0), MetricConfig(0.0, 0.0), MetricConfig(0.5, 1e-9)):
        assert_same_matches(_matches(x, xp, cfg), full_matrix_matches(x, xp, cfg))


@st.composite
def match_cases(draw):
    """Two sets and a metric. Tie-heavy sets round coordinates to 0.01 and
    directions to a few values; some sets hold rows with inf or NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    nonfinite = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))

    def cloud(size):
        points = rng.uniform(-0.05, 0.05, (size, 3))
        dirs = rng.normal(size=(size, 3))
        if tied:
            points = np.round(points, 2)
            dirs = np.round(dirs)
        if nonfinite is not None:
            rows = rng.random(size) < 0.2
            if rng.random() < 0.5:
                points[rows, rng.integers(0, 3)] = nonfinite
            else:
                dirs[rows, rng.integers(0, 3)] = nonfinite
        return WorldFuncRep(points, dirs)

    cfg = MetricConfig(draw(st.sampled_from([0.0, 0.5, 2.0])),
                       draw(st.sampled_from([0.0, 1e-9, 1e-3])))
    return cloud(n), cloud(m), cfg


@settings(max_examples=150, deadline=None)
@given(case=match_cases())
def test_matches_equal_full_matrix_argmins(case):
    x, xp, cfg = case
    got = _matches(x, xp, cfg)
    with np.errstate(invalid="ignore"):
        want = full_matrix_matches(x, xp, cfg)
    assert_same_matches(got, want)


def test_blocked_matches_keep_the_first_nan_like_argmin():
    # A NaN cost wins a column in np.argmin; the running minimum keeps that.
    x = WorldFuncRep(np.array([[0.0, 0, 0], [1.0, 0, 0], [np.inf, 0, 0]]),
                     np.array([[0, 0, 1.0], [0, 0, 1.0], [0, 0, 1.0]]))
    xp = WorldFuncRep(np.array([[np.inf, 0, 0]]), np.array([[0, 0, 1.0]]))
    cfg = MetricConfig(0.5, 0.0)
    got = _matches(x, xp, cfg)
    with np.errstate(invalid="ignore"):
        want = full_matrix_matches(x, xp, cfg)
    assert want[1][0] == 2 and np.isnan(want[3][0])
    assert_same_matches(got, want)


def test_one_shot_dcd_memory_is_linear(rng):
    # The match buffers and one row of costs: 256 x 1024 takes about 28 KiB,
    # where a cost plane alone would take 2 MiB. The kernels load beforehand,
    # once per process.
    x = helpers.random_funcrep(rng, 256, scale=0.1)
    xp = helpers.random_funcrep(rng, 1024, scale=0.1)
    load_kernels()
    tracemalloc.start()
    try:
        dcd(x, xp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10


def test_workspace_of_other_sizes_is_refused(rng):
    x, xp = helpers.random_funcrep(rng, 5), helpers.random_funcrep(rng, 7)
    cfg = MetricConfig(0.5, 0.0)
    for n, m in ((4, 7), (6, 7), (5, 6), (5, 8), (7, 5)):
        with pytest.raises(ValidationError, match="DCD workspace"):
            _matches(x, xp, cfg, _DcdWorkspace(n, m, cfg))
        with pytest.raises(ValidationError, match="DCD workspace"):
            dcd(x, xp, cfg, workspace=_DcdWorkspace(n, m, cfg))
    # A workspace that served these sets refuses others of other sizes.
    workspace = _DcdWorkspace(5, 7, cfg)
    dcd(x, xp, cfg, workspace=workspace)
    with pytest.raises(ValidationError, match="7 target rows got a set of 5"):
        dcd(x, x, cfg, workspace=workspace)


def test_rows_of_any_layout_give_the_reference_matches(rng):
    cfg = MetricConfig(0.5, 1e-9)
    big = helpers.random_funcrep(rng, 24, scale=0.1)
    xp = helpers.random_funcrep(rng, 9, scale=0.1)
    layouts = {
        "strided": WorldFuncRep(big.points[::2], big.directions[::2]),
        "fortran": WorldFuncRep(np.asfortranarray(big.points[:12]),
                                np.asfortranarray(big.directions[:12])),
        "float32": WorldFuncRep(big.points[:12].astype(np.float32),
                                big.directions[:12].astype(np.float32)),
        "columns": WorldFuncRep(big.points[:12, ::-1], big.directions[:12, ::-1]),
    }
    workspace = _DcdWorkspace(12, 9, cfg)
    for x in layouts.values():
        want = full_matrix_matches(x, xp, cfg)
        assert_same_matches(_matches(x, xp, cfg), want)
        assert_same_matches(_matches(x, xp, cfg, workspace), want)
        assert_same_matches(_matches(xp, x, cfg), full_matrix_matches(xp, x, cfg))
    # A strided set is copied afresh on every call, so a change in place shows.
    x = layouts["strided"]
    _matches(x, xp, cfg, workspace)
    x.points[:] = x.points[::-1]
    assert_same_matches(_matches(x, xp, cfg, workspace), full_matrix_matches(x, xp, cfg))


def _pair_costs_reference(points_a, dirs_a, points_b, dirs_b, cfg):
    """The einsum form of `helpers.pair_costs`; it must give the same bits."""
    diff = points_a[:, None, :] - points_b[None, :, :]
    dist = np.sqrt(np.einsum("nmk,nmk->nm", diff, diff))
    cost = _smooth_norm(dist, cfg.epsilon)
    if cfg.lam != 0.0:
        cost = cost - cfg.lam * np.einsum("nk,mk->nm", dirs_a, dirs_b)
    return cost


@st.composite
def pair_cost_cases(draw):
    """Two point-direction sets and a metric. Coarse sets are full of duplicate
    points and tied costs; seeded sets reach a few hundred points per side."""
    kind = draw(st.sampled_from(["coarse", "fine", "seeded"]))

    def cloud(n):
        if kind == "seeded":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            arr = rng.normal(size=(n, 3)) * draw(st.sampled_from([1e-3, 0.3, 50.0]))
            return np.round(arr, 2) if draw(st.booleans()) else arr
        coord = (st.integers(-3, 3).map(lambda v: v / 10) if kind == "coarse"
                 else st.floats(-10, 10, allow_nan=False))
        return np.array(draw(st.lists(coord, min_size=3 * n, max_size=3 * n))).reshape(n, 3)

    size = st.integers(1, 300) if kind == "seeded" else st.integers(1, 30)
    n, m = draw(size), draw(size)
    cfg = MetricConfig(draw(st.sampled_from([0.0, 0.5, 2.0])),
                       draw(st.sampled_from([0.0, 1e-9, 1e-3])))
    return cloud(n), cloud(n), cloud(m), cloud(m), cfg


# Sums that round to different last bits as (x + y) + z and as (x + z) + y,
# the order einsum uses: the offset (-0.1, -0.3, -0.1) between the first
# points, and the dot product of (0.1, 0.3, 0.1) with itself between the
# second directions, whose points coincide so that the cost is -lam * dot.
LAST_BIT_PAIRS = (np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.3]]),
                  np.array([[0.0, 0.0, 1.0], [0.1, 0.3, 0.1]]),
                  np.array([[0.1, 0.3, 0.1], [0.2, -0.1, 0.3]]),
                  np.array([[0.0, 1.0, 0.0], [0.1, 0.3, 0.1]]),
                  MetricConfig(0.5, 0.0))


@settings(max_examples=150, deadline=None)
@given(case=pair_cost_cases())
@example(case=LAST_BIT_PAIRS)
def test_pair_costs_match_einsum_reference(case):
    points_a, dirs_a, points_b, dirs_b, cfg = case
    cost = helpers.pair_costs(points_a, dirs_a, points_b, dirs_b, cfg)
    assert np.array_equal(cost, _pair_costs_reference(points_a, dirs_a, points_b, dirs_b, cfg))
    assert np.array_equal(helpers.pair_costs(points_b, dirs_b, points_a, dirs_a, cfg), cost.T)


def test_cotangent_identical_sets_smoothed(rng):
    x = helpers.random_funcrep(rng, 9)
    cfg = MetricConfig(0.5, 1e-9)
    _, d_points, d_dirs = dcd_value_and_cotangent(x, x, _DcdWorkspace(len(x), len(x), cfg))
    n = len(x)
    assert np.allclose(d_points, 0.0, atol=1e-15)
    expected = -cfg.lam * (1.0 / n + 1.0 / n) * x.directions
    assert np.allclose(d_dirs, expected, atol=1e-12)


def test_cotangent_single_pair_lambda_zero():
    x = pair([0, 0, 0], [0, 0, 1])
    xp = pair([1, 0, 0], [0, 0, 1])
    workspace = _DcdWorkspace(1, 1, MetricConfig(0.0, 0.0))
    _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, workspace)
    assert np.allclose(d_points, [[2.0, 0.0, 0.0]], atol=1e-15)
    assert np.array_equal(d_dirs, np.zeros((1, 3)))


@pytest.mark.parametrize("seed", range(8))
def test_cotangent_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    x = helpers.random_funcrep(rng, int(rng.integers(2, 8)))
    xp = helpers.random_funcrep(rng, int(rng.integers(2, 8)))
    cfg = MetricConfig(0.5, 1e-9)
    _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, _DcdWorkspace(len(x), len(xp), cfg))

    h = 1e-7
    fd_points = np.zeros_like(d_points)
    fd_dirs = np.zeros_like(d_dirs)
    for j in range(len(xp)):
        for k in range(3):
            for arr, out in ((xp.points, fd_points), (xp.directions, fd_dirs)):
                orig = arr[j, k]
                arr[j, k] = orig + h
                up = dcd(x, xp, cfg)
                arr[j, k] = orig - h
                down = dcd(x, xp, cfg)
                arr[j, k] = orig
                out[j, k] = (up - down) / (2 * h)
    fd = np.concatenate([fd_points.ravel(), fd_dirs.ravel()])
    got = np.concatenate([d_points.ravel(), d_dirs.ravel()])
    assert np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-9) <= 1e-6


@st.composite
def cotangent_cases(draw):
    """Two sets and a metric as `match_cases` draws them; some targets are the
    source set itself or repeat a few of their rows."""
    x, xp, cfg = draw(match_cases())
    shape = draw(st.sampled_from(["drawn", "identical", "duplicates"]))
    if shape == "identical":
        xp = WorldFuncRep(x.points.copy(), x.directions.copy())
    elif shape == "duplicates":
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, len(xp))
        xp = WorldFuncRep(xp.points[rows % len(xp)], xp.directions[rows % len(xp)])
    return x, xp, cfg


@settings(max_examples=150, deadline=None)
@given(case=cotangent_cases())
def test_kernel_cotangent_equals_reference(case):
    x, xp, cfg = case
    workspace = _DcdWorkspace(len(x), len(xp), cfg)
    with np.errstate(invalid="ignore"):  # the mean of inf and -inf costs
        _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, workspace)
    fwd, bwd, _, _ = workspace.matches
    want = helpers.cotangent_reference(x, xp.points, fwd, bwd, cfg)
    assert np.array_equal(d_points, want[0], equal_nan=True)
    assert np.array_equal(d_dirs, want[1], equal_nan=True)


def test_cotangent_follows_directions_changed_in_place(rng):
    x, xp = helpers.random_funcrep(rng, 6), helpers.random_funcrep(rng, 9)
    cfg = MetricConfig(0.5, 0.0)
    workspace = _DcdWorkspace(len(x), len(xp), cfg)
    dcd_value_and_cotangent(x, xp, workspace)
    x.directions[:] = -x.directions[::-1]
    _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, workspace)
    fwd, bwd, _, _ = workspace.matches
    want = helpers.cotangent_reference(x, xp.points, fwd, bwd, cfg)
    assert np.array_equal(d_points, want[0])
    assert np.array_equal(d_dirs, want[1])


def test_argmin_couples_position_and_direction():
    # The nearest point by distance alone is NOT the combined argmin here.
    x = pair([0, 0, 0], [0, 0, 1])
    xp = WorldFuncRep(
        np.array([[0.10, 0, 0], [0.30, 0, 0]]),
        np.array([[0, 0, -1.0], [0, 0, 1.0]]),
    )
    cfg = MetricConfig(0.5, 0.0)
    # combined costs: 0.10 + 0.5 = 0.60 vs 0.30 - 0.5 = -0.20 -> index 1 wins
    fwd, _, fwd_vals, _ = _matches(x, xp, cfg)
    assert fwd[0] == 1
    assert np.isclose(fwd_vals[0], -0.2, atol=1e-15)


def test_tie_breaks_to_lowest_index():
    x = pair([0, 0, 0], [0, 0, 1])
    xp = WorldFuncRep(
        np.array([[0.2, 0, 0], [-0.2, 0, 0]]),
        np.array([[0, 0, 1.0], [0, 0, 1.0]]),
    )
    fwd, _, _, _ = _matches(x, xp, MetricConfig(0.5, 0.0))
    assert fwd[0] == 0


def test_metric_config_validation():
    with pytest.raises(ValidationError):
        MetricConfig(-0.1, 0.0)
    with pytest.raises(ValidationError):
        MetricConfig(0.5, -1e-9)
