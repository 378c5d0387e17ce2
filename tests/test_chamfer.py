from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from xembody import MetricConfig, ValidationError, chamfer, dcd, functional_similarity
from xembody.chamfer import _matches, _pair_costs, _smooth_norm, dcd_value_and_cotangent
from xembody.funcrep import WorldFuncRep


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
    cost = _pair_costs(x.points, x.directions, xp.points, xp.directions, cfg)
    fwd, bwd = np.argmin(cost, axis=1), np.argmin(cost, axis=0)
    return fwd, bwd, cost[np.arange(len(x)), fwd], cost[bwd, np.arange(len(xp))]


def assert_same_matches(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_bruteforce_and_accelerated_agree_bitwise(rng):
    # 600 rows run as three blocks of BLOCK_ROWS against the full matrix.
    x = helpers.random_funcrep(rng, 600, scale=0.3)
    xp = helpers.random_funcrep(rng, 550, scale=0.3)
    assert len(x) > chamfer.BLOCK_ROWS
    for cfg in (MetricConfig(0.5, 0.0), MetricConfig(0.0, 0.0), MetricConfig(0.5, 1e-9)):
        assert_same_matches(_matches(x, xp, cfg), full_matrix_matches(x, xp, cfg))


@st.composite
def blocked_match_cases(draw):
    """Two sets, a metric and a block height of 1 row, exactly N rows or more.
    Tie-heavy sets round coordinates to 0.01 and directions to a few values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))

    def cloud(size):
        points = rng.uniform(-0.05, 0.05, (size, 3))
        dirs = rng.normal(size=(size, 3))
        if tied:
            points = np.round(points, 2)
            dirs = np.round(dirs)
        return WorldFuncRep(points, dirs)

    rows = draw(st.sampled_from([1, n, n + draw(st.integers(1, 5))]))
    cfg = MetricConfig(draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.0, 1e-9])))
    return cloud(n), cloud(m), cfg, rows


@settings(max_examples=120, deadline=None)
@given(case=blocked_match_cases())
def test_blocked_matches_equal_full_matrix_argmins(case):
    x, xp, cfg, rows = case
    with mock.patch.object(chamfer, "BLOCK_ROWS", rows):
        got = _matches(x, xp, cfg)
    assert_same_matches(got, full_matrix_matches(x, xp, cfg))


def test_blocked_matches_keep_the_first_nan_like_argmin():
    # A NaN cost wins a column in np.argmin; the running minimum keeps that.
    x = WorldFuncRep(np.array([[0.0, 0, 0], [1.0, 0, 0], [np.inf, 0, 0]]),
                     np.array([[0, 0, 1.0], [0, 0, 1.0], [0, 0, 1.0]]))
    xp = WorldFuncRep(np.array([[np.inf, 0, 0]]), np.array([[0, 0, 1.0]]))
    cfg = MetricConfig(0.5, 0.0)
    with np.errstate(invalid="ignore"), mock.patch.object(chamfer, "BLOCK_ROWS", 1):
        got = _matches(x, xp, cfg)
        want = full_matrix_matches(x, xp, cfg)
    assert want[1][0] == 2 and np.isnan(want[3][0])
    assert_same_matches(got, want)


def _pair_costs_reference(points_a, dirs_a, points_b, dirs_b, cfg):
    """The einsum kernel `_pair_costs` replaced; it must give the same bits."""
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
    cost = _pair_costs(points_a, dirs_a, points_b, dirs_b, cfg)
    assert np.array_equal(cost, _pair_costs_reference(points_a, dirs_a, points_b, dirs_b, cfg))
    assert np.array_equal(_pair_costs(points_b, dirs_b, points_a, dirs_a, cfg), cost.T)


def test_cotangent_identical_sets_smoothed(rng):
    x = helpers.random_funcrep(rng, 9)
    cfg = MetricConfig(0.5, 1e-9)
    _, d_points, d_dirs = dcd_value_and_cotangent(x, x, cfg)
    n = len(x)
    assert np.allclose(d_points, 0.0, atol=1e-15)
    expected = -cfg.lam * (1.0 / n + 1.0 / n) * x.directions
    assert np.allclose(d_dirs, expected, atol=1e-12)


def test_cotangent_single_pair_lambda_zero():
    x = pair([0, 0, 0], [0, 0, 1])
    xp = pair([1, 0, 0], [0, 0, 1])
    _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, MetricConfig(0.0, 0.0))
    assert np.allclose(d_points, [[2.0, 0.0, 0.0]], atol=1e-15)
    assert np.array_equal(d_dirs, np.zeros((1, 3)))


@pytest.mark.parametrize("seed", range(8))
def test_cotangent_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    x = helpers.random_funcrep(rng, int(rng.integers(2, 8)))
    xp = helpers.random_funcrep(rng, int(rng.integers(2, 8)))
    cfg = MetricConfig(0.5, 1e-9)
    _, d_points, d_dirs = dcd_value_and_cotangent(x, xp, cfg)

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
