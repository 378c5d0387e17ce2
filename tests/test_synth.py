import functools
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from xembody import (AlignedTrajectory, Demonstration, EmbodimentManifest, JointSpec,
                     KernelBuildError, LinkSpec, PointCloud, SynthConfig, TriMesh,
                     ValidationError, align_trajectory, build_embodiment, build_template,
                     crop_workspace, fps_downsample,
                     generate_actions, mask_robot_points, sample_robot_cloud, sample_surface,
                     synthesize_demonstration, synthesize_observation, template_trajectory)
from xembody import native
from xembody.align import FrameDiagnostics
from xembody.transforms import rotation_about_axis
from xembody.synth import TAG_ROBOT, TAG_SCENE, _fps, _fps_indices, derive_frame_seed


def make_aligned(configs):
    configs = np.asarray(configs, dtype=float)
    diag = FrameDiagnostics(0.0, 0.0, 1, False, (0.0,))
    return AlignedTrajectory(configs, tuple(diag for _ in configs))


def test_actions_hold_last_single_frame(gripper1):
    arm, ee = generate_actions(np.array([[-0.01]]), gripper1)
    assert arm.shape == (1, 0) and ee.shape == (1, 1)
    assert ee[0, 0] == -0.01


def test_actions_shift_by_one(gripper1):
    arm, ee = generate_actions(np.array([[-0.01], [-0.02], [-0.03]]), gripper1)
    assert np.allclose(ee.ravel(), [-0.02, -0.03, -0.03])


def test_actions_split_follows_manifest():
    e = helpers.build_planar2()  # all dof default to arm
    arm, ee = generate_actions(np.zeros((2, 2)), e)
    assert arm.shape == (2, 2) and ee.shape == (2, 0)


@pytest.mark.parametrize("name", ["arm_positions", "ee_positions", "arm_targets", "ee_targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_demonstration_refuses_nonfinite_joint_values(name, bad):
    joints = {key: np.zeros((2, 1))
              for key in ("arm_positions", "ee_positions", "arm_targets", "ee_targets")}
    joints[name][1, 0] = bad
    clouds = (PointCloud(np.zeros((1, 3))),) * 2
    with pytest.raises(ValidationError, match=f"{name} contains non-finite values"):
        Demonstration("toy", clouds, **joints)


def test_crop_inclusive_boundary():
    box = (np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    pc = PointCloud(np.array([[0.5, 0.5, 0.5], [1.0, 0.5, 0.5], [1.0001, 0.5, 0.5]]))
    kept = crop_workspace(pc, box)
    assert len(kept) == 2  # the face point stays, the outside one goes


def test_crop_identity_and_order(rng):
    box = (np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
    pts = rng.uniform(-0.9, 0.9, (50, 3))
    out = crop_workspace(PointCloud(pts), box)
    assert np.array_equal(out.points, pts)


def test_crop_matches_bruteforce_oracle(rng):
    box = (np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))
    pts = rng.uniform(-1, 1, (300, 3))
    out = crop_workspace(PointCloud(pts), box)
    expected = [p for p in pts if np.all(p >= box[0]) and np.all(p <= box[1])]
    assert np.array_equal(out.points, np.array(expected))


def one_link_robot(mesh):
    """A robot of one link at the identity pose."""
    return build_embodiment("onelink", [LinkSpec("base", mesh)], [])


# A unit square at y = 0 over x, z in [0, 1], one corner at the origin.
UNIT_PLATE = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]]),
                     np.array([[0, 1, 2], [0, 2, 3]]))


def test_mask_threshold_semantics():
    robot = one_link_robot(UNIT_PLATE)
    scene = PointCloud(np.array([[0.5, 0.004, 0.25], [0.5, 0.006, 0.25], [0.5, 0.005, 0.25]]))
    out = mask_robot_points(scene, robot, np.zeros(0), tau=0.005)
    # strict <: the 4mm point goes, the 5mm and 6mm points stay
    assert np.array_equal(out.points[:, 1], [0.006, 0.005])


def scene_around(e, q, rng, tau):
    """Table points, surface samples of every link of `e` at `q`, and those
    samples moved by up to 2 tau, so every distance band is populated."""
    samples = sample_robot_cloud(e, q, 300, seed=int(rng.integers(2**31))).points
    jitter = rng.normal(size=samples.shape)
    jitter *= rng.uniform(0, 2 * tau, (len(samples), 1)) / np.linalg.norm(jitter, axis=1,
                                                                         keepdims=True)
    return np.vstack([helpers.table_scene(rng, 200, 60).points, samples, samples + jitter])


def test_mask_matches_bruteforce_oracle(rng, gripper1, hand6):
    for e, tau in ((gripper1, 0.002), (gripper1, 0.02), (hand6, 0.005)):
        q = helpers.random_config(rng, e)
        scene = scene_around(e, q, rng, tau)
        out = mask_robot_points(PointCloud(scene), e, q, tau)
        dist = helpers.surface_distance_reference(scene, e, q)
        assert np.array_equal(out.points, scene[dist >= tau])


def test_mask_monotone_in_tau(rng, hand6):
    q = hand6.mid_range_configuration()
    scene = PointCloud(scene_around(hand6, q, rng, 0.03))
    small = mask_robot_points(scene, hand6, q, 0.01)
    large = mask_robot_points(scene, hand6, q, 0.03)
    small_set = {tuple(p) for p in small.points}
    assert all(tuple(p) in small_set for p in large.points)
    assert len(large) < len(small) < len(scene)


def test_mask_requires_robot_points():
    # A robot without link geometry has no surface to mask against.
    bare = helpers.build_planar2()
    for scene_size in (0, 3):
        with pytest.raises(ValidationError, match="no link geometry"):
            mask_robot_points(PointCloud(np.zeros((scene_size, 3))), bare, np.zeros(2), 0.005)


def random_mesh(rng, scale):
    """Random triangles plus a zero-area face (one vertex thrice), one with a
    repeated corner and one whose corners are collinear."""
    vertices = rng.normal(size=(int(rng.integers(3, 7)), 3)) * scale
    faces = rng.integers(0, len(vertices), (int(rng.integers(1, 6)), 3))
    a, b = vertices[0], vertices[1]
    vertices = np.vstack([vertices, a + rng.uniform(-0.5, 1.5) * (b - a)])
    faces = np.vstack([faces, [[2, 2, 2], [0, 1, 1], [0, 1, len(vertices) - 1]]])
    return TriMesh(vertices, faces[rng.permutation(len(faces))])


def random_rotation(rng):
    axis = rng.normal(size=3)
    return rotation_about_axis(axis / np.linalg.norm(axis), rng.uniform(-np.pi, np.pi))


@st.composite
def robot_mask_cases(draw):
    """A random chain of 1-3 links with random meshes (some bare), rotated
    joint origins and a rotated, shifted base; a configuration; tau; and
    points on, near and around every link."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    tau = draw(st.sampled_from([1e-6, 1e-3, 0.005, 0.02, 0.3, 3.0]))
    n_links = draw(st.integers(1, 3))
    bare = draw(st.lists(st.booleans(), min_size=n_links, max_size=n_links))
    bare[draw(st.integers(0, n_links - 1))] = False
    links = [LinkSpec(f"l{k}", None if bare[k] else random_mesh(rng, scale))
             for k in range(n_links)]
    joints = [JointSpec(f"j{k}", draw(st.sampled_from(["revolute", "prismatic", "fixed"])),
                        f"l{k}", f"l{k + 1}", axis=rng.normal(size=3),
                        origin_rotation=random_rotation(rng),
                        origin_translation=rng.normal(size=3) * scale, lower=-1.0, upper=1.0)
              for k in range(n_links - 1)]
    manifest = EmbodimentManifest(
        base_rotation=random_rotation(rng),
        base_translation=rng.normal(size=3))
    e = build_embodiment("random", links, joints, manifest)
    q = rng.uniform(-1.0, 1.0, e.dof) * scale

    poses = helpers.oracle_link_poses(e, q)
    points = []
    for link in e.links:
        if link.mesh is None:
            continue
        tri = link.mesh.triangles[rng.integers(0, len(link.mesh.faces), 40)]
        bary = rng.dirichlet(np.ones(3), 40)
        on_surface = np.einsum("nk,nkj->nj", bary, tri)
        offsets = rng.normal(size=(40, 3))
        offsets *= rng.uniform(0, 2 * tau, (40, 1)) / np.linalg.norm(offsets, axis=1,
                                                                   keepdims=True)
        lo = link.mesh.vertices.min(axis=0) - 2 * tau
        hi = link.mesh.vertices.max(axis=0) + 2 * tau
        local = np.vstack([on_surface, on_surface + offsets, rng.uniform(lo, hi, (40, 3))])
        m = poses[link.name]
        points.append(local @ m[:3, :3].T + m[:3, 3])
    return e, q, np.vstack(points), tau


@settings(max_examples=120, deadline=None)
@given(case=robot_mask_cases())
def test_mask_matches_dense_triangle_reference(case):
    e, q, points, tau = case
    out = mask_robot_points(PointCloud(points), e, q, tau)
    dist = helpers.surface_distance_reference(points, e, q)
    assert np.array_equal(out.points, points[dist >= tau])


def test_mask_removes_every_surface_sample(rng, gripper1, hand6):
    # No source-robot point survives, and no point at distance >= tau goes.
    tau = 0.005
    for e in (gripper1, hand6):
        q = helpers.random_config(rng, e)
        samples = sample_robot_cloud(e, q, 3000, seed=int(rng.integers(2**31)))
        assert len(mask_robot_points(samples, e, q, tau)) == 0
        scene = scene_around(e, q, rng, tau)
        kept = {tuple(p) for p in mask_robot_points(PointCloud(scene), e, q, tau).points}
        far = scene[helpers.surface_distance_reference(scene, e, q) >= tau]
        assert len(far) > 0 and all(tuple(p) in kept for p in far)


@pytest.mark.parametrize("tau", [1e-6, 0.005, 0.0123, 0.7])
def test_mask_boundary_at_tau(tau):
    # A point at exactly tau stays; one a rounding step closer goes: above and
    # below the plate's interior and beyond two of its edges, in its plane.
    inside = np.nextafter(tau, 0.0)
    offsets = [[0.5, tau, 0.25], [0.25, -tau, 0.5], [-tau, 0.0, 0.5], [0.5, 0.0, -tau]]
    points = np.vstack([offsets, np.where(np.abs(offsets) == tau,
                                          np.sign(offsets) * inside, offsets)])
    out = mask_robot_points(PointCloud(points), one_link_robot(UNIT_PLATE), np.zeros(0), tau)
    assert np.array_equal(out.points, points[:4])


def _peak_mask_bytes(scene, robot, tau):
    tracemalloc.start()
    try:
        out = mask_robot_points(PointCloud(scene), robot, np.zeros(0), tau)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mask_tau_beyond_the_robot_runs_in_bounded_memory(rng):
    # Every point is a candidate for every one of 1,728 faces: 3.5M pairs.
    robot = one_link_robot(helpers.grid_box_mesh(0.01, 12))
    scene = rng.uniform(-0.5, 0.5, (2000, 3))
    out, peak = _peak_mask_bytes(scene, robot, 0.5)
    assert np.array_equal(out.points, scene[helpers.box_surface_distance(scene, 0.01) >= 0.5])
    assert 0 < len(out) < len(scene)
    assert peak < 24 * 2**20


def test_mask_tiny_tau_over_a_large_robot_runs_in_bounded_memory(rng):
    # A 1 m box of 1,728 faces at tau = 1 um: every point inside the box is a
    # candidate for every face; points within 0.7 um of the surface go.
    robot = one_link_robot(helpers.grid_box_mesh(0.5, 12))
    surface = sample_robot_cloud(robot, np.zeros(0), 200, seed=3).points
    near = surface + rng.uniform(-4e-7, 4e-7, (200, 3))
    scene = np.vstack([near, rng.uniform(-0.6, 0.6, (2000, 3))])
    out, peak = _peak_mask_bytes(scene, robot, 1e-6)
    assert np.array_equal(out.points, scene[helpers.box_surface_distance(scene, 0.5) >= 1e-6])
    assert len(out) <= len(scene) - 200
    assert peak < 24 * 2**20


@pytest.mark.parametrize("q", [[np.nan], [np.inf], [0.0, 0.0], [[0.0]], 0.0],
                         ids=["nan", "inf", "two-entries", "two-dimensional", "scalar"])
@pytest.mark.parametrize("scene_size", [0, 3])
def test_mask_rejects_bad_configuration(gripper1, q, scene_size):
    with pytest.raises(ValidationError):
        mask_robot_points(PointCloud(np.zeros((scene_size, 3))), gripper1, q, 0.005)


@pytest.mark.parametrize("tau", [0.0, -0.005, np.inf, np.nan])
def test_mask_rejects_bad_tau(gripper1, tau):
    with pytest.raises(ValidationError):
        mask_robot_points(PointCloud(np.zeros((1, 3))), gripper1, np.array([-0.01]), tau)
    with pytest.raises(ValidationError):
        SynthConfig(tau=tau)


def test_robot_cloud_on_box_surface():
    from xembody.robot import EmbodimentManifest, LinkSpec, build_embodiment

    mesh = helpers.box_mesh((0.5, 0.5, 0.5))
    e = build_embodiment("boxbot", [LinkSpec("base", mesh)], [], EmbodimentManifest())
    cloud = sample_robot_cloud(e, np.zeros(0), 200, seed=0)
    assert len(cloud) == 200
    assert np.all(cloud.tags == TAG_ROBOT)
    on_face = np.isclose(np.abs(cloud.points), 0.5, atol=1e-12).any(axis=1)
    inside = np.all(np.abs(cloud.points) <= 0.5 + 1e-12, axis=1)
    assert np.all(on_face & inside)
    # One link at the identity base pose: the robot cloud is the mesh sampler's draw.
    assert np.array_equal(cloud.points, sample_surface(mesh, 200, np.random.default_rng(0))[0])


def test_robot_cloud_translation_equivariance(gripper1):
    from xembody.robot import EmbodimentManifest, build_embodiment

    base = sample_robot_cloud(gripper1, np.array([-0.01]), 100, seed=5)
    manifest = EmbodimentManifest(
        arm_joints=(), ee_joints=("slide",), pad_links=gripper1.pad_links,
        base_translation=np.array([0.0, 0.0, 0.5]),
    )
    shifted_e = build_embodiment("shifted", list(gripper1.links), list(gripper1.joints), manifest)
    shifted = sample_robot_cloud(shifted_e, np.array([-0.01]), 100, seed=5)
    assert np.allclose(shifted.points, base.points + [0, 0, 0.5], atol=1e-12)


def test_robot_cloud_area_split():
    # Two links with a 9:1 surface-area ratio.
    from xembody.robot import EmbodimentManifest, JointSpec, LinkSpec, build_embodiment

    big = helpers.box_mesh((0.3, 0.3, 0.3))   # area 6*0.36
    small = helpers.box_mesh((0.1, 0.1, 0.1))  # area 6*0.04 -> ratio 9:1
    links = [LinkSpec("a", big), LinkSpec("b", small)]
    joints = [JointSpec("j", "fixed", "a", "b", origin_translation=(5, 0, 0))]
    e = build_embodiment("two", links, joints, EmbodimentManifest())
    n = 10000
    cloud = sample_robot_cloud(e, np.zeros(0), n, seed=0)
    near_big = np.abs(cloud.points).max(axis=1) <= 0.3 + 1e-9
    p = 0.9
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(near_big.sum() - n * p) <= 3 * sigma


def test_robot_cloud_warns_on_bare_link(planar2):
    with pytest.warns(UserWarning, match="no geometry"):
        e = helpers.build_planar2(with_geometry=True)
        sample_robot_cloud(e, np.zeros(2), 10, seed=0)


def test_fps_identity_when_sizes_match(rng):
    pts = rng.normal(size=(12, 3))
    out = fps_downsample(PointCloud(pts), 12, start_index=3)
    assert {tuple(p) for p in out.points} == {tuple(p) for p in pts}


def test_fps_square_corners_beat_center():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0.0]])
    out = fps_downsample(PointCloud(pts), 4, start_index=0)
    assert {tuple(p) for p in out.points} == {tuple(p) for p in pts[:4]}


def test_fps_matches_greedy_oracle(rng):
    pts = rng.normal(size=(40, 3))
    start = 7
    out = fps_downsample(PointCloud(pts), 8, start_index=start)

    selected = [start]
    dist = np.linalg.norm(pts - pts[start], axis=1)
    while len(selected) < 8:
        pick = int(np.argmax(dist))
        selected.append(pick)
        dist = np.minimum(dist, np.linalg.norm(pts - pts[pick], axis=1))
    assert np.array_equal(out.points, pts[selected])


def _fps_indices_reference(points, n, start):
    """The einsum loop `_fps_indices` replaced; it must pick the same indices."""
    selected = np.empty(n, dtype=np.int64)
    selected[0] = start
    with np.errstate(over="ignore"):  # offsets of +-1e308 rows overflow to inf
        diff = points - points[start]
        dist = np.einsum("mk,mk->m", diff, diff)
        for k in range(1, n):
            pick = int(np.argmax(dist))  # first occurrence = lowest index on ties
            selected[k] = pick
            diff = points - points[pick]
            np.minimum(dist, np.einsum("mk,mk->m", diff, diff), out=dist)
    return selected


@st.composite
def fps_cases(draw):
    """A cloud, a target size and a start. Coarse clouds are full of duplicate
    points and tied distances; seeded clouds reach the sizes the pipeline
    downsamples."""
    kind = draw(st.sampled_from(["coarse", "fine", "seeded"]))
    if kind == "seeded":
        m = draw(st.integers(1, 3000))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = rng.normal(size=(m, 3)) * draw(st.sampled_from([1e-3, 0.3, 50.0]))
        if draw(st.booleans()):
            pts = np.round(pts, 1)
    else:
        m = draw(st.integers(1, 40))
        coord = (st.integers(-3, 3).map(lambda v: v / 10) if kind == "coarse"
                 else st.floats(-10, 10, allow_nan=False))
        pts = np.array(draw(st.lists(coord, min_size=3 * m, max_size=3 * m))).reshape(m, 3)
    n = draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    return pts, n, draw(st.integers(0, m - 1))


# Points whose offsets from a pick are permutations of one another tie in exact
# arithmetic; the summation order sets the last bit of each squared distance and
# so breaks the tie. This cloud picks differently under (dx² + dy²) + dz².
LAST_BIT_TIES = np.array([[-0.2, 0.3, 0.1], [0.3, 0.1, 0.2], [-0.1, 0.2, -0.3], [-0.2, -0.1, 0.1],
                          [0.0, 0.2, 0.3], [-0.1, -0.1, 0.0], [0.1, 0.0, 0.1], [0.3, 0.2, -0.1]])


@settings(max_examples=150, deadline=None)
@given(case=fps_cases())
@example(case=(LAST_BIT_TIES, 8, 0))
def test_fps_indices_match_einsum_reference(case):
    pts, n, start = case
    assert np.array_equal(_fps_indices(pts, n, start), _fps_indices_reference(pts, n, start))


def test_fps_deficit_pads_to_exact_size(rng):
    pts = rng.normal(size=(5, 3))
    out = fps_downsample(PointCloud(pts), 9, seed=3)
    assert len(out) == 9
    assert np.array_equal(out.points[:5], pts)
    existing = {tuple(p) for p in pts}
    assert all(tuple(p) in existing for p in out.points[5:])


def test_fps_empty_is_an_error():
    with pytest.raises(ValidationError):
        fps_downsample(PointCloud(np.zeros((0, 3))), 4)


@pytest.mark.parametrize("n, start", [
    (4, True), (True, 0), (4.0, 0), (4, 2.5), (4, np.float64(2)), ("4", 0), (None, 0),
], ids=["bool-start", "bool-size", "float-size", "float-start", "numpy-float-start",
        "string-size", "no-size"])
def test_fps_refuses_non_integer_size_and_start(n, start):
    with pytest.raises(ValidationError, match="must be an integer"):
        fps_downsample(PointCloud(np.arange(30.0).reshape(10, 3)), n, start)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_fps_accepts_numpy_integers(kind):
    pts = np.arange(30.0).reshape(10, 3)
    out = fps_downsample(PointCloud(pts), kind(4), kind(2))
    assert np.array_equal(out.points, pts[_fps_indices_reference(pts, 4, 2)])


@pytest.mark.parametrize("n, start", [(0, 0), (11, 0), (4, -1), (4, 10)])
def test_fps_indices_refuses_out_of_range_arguments(n, start):
    with pytest.raises(ValidationError):
        _fps_indices(np.zeros((10, 3)), n, start)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fps_indices_refuses_non_finite_rows(bad):
    # With a NaN in row 4 the kernel picked [0, 4, 4, 4, 4] where the einsum
    # reference picks [0, 4, 0, 0, 0]: such rows are refused instead.
    pts = np.random.default_rng(11).normal(size=(10, 3))
    pts[4, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        _fps_indices(pts, 5, 0)


_rows = np.random.default_rng(4).normal(size=(60, 6))
FPS_EDGE_CASES = {
    "one-point": (np.array([[0.5, -1.0, 2.0]]), 1, 0),
    "start-at-last-row": (_rows[:, :3].copy(), 20, 59),
    "all-identical": (np.ones((25, 3)), 25, 7),
    # Squared distances overflow to inf, so every pick is a tie at inf.
    "overflow-to-inf": (np.array([[1e200, -1e200, 0.0], [-1e200, 1e200, 3e200], [0.0, 0.0, 0.0],
                                  [2e200, 1e200, -1e200], [-3e200, 0.0, 1e200]]), 5, 2),
    "strided-rows": (_rows[::2, :3], 30, 4),
    "strided-columns": (_rows[:, ::2], 40, 1),
    "fortran-order": (np.asfortranarray(_rows[:, 3:]), 60, 0),
    "float32": (_rows[:, :3].astype(np.float32), 45, 9),
    # Clouds that bin into a grid of cells (the kernel aims at 32 rows a cell).
    "one-cell": (np.random.default_rng(5).normal(size=(63, 3)), 40, 62),
    "empty-cells": (np.vstack([np.random.default_rng(6).normal(size=(99, 3)) * 1e-3,
                               [[5.0, 5.0, 5.0]]]), 60, 0),
    "one-point-per-cell": (np.repeat(np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1)
                                     .reshape(-1, 3), 32, axis=0), 200, 17),
    "flat-z": (np.column_stack([np.random.default_rng(7).uniform(-0.2, 0.2, (300, 2)),
                                np.full(300, -0.05)]), 150, 3),
    "flat-all": (np.full((200, 3), 0.25), 120, 199),
    # Extents overflow to inf: one cell on that axis, and many distances are inf.
    "overflow-extent": (np.column_stack([np.random.default_rng(8).choice([-1e308, 1e308], 120),
                                         np.random.default_rng(9).normal(size=(120, 2))]),
                        90, 5),
    "n-equals-m": (np.random.default_rng(10).normal(size=(100, 3)), 100, 42),
    # An extent of a few subnormals: cells per unit length overflow to inf,
    # and every squared distance underflows to 0.
    "subnormal-extent": (np.column_stack([np.arange(200) * 5e-324, np.zeros((200, 2))]), 50, 7),
}


@pytest.mark.parametrize("case", FPS_EDGE_CASES.values(), ids=FPS_EDGE_CASES.keys())
def test_fps_kernel_edges_match_einsum_reference(case):
    pts, n, start = case
    got = _fps_indices(pts, n, start)
    assert np.array_equal(got, _fps_indices_reference(pts.astype(np.float64), n, start))


def test_fps_kernel_overflow_ties_go_to_the_lowest_index():
    pts, n, start = FPS_EDGE_CASES["overflow-to-inf"]
    assert _fps_indices(pts, n, start).tolist() == [2, 0, 1, 3, 4]


def _final_dist_reference(points, picks):
    """Each row's squared distance to the nearest pick but the last, by the
    reference's einsum; inf when there is one pick."""
    dist = np.full(len(points), np.inf)
    for pick in picks[:-1]:
        diff = points - points[pick]
        np.minimum(dist, np.einsum("mk,mk->m", diff, diff), out=dist)
    return dist


@st.composite
def pipeline_clouds(draw):
    """Clouds shaped like a synthesized frame's union: a table slab of zero
    z-extent, a clustered object, dense samples of the posed hand6 link
    surfaces and duplicated rows, in float64 or float32-rounded coordinates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table, obj, robot, dup = (int(rng.integers(0, size + 1)) * draw(st.booleans())
                              for size in (800, 200, 1100, 100))
    parts = [
        np.column_stack([rng.uniform(-0.2, 0.2, (table, 2)), np.full(table, -0.05)]),
        rng.uniform([-0.01, -0.029, -0.012], [0.01, -0.025, 0.012], (obj, 3)),
    ]
    if robot:
        hand = _hand6()
        q = rng.uniform(hand.lower_limits, hand.upper_limits)
        parts.append(sample_robot_cloud(hand, q, robot, int(rng.integers(2**31))).points)
    pts = np.vstack(parts)
    if len(pts) == 0:
        pts = rng.normal(size=(1, 3))
    if dup:
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), dup)]])
    pts = rng.permutation(pts)
    if draw(st.booleans()):
        pts = pts.astype(np.float32).astype(np.float64)
    m = len(pts)
    n = draw(st.sampled_from([1, m, int(rng.integers(1, min(m, 1024) + 1))]))
    return pts, n, int(rng.integers(0, m))


@functools.cache
def _hand6():
    return helpers.build_hand6()


@settings(max_examples=100, deadline=None)
@given(case=pipeline_clouds())
def test_fps_on_pipeline_clouds_matches_einsum_reference(case):
    pts, n, start = case
    picks, dist, updates = _fps(pts, n, start)
    assert np.array_equal(picks, _fps_indices_reference(pts, n, start))
    assert np.array_equal(dist, _final_dist_reference(pts, picks))
    assert 0 <= updates <= (n - 1) * len(pts)


def test_fps_pruning_skips_most_updates_on_a_frame(hand6):
    # A retarget-shaped frame: a table scene and the hand's samples, 1,724 rows
    # down to 1,024. Without pruning every pick would update every row.
    rng = np.random.default_rng(12)
    scene = helpers.table_scene(rng)
    robot = sample_robot_cloud(hand6, hand6.mid_range_configuration(), 1724 - len(scene), 3)
    pts = np.vstack([scene.points, robot.points])
    picks, _, updates = _fps(pts, 1024, 100)
    assert np.array_equal(picks, _fps_indices_reference(pts, 1024, 100))
    assert updates < 0.5 * 1023 * 1724
    # A cloud too small for a second cell runs the plain loop: distinct rows
    # keep a positive distance until picked, so every pick updates every row.
    pts = rng.normal(size=(63, 3))
    assert _fps(pts, 40, 0)[2] == 39 * 63


@pytest.fixture()
def fresh_kernel():
    """Drop the process's loaded kernels so the test builds its own; the next
    caller rebuilds them."""
    native.load_kernels.cache_clear()
    yield
    native.load_kernels.cache_clear()


def test_fps_kernel_build_failure_names_the_compiler(monkeypatch, fresh_kernel):
    monkeypatch.setattr(native, "_COMPILER", "xembody-missing-cc")
    with pytest.raises(KernelBuildError, match="xembody-missing-cc"):
        fps_downsample(PointCloud(np.arange(30.0).reshape(10, 3)), 4)


def test_fps_kernel_build_leaves_no_files(monkeypatch, tmp_path, fresh_kernel):
    made = []

    def mkdtemp(*args, **kwargs):
        made.append(real_mkdtemp(*args, **kwargs))
        return made[-1]

    real_mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    native.load_kernels()
    assert len(made) == 1 and os.path.dirname(made[0]) == str(tmp_path)
    assert list(tmp_path.iterdir()) == []
    pts = _rows[:, :3]
    assert np.array_equal(_fps_indices(pts, 10, 3), _fps_indices_reference(pts, 10, 3))


def test_observation_pipeline_size_and_tags(gripper1, hand6):
    scene = helpers.table_scene(np.random.default_rng(0))
    cfg = SynthConfig(robot_points=512, output_size=256, seed=9)
    out = synthesize_observation(scene, gripper1, np.array([-0.02]),
                                 hand6, hand6.mid_range_configuration(), cfg)
    assert len(out) == cfg.output_size
    assert out.tags is not None
    assert set(np.unique(out.tags)) <= {TAG_SCENE, TAG_ROBOT}
    assert (out.tags == TAG_ROBOT).sum() > 0


def test_observation_empty_scene_yields_pure_robot_cloud(gripper1, hand6):
    scene = PointCloud(np.zeros((0, 3)))
    cfg = SynthConfig(robot_points=512, output_size=128, seed=1)
    out = synthesize_observation(scene, gripper1, np.array([-0.02]),
                                 hand6, hand6.mid_range_configuration(), cfg)
    assert len(out) == 128
    assert np.all(out.tags == TAG_ROBOT)


def test_observation_large_tau_yields_pure_robot_cloud(gripper1):
    # With tau covering the whole workspace every scene point is masked, so the
    # output is exactly the augmented robot cloud and the robot-tagged fraction
    # equals the augmentation proportion of the union (here 1.0).
    scene = helpers.table_scene(np.random.default_rng(1))
    cfg = SynthConfig(tau=10.0, robot_points=256, output_size=128, seed=2)
    out = synthesize_observation(scene, gripper1, np.array([-0.02]),
                                 gripper1, np.array([-0.02]), cfg)
    assert len(out) == 128
    assert np.all(out.tags == TAG_ROBOT)


def test_observation_equals_stage_composition(gripper1, hand6):
    from xembody.synth import _subseed

    scene = helpers.table_scene(np.random.default_rng(3))
    cfg = SynthConfig(robot_points=256, output_size=200, seed=4)
    frame_seed = derive_frame_seed(cfg.seed, "demo", 0)
    source_q = np.array([-0.02])
    target_q = hand6.mid_range_configuration()
    got = synthesize_observation(scene, gripper1, source_q, hand6, target_q, cfg, frame_seed)

    cropped = crop_workspace(scene, gripper1.workspace)
    masked = mask_robot_points(cropped, gripper1, source_q, cfg.tau)
    augmented = sample_robot_cloud(hand6, target_q, 256, _subseed(frame_seed, "augment"))
    union = PointCloud(np.vstack([masked.points, augmented.points]),
                       np.concatenate([np.full(len(masked), TAG_SCENE, np.uint8),
                                       augmented.tags]))
    start = int(np.random.default_rng(_subseed(frame_seed, "fps")).integers(len(union)))
    expected = fps_downsample(union, 200, start, _subseed(frame_seed, "pad"))
    assert np.array_equal(got.points, expected.points)
    assert np.array_equal(got.tags, expected.tags)
    # pinned stage order shows up in the intermediate counts
    assert len(cropped) <= len(scene)
    assert len(masked) < len(cropped)  # the source robot overlaps the scene here
    assert len(union) == len(masked) + 256


def test_observation_is_deterministic(gripper1, hand6):
    scene = helpers.table_scene(np.random.default_rng(5))
    cfg = SynthConfig(robot_points=128, output_size=64, seed=12)
    a = synthesize_observation(scene, gripper1, np.array([-0.01]), hand6,
                               hand6.mid_range_configuration(), cfg, 77)
    b = synthesize_observation(scene, gripper1, np.array([-0.01]), hand6,
                               hand6.mid_range_configuration(), cfg, 77)
    assert np.array_equal(a.points, b.points)


def test_synthesize_demonstration_end_to_end(gripper1, hand6):
    traj = helpers.pinch_trajectory(6)
    demo = helpers.make_source_demo(gripper1, traj, seed=2, n_table=200, n_object=40)
    source_template = build_template(gripper1, gripper1.pad_links, 8, seed=0)
    target_template = build_template(hand6, hand6.pad_links, 8, seed=0)
    rep = template_trajectory(gripper1, source_template, traj)
    aligned = align_trajectory(rep, hand6, target_template)
    cfg = SynthConfig(robot_points=256, output_size=128, seed=3)
    out = synthesize_demonstration(demo, gripper1, hand6, aligned, cfg, demo_id="d0")

    assert len(out) == len(demo)
    assert out.embodiment == "hand6"
    assert out.arm_positions.shape == (6, 0)
    assert out.ee_positions.shape == (6, 6)  # 1-dof gripper -> 6-dof hand
    assert out.ee_targets.shape == (6, 6)
    assert np.allclose(out.ee_positions, aligned.configs)
    assert np.allclose(out.ee_targets[:-1], aligned.configs[1:])
    assert all(len(c) == 128 for c in out.clouds)
    assert out.initial_state == demo.initial_state


def test_synthesize_demonstration_length_mismatch(gripper1, hand6):
    traj = helpers.pinch_trajectory(4)
    demo = helpers.make_source_demo(gripper1, traj, n_table=50, n_object=10)
    with pytest.raises(ValidationError):
        synthesize_demonstration(demo, gripper1, hand6, make_aligned(np.zeros((3, 6))),
                                 SynthConfig())


def test_self_transfer_demo_preserves_proprioception(gripper1):
    traj = helpers.pinch_trajectory(5)
    demo = helpers.make_source_demo(gripper1, traj, seed=1, n_table=150, n_object=30)
    template = build_template(gripper1, gripper1.pad_links, 8, seed=1)
    rep = template_trajectory(gripper1, template, traj)
    aligned = AlignedTrajectory(
        traj, tuple(FrameDiagnostics(0, 0, 1, False, (0.0,)) for _ in range(5)))
    cfg = SynthConfig(robot_points=128, output_size=64, seed=0)
    out = synthesize_demonstration(demo, gripper1, gripper1, aligned, cfg, demo_id="s")
    assert np.array_equal(out.ee_positions, demo.ee_positions)
    assert all(len(c) == 64 for c in out.clouds)


def test_demonstration_synthesis_respects_interleaved_dof_split():
    from xembody.robot import EmbodimentManifest, JointSpec, LinkSpec, build_embodiment

    links = [LinkSpec("base", helpers.box_mesh((0.05, 0.05, 0.02))),
             LinkSpec("a", helpers.box_mesh((0.02, 0.02, 0.02)), None),
             LinkSpec("b", helpers.pad_plate(0.01, 0.01, +1.0), None)]
    joints = [
        JointSpec("arm0", "revolute", "base", "a", axis=(0, 0, 1), lower=-1, upper=1,
                  origin_translation=(0.1, 0, 0)),
        JointSpec("grip", "prismatic", "a", "b", axis=(0, 1, 0), lower=-0.1, upper=0.1,
                  origin_translation=(0.05, 0, 0)),
    ]
    manifest = EmbodimentManifest(
        arm_joints=("arm0",), ee_joints=("grip",), pad_links=("b",),
        workspace=(np.array([-1.0, -1, -1]), np.array([1.0, 1, 1])),
    )
    e = build_embodiment("mixbot", links, joints, manifest)
    # DFS order is (arm0, grip) but give visibly different arm/ee values so a
    # block-concatenation mixup would misplace the robot cloud.
    traj = np.array([[0.5, -0.08], [0.6, -0.06]])
    demo = helpers.make_source_demo(e, traj, seed=5, n_table=80, n_object=16)
    aligned = make_aligned(traj)
    cfg = SynthConfig(robot_points=64, output_size=32, seed=6)
    out = synthesize_demonstration(demo, e, e, aligned, cfg, demo_id="mix")

    expected = synthesize_observation(demo.clouds[0], e, traj[0], e, traj[0], cfg,
                                      derive_frame_seed(cfg.seed, "mix", 0))
    assert np.array_equal(out.clouds[0].points, expected.points)
    assert np.array_equal(out.arm_positions[:, 0], traj[:, 0])
    assert np.array_equal(out.ee_positions[:, 0], traj[:, 1])


def test_frame_seed_derivation_is_stable():
    a = derive_frame_seed(1, "demo-x", 5)
    assert a == derive_frame_seed(1, "demo-x", 5)
    assert a != derive_frame_seed(1, "demo-x", 6)
    assert a != derive_frame_seed(2, "demo-x", 5)
    assert a != derive_frame_seed(1, "demo-y", 5)
