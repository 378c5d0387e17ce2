import numpy as np
import pytest

from xembody import TriMesh, ValidationError, box_mesh, sample_surface
from xembody.mesh import load_obj, load_stl, outward_face_normals


def test_box_mesh_normals_are_axis_aligned_outward():
    mesh = box_mesh((0.5, 0.5, 0.5))
    normals = outward_face_normals(mesh)
    axes = np.eye(3)
    for n in normals:
        assert any(np.allclose(np.abs(n), a, atol=1e-12) for a in axes)
        # outward: aligned with the face centroid direction
    centers = mesh.triangles.mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", normals, centers) > 0)


def test_box_sampling_lands_on_faces_with_axis_normals():
    mesh = box_mesh((0.5, 0.5, 0.5))
    rng = np.random.default_rng(0)
    points, normals, _ = sample_surface(mesh, 6 * 20, rng)
    on_surface = np.isclose(np.abs(points), 0.5, atol=1e-12).any(axis=1)
    assert on_surface.all()
    assert np.allclose(np.abs(normals).max(axis=1), 1.0, atol=1e-12)


def test_single_triangle_barycentric_domain():
    mesh = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
    points, _, faces = sample_surface(mesh, 10, np.random.default_rng(1))
    assert (faces == 0).all()
    # Inside the triangle: x >= 0, y >= 0, x + y <= 1, z = 0.
    assert np.all(points[:, 0] >= -1e-12)
    assert np.all(points[:, 1] >= -1e-12)
    assert np.all(points[:, 0] + points[:, 1] <= 1 + 1e-12)
    assert np.allclose(points[:, 2], 0.0, atol=1e-12)


def test_area_weighted_split_within_binomial_bounds():
    # Two triangles with area ratio 9:1.
    vertices = np.array([[0, 0, 0], [9.0, 0, 0], [0, 2.0, 0], [10.0, 0, 0], [11.0, 0, 0], [10.0, 1.0, 0]])
    mesh = TriMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))
    areas = mesh.face_areas()
    assert np.isclose(areas[0] / areas[1], 18.0)  # 9.0 vs 0.5
    p = areas[0] / areas.sum()
    n = 10000
    _, _, faces = sample_surface(mesh, n, np.random.default_rng(0))
    count = (faces == 0).sum()
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(count - n * p) <= 3 * sigma


def test_sampling_deterministic_per_seed():
    mesh = box_mesh((1, 2, 3))
    a = sample_surface(mesh, 50, np.random.default_rng(7))
    b = sample_surface(mesh, 50, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_points_project_onto_source_face_plane():
    rng = np.random.default_rng(5)
    vertices = rng.normal(size=(6, 3))
    mesh = TriMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))
    points, _, faces = sample_surface(mesh, 200, rng)
    normals = mesh.face_normals()
    for p, f in zip(points, faces):
        offset = np.dot(normals[f], p - vertices[mesh.faces[f][0]])
        assert abs(offset) <= 1e-9


def test_mesh_validation():
    with pytest.raises(ValidationError):
        TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))  # no faces
    with pytest.raises(ValidationError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))  # index out of range
    with pytest.raises(ValidationError):
        box_mesh((1.0, 0.0, 1.0))  # non-positive half extent
    for bad in (np.nan, np.inf):  # non-finite vertex
        with pytest.raises(ValidationError):
            TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, bad, 0]]), np.array([[0, 1, 2]]))


def test_obj_round_trip_and_fan_triangulation():
    text = """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
"""
    mesh = load_obj(text)
    assert len(mesh.faces) == 2
    assert np.isclose(mesh.total_area(), 1.0)


def test_stl_binary_and_ascii():
    import struct

    tri = [(0.0, 0, 0), (1.0, 0, 0), (0.0, 1.0, 0)]
    blob = b"\0" * 80 + struct.pack("<I", 1)
    blob += struct.pack("<3f", 0, 0, 1)
    for v in tri:
        blob += struct.pack("<3f", *v)
    blob += struct.pack("<H", 0)
    mesh = load_stl(blob)
    assert len(mesh.faces) == 1 and np.isclose(mesh.total_area(), 0.5)

    ascii_stl = """solid tri
facet normal 0 0 1
outer loop
vertex 0 0 0
vertex 1 0 0
vertex 0 1 0
endloop
endfacet
endsolid tri
"""
    mesh = load_stl(ascii_stl.encode())
    assert len(mesh.faces) == 1 and np.isclose(mesh.total_area(), 0.5)
