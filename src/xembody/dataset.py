"""Demonstration dataset format: directory layout, binary frames, checksums.

Layout (one directory per demonstration):

    <demo>/manifest.json      format marker, byte order, embodiment name,
                              length, dof split, per-frame point counts,
                              initial-state descriptor, seed
    <demo>/frames/000000.bin  one block per frame, little-endian float32:
                              points (M*3), proprioception (Da+De),
                              action (Da+De)

A dataset directory holds demo directories plus ``index.json`` listing (id,
path, embodiment, length, checksum). The checksum is the 64-bit BLAKE2b digest
(hex) of all frame blocks concatenated in order; payloads are float32 on disk
and widened to float64 in memory.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChecksumError, DatasetFormatError
from .fields import Fields
from .robot import Embodiment
from .synth import Demonstration, PointCloud, crop_workspace, generate_actions

DEMO_FORMAT = "xembody-demo"
INDEX_FORMAT = "xembody-dataset"
FORMAT_VERSION = 1

_json = Fields(DatasetFormatError)


@dataclass(frozen=True)
class IndexEntry:
    demo_id: str
    path: str  # relative to the dataset root
    embodiment: str
    length: int
    checksum: str


@dataclass(frozen=True)
class DatasetIndex:
    entries: tuple[IndexEntry, ...]

    def __post_init__(self):
        ids = [e.demo_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DatasetFormatError("duplicate demo ids in index")

    def __len__(self) -> int:
        return len(self.entries)


def _checksum(blocks) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for block in blocks:
        digest.update(block)
    return digest.hexdigest()


def write_demonstration(demo: Demonstration, path: str | Path) -> str:
    """Write one demonstration directory; returns its content checksum."""
    path = Path(path)
    frame_dir = path / "frames"
    frame_dir.mkdir(parents=True, exist_ok=True)
    length = len(demo)
    written = [f"{t:06d}.bin" for t in range(length)]
    point_counts = []
    blocks = []
    for t in range(length):
        points = demo.clouds[t].points.astype("<f4")
        proprio = demo.proprioception(t).astype("<f4")
        action = np.concatenate([demo.arm_targets[t], demo.ee_targets[t]]).astype("<f4")
        block = b"".join([points.tobytes(), proprio.tobytes(), action.tobytes()])
        (frame_dir / written[t]).write_bytes(block)
        point_counts.append(len(points))
        blocks.append(block)

    manifest = {
        "format": DEMO_FORMAT,
        "version": FORMAT_VERSION,
        "byte_order": "little",
        "embodiment": demo.embodiment,
        "length": length,
        "arm_dof": demo.arm_positions.shape[1],
        "ee_dof": demo.ee_positions.shape[1],
        "point_counts": point_counts,
        "initial_state": demo.initial_state,
        "seed": demo.seed,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    # A rewrite in place must not keep frames past the new length.
    for stale in frame_dir.glob("*.bin"):
        if stale.name not in written:
            stale.unlink()
    return _checksum(blocks)


def read_demonstration(path: str | Path, expected_checksum: str | None = None) -> Demonstration:
    """Read and validate one demonstration directory.

    Each frame file is read once. With `expected_checksum`, the bytes are
    verified before any of them is decoded.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    manifest = _json.read(manifest_path)
    if manifest.get("format") != DEMO_FORMAT:
        raise DatasetFormatError(
            f"{path}: expected format {DEMO_FORMAT!r}, got {manifest.get('format')!r}"
        )
    if manifest.get("byte_order") != "little":
        raise DatasetFormatError(
            f"{path}: unsupported byte order {manifest.get('byte_order')!r}"
        )
    where = str(manifest_path)
    embodiment = _json.string(_json.required(manifest, "embodiment", where),
                              f"{where}: 'embodiment'")
    length, arm_dof, ee_dof = (_json.integer(_json.required(manifest, key, where),
                                             f"{where}: {key!r}", minimum=0)
                               for key in ("length", "arm_dof", "ee_dof"))
    point_counts = _json.integers(_json.required(manifest, "point_counts", where),
                                  f"{where}: 'point_counts'", minimum=0)
    # Any integer: a run's seed, which may be negative, is written here as is.
    seed = _json.integer(manifest.get("seed", 0), f"{where}: 'seed'")
    initial_state = _json.object(manifest.get("initial_state", {}), f"{where}: 'initial_state'")
    if len(point_counts) != length:
        raise DatasetFormatError(f"{path}: point_counts has {len(point_counts)} entries, "
                                 f"length is {length}")

    blocks = []
    for t in range(length):
        block_path = path / "frames" / f"{t:06d}.bin"
        try:
            blocks.append(block_path.read_bytes())
        except FileNotFoundError:
            raise DatasetFormatError(f"{path}: missing frame block {block_path.name}") from None
        except OSError as err:
            raise DatasetFormatError(
                f"{path}: cannot read frame block {block_path.name}: {err.strerror}") from err
    if expected_checksum is not None:
        actual = _checksum(blocks)
        if actual != expected_checksum:
            raise ChecksumError(f"{path}: checksum {actual} != recorded {expected_checksum}")

    clouds = []
    dof = arm_dof + ee_dof
    proprios = np.empty((length, dof))
    actions = np.empty((length, dof))
    for t, (raw, m) in enumerate(zip(blocks, point_counts)):
        expected_floats = 3 * m + 2 * dof
        if len(raw) != 4 * expected_floats:
            raise DatasetFormatError(
                f"{path}: frame {t} block is {len(raw)} bytes, expected {4 * expected_floats}"
            )
        flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        clouds.append(PointCloud(flat[: 3 * m].reshape(m, 3)))
        proprios[t] = flat[3 * m : 3 * m + dof]
        actions[t] = flat[3 * m + dof :]

    return Demonstration(
        embodiment=embodiment,
        clouds=tuple(clouds),
        arm_positions=proprios[:, :arm_dof],
        ee_positions=proprios[:, arm_dof:],
        arm_targets=actions[:, :arm_dof],
        ee_targets=actions[:, arm_dof:],
        initial_state=initial_state,
        seed=seed,
    )


def write_index(index: DatasetIndex, dataset_dir: str | Path) -> None:
    doc = {
        "format": INDEX_FORMAT,
        "version": FORMAT_VERSION,
        "demos": [
            {
                "id": e.demo_id,
                "path": e.path,
                "embodiment": e.embodiment,
                "length": e.length,
                "checksum": e.checksum,
            }
            for e in sorted(index.entries, key=lambda e: e.demo_id)
        ],
    }
    (Path(dataset_dir) / "index.json").write_text(json.dumps(doc, sort_keys=True, indent=1))


def read_index(dataset_dir: str | Path) -> DatasetIndex:
    index_path = Path(dataset_dir) / "index.json"
    doc = _json.read(index_path)
    if doc.get("format") != INDEX_FORMAT:
        raise DatasetFormatError(f"{index_path}: not a dataset index")
    demos = doc.get("demos", [])
    if not isinstance(demos, list):
        raise DatasetFormatError(f"{index_path}: 'demos' is not a list")
    return DatasetIndex(tuple(_index_entry(d, f"{index_path}: demos[{k}]")
                              for k, d in enumerate(demos)))


def _index_entry(d, where: str) -> IndexEntry:
    where = f"{where} (id {_json.object(d, where).get('id')!r})"
    demo_id, path, embodiment, checksum = (
        _json.string(_json.required(d, key, where), f"{where}: {key!r}")
        for key in ("id", "path", "embodiment", "checksum"))
    length = _json.integer(_json.required(d, "length", where), f"{where}: 'length'", minimum=0)
    return IndexEntry(demo_id, path, embodiment, length, checksum)


def write_dataset(demos: dict[str, Demonstration], dataset_dir: str | Path) -> DatasetIndex:
    """Write several demonstrations plus their index; ids become directory names."""
    dataset_dir = Path(dataset_dir)
    dataset_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for demo_id in sorted(demos):
        demo = demos[demo_id]
        checksum = write_demonstration(demo, dataset_dir / demo_id)
        entries.append(IndexEntry(demo_id, demo_id, demo.embodiment, len(demo), checksum))
    index = DatasetIndex(tuple(entries))
    write_index(index, dataset_dir)
    return index


def ingest_recorded_log(log_path: str | Path, e: Embodiment, workspace_box) -> Demonstration:
    """Turn a raw recorded log (.npz) into a source demonstration.

    The log holds ``joints`` (L, dof) plus one ``cloud_NNNNNN`` array per
    frame. Clouds are cropped to the workspace box; joint values outside the
    limits are warned about but kept (the recording is ground truth). Actions
    are derived as next-frame joint positions with a hold-last tail.
    """
    data = np.load(Path(log_path))
    if "joints" not in data:
        raise DatasetFormatError(f"{log_path}: log has no 'joints' array")
    joints = np.asarray(data["joints"], dtype=float)
    if joints.ndim != 2 or joints.shape[1] != e.dof:
        raise DatasetFormatError(
            f"{log_path}: joints shape {joints.shape} does not match dof {e.dof}"
        )
    length = len(joints)
    missing = [t for t in range(length) if f"cloud_{t:06d}" not in data]
    if missing:
        raise DatasetFormatError(f"{log_path}: missing frames {missing}")

    lower, upper = e.lower_limits, e.upper_limits
    bad_frames = np.flatnonzero(np.any((joints < lower) | (joints > upper), axis=1))
    if bad_frames.size:
        warnings.warn(
            f"{log_path}: joints outside limits at frames {bad_frames.tolist()}; kept as recorded",
            stacklevel=2,
        )

    clouds = tuple(
        crop_workspace(PointCloud(np.asarray(data[f"cloud_{t:06d}"], dtype=float)), workspace_box)
        for t in range(length)
    )
    arm_positions, ee_positions = e.split_configuration(joints)
    arm_targets, ee_targets = generate_actions(joints, e)
    initial_state = _json.load(str(data["initial_state"]), f"{log_path}: 'initial_state'") \
        if "initial_state" in data else {}
    return Demonstration(
        embodiment=e.name,
        clouds=clouds,
        arm_positions=arm_positions,
        ee_positions=ee_positions,
        arm_targets=arm_targets,
        ee_targets=ee_targets,
        initial_state=initial_state,
    )
