import json

import numpy as np
import pytest

from magcalib.extrinsic import CalibrationResult
from magcalib.geometry import Dataset, Fingerprint, Pose, random_rotation
from magcalib.intrinsic import AffineDistortion
from magcalib.magmap import GpHyperparams, MapError, build_map
from magcalib.serialization import (
    load_calibration_config,
    load_hyper,
    load_map,
    load_result,
    load_rig,
    load_world,
    quat_to_rotmat,
    read_fingerprints,
    rotmat_to_quat,
    save_map,
    save_result,
    write_fingerprints,
)


def test_quaternion_matrix_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        R = random_rotation(rng)
        q = rotmat_to_quat(R)
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.allclose(quat_to_rotmat(q), R, atol=1e-12)


def test_quaternion_norm_rejection():
    with pytest.raises(ValueError, match="norm"):
        quat_to_rotmat([1.0, 0.0, 0.0, 2e-3])
    # tiny deviations are normalized away
    R = quat_to_rotmat([1.0 + 5e-7, 0.0, 0.0, 0.0])
    assert np.allclose(R, np.eye(3), atol=1e-9)


def _dataset(n=10, seed=1):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        pose = Pose(random_rotation(rng), rng.uniform(-5.0, 5.0, 3), "lidar", "map")
        reading = rng.uniform(-60.0, 60.0, 3)
        if np.linalg.norm(reading) < 1.0:
            reading += 10.0
        samples.append(Fingerprint(float(i), pose, reading))
    return Dataset("unit", samples)


def test_fingerprint_jsonl_round_trip_bit_identical(tmp_path):
    ds = _dataset()
    path = tmp_path / "fp.jsonl"
    write_fingerprints(ds, path)
    back = read_fingerprints(path)
    assert np.array_equal(back.readings(), ds.readings())
    assert np.array_equal(back.positions(), ds.positions())
    assert np.array_equal(back.timestamps(), ds.timestamps())
    # rotations cross the quaternion boundary: reproduced to ~1 ulp
    assert np.allclose(back.rotations(), ds.rotations(), atol=1e-14)
    # the numeric payload itself keeps round-tripping bit-identically
    path2 = tmp_path / "fp2.jsonl"
    write_fingerprints(back, path2)
    r1 = read_fingerprints(path2)
    assert np.array_equal(r1.readings(), back.readings())
    assert np.array_equal(r1.positions(), back.positions())
    assert np.array_equal(r1.timestamps(), back.timestamps())
    assert np.allclose(r1.rotations(), back.rotations(), atol=1e-15)


def test_fingerprint_record_field_order(tmp_path):
    ds = _dataset(n=1)
    path = tmp_path / "fp.jsonl"
    write_fingerprints(ds, path)
    record = json.loads(path.read_text().strip())
    assert list(record.keys()) == ["t", "p", "q", "B"]


def test_map_save_load_round_trip(tmp_path, gentle_map):
    path = tmp_path / "map.json"
    save_map(gentle_map, path)
    loaded = load_map(path)
    rng = np.random.default_rng(2)
    pts = rng.uniform([2.0, 2.0, 0.6], [6.0, 6.0, 1.2], size=(25, 3))
    a_mean, a_var, _ = gentle_map.query_many(pts)
    b_mean, b_var, _ = loaded.query_many(pts)
    assert np.allclose(a_mean, b_mean, atol=1e-9)
    assert np.allclose(a_var, b_var, atol=1e-9)
    ga, _ = gentle_map.gradient_many(pts)
    gb, _ = loaded.gradient_many(pts)
    assert np.allclose(ga, gb, atol=1e-9)


def test_map_schema_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValueError, match="schema"):
        load_map(path)


def _three_block_map_doc(tmp_path):
    """Saved document of a map on a 3x1x1 block grid."""
    samples = [Fingerprint(float(i), Pose(np.eye(3), np.array([x, 0.5, 0.5]), "mag", "map"),
                           np.array([20.0 + x, 0.0, -40.0]))
               for i, x in enumerate(np.arange(0.0, 6.0, 0.5))]
    field_map = build_map(Dataset("row", samples), GpHyperparams(length_scale=0.5),
                          block_size=2.0, overlap=0.25)
    assert field_map.grid_shape.tolist() == [3, 1, 1]
    path = tmp_path / "map.json"
    save_map(field_map, path)
    return path, json.loads(path.read_text())


def test_map_without_blocks_is_labeled_error(tmp_path):
    path, doc = _three_block_map_doc(tmp_path)
    doc["blocks"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match="block"):
        load_map(path)


@pytest.mark.parametrize("index", [[7, 0, 0], [-1, 0, 0], [0, 1, 0]])
def test_map_block_index_outside_grid_is_labeled_error(tmp_path, index):
    path, doc = _three_block_map_doc(tmp_path)
    doc["blocks"][-1]["index"] = index
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match="outside"):
        load_map(path)


def test_result_round_trip(tmp_path):
    result = CalibrationResult(
        translation=np.array([0.3, -0.1, 0.2]),
        distortion=AffineDistortion(np.eye(3) * 1.05, np.array([1.0, -2.0, 0.5])),
        converged=True,
        iterations=7,
        final_rms=0.12,
        trace=[(np.zeros(3), 5.0), (np.array([0.3, -0.1, 0.2]), 1.0)],
        skipped_samples=0,
    )
    path = tmp_path / "result.json"
    save_result(result, path, data_path="data.jsonl")
    doc = load_result(path)
    assert doc["converged"] is True
    assert doc["iterations"] == 7
    assert doc["data"] == "data.jsonl"
    assert np.allclose(doc["translation"], [0.3, -0.1, 0.2])
    assert len(doc["cost_trace"]) == 2


def test_config_loaders(tmp_path):
    world_doc = {
        "extent": {"lo": [0, 0, 0], "hi": [20, 15, 3]},
        "ambient": [30.0, 0.0, -30.0],
        "dipoles": [{"position": [5, 5, 2.5], "moment": [0, 0, 40]}],
        "seed": 3,
    }
    wp = tmp_path / "world.json"
    wp.write_text(json.dumps(world_doc))
    world = load_world(wp)
    assert world.rng_seed == 3
    assert len(world.dipoles) == 1

    rig_doc = {
        "noise_sigma": 0.2,
        "sensors": [{"offset": [0.3, -0.1, 0.2],
                     "gain": (np.eye(3) * 1.1).tolist(),
                     "bias": [1.0, 2.0, -1.0]}],
    }
    rp = tmp_path / "rig.json"
    rp.write_text(json.dumps(rig_doc))
    rig = load_rig(rp)
    assert rig.n_sensors == 1
    assert rig.noise_sigma == 0.2

    hp = tmp_path / "hyper.json"
    hp.write_text(json.dumps({"length_scale": 0.9, "block_size": 6.0,
                              "overlap": 1.2}))
    hyper, block_size, overlap = load_hyper(hp)
    assert hyper.length_scale == 0.9
    assert block_size == 6.0 and overlap == 1.2

    cp = tmp_path / "config.json"
    cp.write_text(json.dumps({"max_iterations": 40, "lambda_policy": "l_curve"}))
    config = load_calibration_config(cp)
    assert config.max_iterations == 40
    assert config.lambda_policy == "l_curve"
