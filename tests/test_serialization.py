import base64
import copy
import functools
import json
import operator
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magcalib.extrinsic import CalibrationResult
from magcalib.geometry import Dataset, random_rotation
from magcalib import serialization
from magcalib.intrinsic import AffineDistortion
from magcalib.magmap import GpHyperparams, MapError, build_map
from magcalib.sweeps import SweepSpec
from magcalib.serialization import (
    load_calibration_config,
    load_hyper,
    load_map,
    load_result,
    load_rig,
    load_sweep_spec,
    load_world,
    quat_to_rotmat,
    read_fingerprints,
    rotmat_to_quat,
    save_map,
    save_result,
    write_fingerprints,
)

from conftest import identity_dataset, lattice_dataset


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
    rotations = [random_rotation(rng) for _ in range(n)]
    positions = rng.uniform(-5.0, 5.0, size=(n, 3))
    readings = rng.uniform(-60.0, 60.0, size=(n, 3))
    readings[np.linalg.norm(readings, axis=1) < 1.0] += 10.0
    return Dataset("unit", "lidar", np.arange(n, dtype=float), rotations, positions,
                   readings)


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


# the per-record conversions the JSONL path applied one row at a time; the
# columnar path must reproduce them bit for bit


def _reference_quat_to_rotmat(q):
    q = np.asarray(q, float).reshape(4)
    w, x, y, z = q / float(np.linalg.norm(q))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _reference_rotmat_to_quat(R):
    R = np.asarray(R, float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


_HALF_TURNS = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
               np.diag([-1.0, -1.0, 1.0])]  # 180 deg about x, y, z: trace -1


def _rotation(kind, rng):
    if kind == "random":
        return random_rotation(rng)
    if kind == "half_turn_random_axis":   # 2 u u^T - I, trace -1
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        return 2.0 * np.outer(u, u) - np.eye(3)
    if kind == "identity":
        return np.eye(3)
    return _HALF_TURNS[kind]


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.sampled_from(["random", "half_turn_random_axis", "identity", 0, 1, 2]),
                min_size=1, max_size=16),
       st.integers(0, 2**32 - 1))
def test_jsonl_round_trip_matches_per_record_conversion(tmp_path_factory, kinds, seed):
    rng = np.random.default_rng(seed)
    n = len(kinds)
    rotations = np.array([_rotation(kind, rng) for kind in kinds])
    times = np.cumsum(rng.uniform(1e-6, 10.0, n)) - rng.uniform(-1e3, 1e3)
    positions = rng.normal(scale=10.0 ** rng.uniform(-3, 4), size=(n, 3))
    readings = rng.normal(size=(n, 3))
    readings *= (rng.uniform(1e-3, 999.0, n) / np.linalg.norm(readings, axis=1))[:, None]
    ds = Dataset("prop", "lidar", times, rotations, positions, readings)
    path = tmp_path_factory.mktemp("prop") / "fp.jsonl"
    write_fingerprints(ds, path)

    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record, R in zip(records, rotations):
        assert record["q"] == _reference_rotmat_to_quat(R).tolist()
    back = read_fingerprints(path)
    assert np.array_equal(back.timestamps(), times)
    assert np.array_equal(back.positions(), positions)
    assert np.array_equal(back.readings(), readings)
    expected = np.array([_reference_quat_to_rotmat(_reference_rotmat_to_quat(R))
                         for R in rotations])
    assert np.array_equal(back.rotations(), expected)
    singles = np.array([quat_to_rotmat(rotmat_to_quat(R)) for R in rotations])
    assert np.array_equal(singles, expected)


def test_batched_quaternions_match_per_record_conversion():
    rng = np.random.default_rng(4)
    kinds = ["random"] * 1500 + ["half_turn_random_axis"] * 100 + [0, 1, 2, "identity"]
    rotations = np.array([_rotation(kind, rng) for kind in kinds])
    quats = rotmat_to_quat(rotations)
    assert np.array_equal(quats, [_reference_rotmat_to_quat(R) for R in rotations])
    noisy = quats * (1.0 + rng.uniform(-5e-7, 5e-7, size=(len(quats), 1)))
    assert np.array_equal(quat_to_rotmat(noisy), [_reference_quat_to_rotmat(q) for q in noisy])


_GOOD = {"t": 0.0, "p": [1.0, 2.0, 0.5], "q": [1.0, 0.0, 0.0, 0.0], "B": [20.0, 0.0, -40.0]}


def _line(**changes):
    record = {**_GOOD, **changes}
    return json.dumps({k: v for k, v in record.items() if v is not None})


@pytest.mark.parametrize("bad, error, match", [
    ('{"t": 1.0, "p": [1.0, 2.0, 0.5], "q": [1.0, 0.0, 0.0, 0.0], "B": [20.0, 0.0,',
     ValueError, "line 2: bad JSON: Expecting value at column"),
    (_line(t=1.0, q=None), ValueError, "line 2: record has no 'q' key"),
    ("[1.0, 2.0]", ValueError, "line 2: record is not an object"),
    (_line(t=1.0, p=3.0), ValueError, "line 2: record is not an object"),
    (_line(t=1.0, p=[1.0, 2.0]), ValueError, "line 2: .* not \\(2, 4, 3\\)"),
    (_line(t=1.0, q=[1.0, 0.0, 0.0]), ValueError, "line 2: .* not \\(3, 3, 3\\)"),
    (_line(t=1.0, B=[20.0, 0.0, -40.0, 1.0]), ValueError, "line 2: .* not \\(3, 4, 4\\)"),
    (_line(t=1.0, B=[20.0, "x", -40.0]), ValueError, "line 2: values must be numbers"),
    (_line(t=[1.0]), ValueError, "line 2: values must be numbers"),
    (_line(t=1.0, q=[1.0, 0.0, 0.0, 2e-3]), ValueError, "line 2: quaternion norm"),
    (_line(t=1.0, q=[float("nan"), 0.0, 0.0, 0.0]), ValueError, "line 2: quaternion norm"),
    (_line(t=1.0, p=[1.0, float("inf"), 0.5]), ValueError, "line 2: position .* not finite"),
    (_line(t=float("nan")), ValueError, "line 2: timestamp nan is not finite"),
    (_line(t=1.0, B=[0.0, 0.0, 0.0]), ValueError, "line 2: reading magnitude"),
    (_line(t=0.0), ValueError, "line 2: timestamp 0.0 does not follow 0.0"),
    pytest.param(_line(t=10**400), ValueError,
                 "line 2: values must be numbers in the float range", id="int-too-large"),
])
def test_jsonl_errors_name_file_and_line(tmp_path, bad, error, match):
    path = tmp_path / "fp.jsonl"
    # a blank line still counts: the bad record sits on line 3 of the file
    path.write_text(_line() + "\n" + "\n" + bad + "\n" + _line(t=5.0) + "\n")
    with pytest.raises(error, match=match.replace("line 2", "line 3")) as info:
        read_fingerprints(path)
    assert str(path) in str(info.value)


def _outcome(read, path):
    """The bytes of every column ``read(path)`` gives, or its exception's
    type and message."""
    try:
        ds = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.sensor_id, ds.frame, *(getattr(ds, column)().tobytes() for column in (
        "timestamps", "positions", "rotations", "readings"))


def _per_line(path):
    return serialization._read_lines(path, path.stem, "lidar")


_NUMBER_TOKEN = re.compile(r"[-+.eE0-9]+")


_CHUNKS = [1, 300, 1 << 16]  # characters per parsed chunk: one line, a few, all


@settings(max_examples=120, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(0, 54),
       st.sampled_from(["+1", "01", ".5", "1.", "-0", "-0.0", "1e999", "NaN", "1" + "0" * 400,
                        "1E+05", "", '"1"', "true", "1.2.3"]),
       st.sampled_from(_CHUNKS))
def test_array_parse_matches_per_line_reader(tmp_path_factory, n, seed, slot, token, chunk):
    # one number of a written file replaced: the same bits, or the same error
    path = tmp_path_factory.mktemp("token") / "fp.jsonl"
    write_fingerprints(_dataset(n, seed), path)
    lines = path.read_text().splitlines(keepends=True)
    line, k = divmod(slot % (11 * n), 11)
    match = list(_NUMBER_TOKEN.finditer(lines[line]))[k]
    lines[line] = lines[line][:match.start()] + token + lines[line][match.end():]
    path.write_text("".join(lines))
    with mock.patch.object(serialization, "_CHUNK", chunk):
        assert _outcome(read_fingerprints, path) == _outcome(_per_line, path)


def _reorder_keys(line):
    return json.dumps(dict(reversed(json.loads(line).items()))) + "\n"


_LAYOUT_EDITS = {
    "reordered keys": lambda text, i: _edit_line(text, i, _reorder_keys),
    "extra space": lambda text, i: _edit_line(text, i, lambda s: s.replace(", ", ",  ", 1)),
    "space before a comma": lambda text, i: _edit_line(text, i, lambda s: s.replace(",", " ,", 1)),
    "blank line": lambda text, i: _edit_line(text, i, lambda s: "\n" + s),
    "CRLF": lambda text, i: text.replace("\n", "\r\n"),
    "no final newline": lambda text, i: text[:-1],
    # a number moved out of its slot, past a bracket: bad JSON per line
    "number after its list": lambda text, i: _edit_line(
        text, i, lambda s: re.sub(r"(, )([-+.eE0-9]+)\]", r"\1]\2", s, count=1)),
    "number before its list": lambda text, i: _edit_line(
        text, i, lambda s: re.sub(r"\[([-+.eE0-9]+)", r"\1[", s, count=1)),
}


def _edit_line(text, i, edit):
    lines = text.splitlines(keepends=True)
    lines[i % len(lines)] = edit(lines[i % len(lines)])
    return "".join(lines)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(0, 4),
       st.sampled_from(sorted(_LAYOUT_EDITS)), st.sampled_from(_CHUNKS))
def test_other_layouts_read_as_per_line(tmp_path_factory, n, seed, line, edit, chunk):
    path = tmp_path_factory.mktemp("layout") / "fp.jsonl"
    write_fingerprints(_dataset(n, seed), path)
    path.write_bytes(_LAYOUT_EDITS[edit](path.read_text(), line).encode())
    with mock.patch.object(serialization, "_CHUNK", chunk):
        assert _outcome(read_fingerprints, path) == _outcome(_per_line, path)


def test_written_file_is_parsed_one_json_loads_per_chunk(tmp_path, monkeypatch):
    ds = _dataset(n=40)
    positions = ds.positions().copy()
    positions[0] = [1e-07, 1e22, -2.5e-300]  # written with exponents
    path = tmp_path / "fp.jsonl"
    write_fingerprints(Dataset("unit", "lidar", ds.timestamps(), ds.rotations(), positions,
                               ds.readings()), path)
    assert "e-07" in path.read_text() and "e+22" in path.read_text()
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or loads(s, **kw))
    read_fingerprints(path)
    assert len(calls) == 1
    # 1,000-character chunks of whole lines: one parse each
    calls.clear()
    with mock.patch.object(serialization, "_CHUNK", 1000):
        read_fingerprints(path)
    with open(path, encoding="utf-8") as fh:
        assert len(calls) == len(list(iter(lambda: fh.readlines(1000), []))) > 1
    # a blank line leaves the writer's layout: one parse per record
    path.write_text(path.read_text() + "\n")
    calls.clear()
    read_fingerprints(path)
    assert len(calls) == 40


@pytest.mark.parametrize("name", ["gentle_map", "l_shaped_map", "jittered_map"])
def test_map_save_load_round_trip(tmp_path, request, name):
    """The survey loads bit for bit and the map cuts the same blocks from it,
    so every query answers the same: on a lattice map, on the L-shaped map
    (lattice and Cholesky blocks, and empty cells whose points go to the
    nearest block) and on a jittered off-grid survey."""
    field_map = request.getfixturevalue(name)
    path = tmp_path / "map.json"
    save_map(field_map, path)
    loaded = load_map(path)
    assert list(loaded.blocks) == list(field_map.blocks)
    for key, block in field_map.blocks.items():
        other = loaded.blocks[key]
        for a, b in ((block.lo, other.lo), (block.hi, other.hi),
                     (block.train_pos, other.train_pos),
                     (block.train_field, other.train_field)):
            assert np.array_equal(a, b)
    rng = np.random.default_rng(2)
    pts = rng.uniform(field_map.grid_lo, field_map.grid_hi, size=(60, 3))
    a_mean, a_var, _ = field_map.query_many(pts)
    b_mean, b_var, _ = loaded.query_many(pts)
    assert np.array_equal(a_mean, b_mean)
    assert np.array_equal(a_var, b_var)
    ga, _ = field_map.gradient_many(pts)
    gb, _ = loaded.gradient_many(pts)
    assert np.array_equal(ga, gb)


def test_map_schema_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValueError, match="schema"):
        load_map(path)


def _three_block_map():
    """A map on a 3x1x1 block grid along x in [0, 5.5] at y = z = 0.5."""
    xs = np.arange(0.0, 6.0, 0.5)
    data = identity_dataset([[x, 0.5, 0.5] for x in xs],
                            [[20.0 + x, 0.0, -40.0] for x in xs], "row")
    field_map = build_map(data, GpHyperparams(length_scale=0.5), block_size=2.0,
                          overlap=0.25)
    assert field_map.grid_shape.tolist() == [3, 1, 1]
    return field_map


def _three_block_map_doc(tmp_path):
    """Saved document of :func:`_three_block_map`."""
    path = tmp_path / "map.json"
    save_map(_three_block_map(), path)
    return path, json.loads(path.read_text())


def test_save_map_writes_the_bytes_of_json_dump(tmp_path):
    path, doc = _three_block_map_doc(tmp_path)
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert path.read_bytes() == reference.read_bytes()


def _factored(field_map) -> list:
    """Keys of the blocks factored so far: lattice blocks in their slot of
    the map's stacks, off-grid ones in their cached ``fit``."""
    return [key for (key, block), filled in zip(field_map.blocks.items(),
                                                field_map._lattice.filled)
            if filled or "fit" in vars(block)]


def test_blocks_are_factored_on_first_query(tmp_path, monkeypatch):
    eigh, calls = np.linalg.eigh, []  # three per lattice block factored

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    field_map = _three_block_map()
    assert _factored(field_map) == [] and len(calls) == 0
    path = tmp_path / "map.json"
    save_map(field_map, path)
    assert _factored(field_map) == [] and len(calls) == 0
    loaded = load_map(path)
    assert _factored(loaded) == [] and len(calls) == 0
    first = np.array([[1.0, 0.5, 0.5]])
    loaded.query_many(first)
    assert _factored(loaded) == [(0, 0, 0)] and len(calls) == 3
    loaded.query_many(first)
    loaded.gradient_many(first)
    assert _factored(loaded) == [(0, 0, 0)] and len(calls) == 3
    loaded.query_many(np.array([[5.0, 0.5, 0.5]]))
    assert _factored(loaded) == [(0, 0, 0), (2, 0, 0)] and len(calls) == 6


def test_singular_block_raises_on_every_query_naming_the_block(tmp_path):
    """Two positions 1e-12 m apart pass the duplicate guard of ``build_map``
    but give block (2, 0, 0) a singular Gram matrix at zero noise."""
    positions = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [11.0, 0.0, 0.0], [11.0 + 1e-12, 0.0, 0.0]]
    data = identity_dataset(positions, np.tile([20.0, 0.0, -40.0], (4, 1)), "near")
    field_map = build_map(data, GpHyperparams(noise_variance=0.0), block_size=4.0)
    assert sorted(field_map.blocks) == [(0, 0, 0), (2, 0, 0)]
    path = tmp_path / "map.json"
    save_map(field_map, path)
    for each in (field_map, load_map(path)):
        for query in (each.query_many, each.query_many, each.gradient_many):
            with pytest.raises(MapError, match=r"map block \(2, 0, 0\): .*noise_variance"):
                query(np.array([[11.0, 0.0, 0.0]]))
        means, variances, _ = each.query_many(np.array([[0.5, 0.0, 0.0]]))
        assert np.isfinite(means).all() and np.isfinite(variances).all()


def test_concurrent_first_queries_match_sequential(tmp_path):
    xs = np.arange(0.0, 8.0, 0.25)
    data = lattice_dataset(lambda p: np.array([20.0 + np.sin(p[0]), 3.0 * np.cos(p[1]),
                                               -40.0 + 0.1 * p[0] * p[1]]),
                           xs, xs, [0.5, 1.0])
    field_map = build_map(data, GpHyperparams(length_scale=0.7), block_size=2.0)
    assert len(field_map.blocks) == 16
    path = tmp_path / "map.json"
    save_map(field_map, path)
    pts = np.random.default_rng(14).uniform([0.0, 0.0, 0.5], [7.75, 7.75, 1.0], size=(400, 3))

    def first_use(each):
        means, variances, _ = each.query_many(pts)
        return means, variances, each.gradient_many(pts)[0]

    expected = first_use(load_map(path))
    shared = load_map(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first fills too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(first_use, [shared, shared], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 2
    for got in results:
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_map_without_blocks_is_labeled_error(tmp_path):
    """A map whose survey holds no rows has no block to cut."""
    path, doc = _three_block_map_doc(tmp_path)
    doc["positions"] = doc["fields"] = ""
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match="n >= 1"):
        load_map(path)


def test_duplicate_positions_at_zero_noise_are_rejected_on_load(tmp_path):
    """A load checks, as ``build_map`` does, that no two survey positions are
    equal when the noise variance is zero: their Gram matrix is singular."""
    path, doc = _three_block_map_doc(tmp_path)
    doc["hyper"]["noise_variance"] = 0.0
    path.write_text(json.dumps(doc))
    assert len(load_map(path).blocks) == 3
    positions = _decode(doc["positions"]).copy()
    positions[3] = positions[2]
    doc["positions"] = _encode(positions)
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match="duplicated training positions"):
        load_map(path)


def _decode(text):
    return np.frombuffer(base64.b64decode(text), "<f8").reshape(-1, 3)


def _encode(rows):
    return base64.b64encode(np.asarray(rows, "<f8").tobytes()).decode("ascii")


def _set_row(key, row, value):
    """Edit one row of the packed survey ``positions`` or ``fields``:
    decode, edit and encode."""
    def edit(doc):
        rows = _decode(doc[key]).copy()
        rows[row] = value
        doc[key] = _encode(rows)
    return edit


def _repack(key, fn):
    def edit(doc):
        doc[key] = _encode(fn(_decode(doc[key])))
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set_row("positions", 1, [float("nan"), 0.5, 0.5]), "finite"),
    (_set_row("positions", 0, [0.0, float("inf"), 0.5]), "finite"),
    (_set_row("fields", 2, [20.0, float("nan"), -40.0]), "finite"),
    (_set_row("fields", 0, [float("-inf"), 0.0, -40.0]), "finite"),
    (_repack("fields", lambda rows: rows[:-1]), "need shapes"),
    (lambda doc: doc.update(positions=_encode(np.empty((0, 3)))), "need shapes"),
    (_set_row("positions", -1, [5.5, 0.5, float("-inf")]), "finite"),
    (_set_row("fields", -1, [float("nan")] * 3), "finite"),
    (lambda doc: doc.update(positions=_decode(doc["positions"]).tolist()), "do not parse"),
    (lambda doc: doc.update(positions=doc["positions"][:8] + "*" + doc["positions"][8:]),
     "do not parse"),
    (lambda doc: doc.update(positions=base64.b64encode(
        base64.b64decode(doc["positions"])[:-8]).decode("ascii")), "do not parse"),
    (lambda doc: doc.update(positions=base64.b64encode(
        base64.b64decode(doc["positions"])[:-4]).decode("ascii")), "do not parse"),
    (_repack("positions", lambda rows: np.vstack([rows, rows[-1:] + 0.5])), "need shapes"),
])
def test_map_block_arrays_are_checked_on_load(tmp_path, edit, match):
    """The survey arrays that the blocks are cut from are decoded, edited
    and re-encoded; each fault raises ``MapError``. A ``magmap/1`` list of
    rows, a character outside the base64 alphabet (which a lax decoder would
    skip) and a byte count that is not whole rows of 3 floats do not parse;
    ``positions`` and ``fields`` of different lengths, or of none, do not
    make a survey."""
    path, doc = _three_block_map_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match=match):
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
    }
    wp = tmp_path / "world.json"
    wp.write_text(json.dumps(world_doc))
    world = load_world(wp)
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
    kwargs = load_hyper(hp)
    assert sorted(kwargs) == ["block_size", "hyper", "overlap"]
    assert kwargs["hyper"].length_scale == 0.9 and kwargs["hyper"].signal_variance == 25.0
    assert kwargs["block_size"] == 6.0 and kwargs["overlap"] == 1.2

    cp = tmp_path / "config.json"
    cp.write_text(json.dumps({"max_iterations": 40, "lambda_policy": "l_curve"}))
    config = load_calibration_config(cp)
    assert config.max_iterations == 40
    assert config.lambda_policy == "l_curve"


def test_map_stores_packed_float64_rows(tmp_path):
    """The survey is stored once, next to the kernel and block geometry:
    ``positions`` and ``fields`` are base64 of (n, 3) ``<f8`` C-order bytes,
    and no block's overlap rows are stored again."""
    path, doc = _three_block_map_doc(tmp_path)
    field_map = _three_block_map()
    assert doc["schema"] == "magmap/3"
    assert sorted(doc) == ["block_size", "fields", "hyper", "overlap", "positions", "schema"]
    assert doc["positions"] == _encode(field_map.positions)
    assert np.array_equal(_decode(doc["fields"]), field_map.fields)
    assert len(field_map.positions) == 12 < field_map.n_train()


def test_magmap_2_document_is_rejected_naming_magmap_3(tmp_path):
    """A ``magmap/2`` map, with grid metadata and per-block arrays, has no
    reader."""
    field_map = _three_block_map()
    path, doc = _three_block_map_doc(tmp_path)
    doc = {"schema": "magmap/2", "hyper": doc["hyper"], "block_size": doc["block_size"],
           "overlap": doc["overlap"], "grid_lo": field_map.grid_lo.tolist(),
           "grid_shape": field_map.grid_shape.tolist(),
           "blocks": [{"index": list(key), "lo": block.lo.tolist(), "hi": block.hi.tolist(),
                       "positions": _encode(block.train_pos),
                       "fields": _encode(block.train_field)}
                      for key, block in field_map.blocks.items()]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"unsupported schema 'magmap/2', expected "
                                         r"'magmap/3'"):
        load_map(path)


@pytest.mark.parametrize("key, value", [
    ("block_size", 0.0), ("block_size", -2.0), ("block_size", float("inf")),
    ("overlap", -5.0), ("overlap", float("nan")), ("block_size", "wide"),
])
def test_map_grid_metadata_is_checked_on_load(tmp_path, key, value):
    """A bad block geometry raises ``MapError`` naming the file and the key,
    instead of a map that puts every query outside its volume."""
    path, doc = _three_block_map_doc(tmp_path)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(MapError, match=rf"^{re.escape(str(path))}: {key} must be finite"):
        load_map(path)


_DROP, _BROKEN = object(), object()
_SWEEP = {"n_distortions": 1, "path_defaults": {"spacing": 2.5}}
_DOCS = {  # reader and a document it accepts (the map is saved in the test)
    "world": (load_world, {"extent": {"lo": [0, 0, 0], "hi": [20, 15, 3]},
                           "dipoles": [{"position": [5, 5, 2.5], "moment": [0, 0, 40]}]}),
    "rig": (load_rig, {"sensors": [{"offset": [0.3, -0.1, 0.2]}]}),
    "truth": (lambda path: load_rig(path, truth=True),
              {"sensors": [{"offset": [0.3, -0.1, 0.2], "gain": np.eye(3).tolist(),
                            "bias": [1.0, 2.0, -1.0]}]}),
    "hyper": (load_hyper, {"length_scale": 0.9}),
    "config": (load_calibration_config, {"max_iterations": 40}),
    "sweep": (load_sweep_spec, _SWEEP),
    "result": (load_result, {"schema": "calibration-result/1", "translation": [0, 0, 0],
                             "gain": np.eye(3).tolist(), "bias": [0, 0, 0]}),
    "map": (load_map, None),
}


@pytest.mark.parametrize("kind, keys, value, match", [
    ("world", (), [1, 2], "must be a JSON object, got list"),
    ("world", ("ambeint",), [20, 0, -45], r"unknown key\(s\) ambeint$"),
    ("world", ("dipoles", 0, "tilt"), 3, r"dipoles\[0\]: unknown key\(s\) tilt$"),
    ("world", ("extent", "hi"), _DROP, r"extent: missing key\(s\) hi$"),
    ("world", ("ambient",), [5, 0, 0], "ambient magnitude 5.0 uT"),
    ("world", (), _BROKEN, "bad JSON: Expecting"),
    ("rig", (), "sensors", "must be a JSON object, got str"),
    ("rig", ("noise",), 0.1, r"unknown key\(s\) noise$"),
    ("rig", ("sensors", 0, "bais"), [1, 0, 0], r"sensors\[0\]: unknown key\(s\) bais$"),
    ("rig", ("sensors",), _DROP, r"missing key\(s\) sensors$"),
    ("rig", ("noise_sigma",), -1, "noise_sigma must be finite and >= 0, got -1.0$"),
    ("rig", ("sensors", 0, "offset"), [3, 0, 0], "sensor offset .* 2 m"),
    ("rig", (), _BROKEN, "bad JSON"),
    ("truth", ("sensors", 0, "gain"), _DROP, r"sensors\[0\]: missing key\(s\) gain$"),
    ("truth", ("sensors", 0, "gain"), [[1, 0, 0], [1, 0, 0], [0, 0, 1]], "gain matrix"),
    ("hyper", (), 0.9, "must be a JSON object, got float"),
    ("hyper", ("lengthscale",), 0.5, r"unknown key\(s\) lengthscale$"),
    ("hyper", ("length_scale",), -1, "length_scale must be finite and > 0, got -1.0$"),
    ("hyper", (), _BROKEN, "bad JSON"),
    ("config", (), [40, "l_curve"], "must be a JSON object, got list"),
    ("config", (), {"damping": 1.0, "max_iterations": 40, "ridge": 0.1},
     r"unknown key\(s\) damping, ridge$"),
    pytest.param("config", ("max_iterations",), 0, "max_iterations must be an integer >= 1, got 0$",
                 id="config-keys21-0-max_iterations must be >= 1"),
    ("config", ("step_tolerance",), "small",
     "step_tolerance must be finite and > 0, got 'small'$"),
    ("config", (), _BROKEN, "bad JSON"),
    ("sweep", (), None, "must be a JSON object, got NoneType"),
    ("sweep", ("n_distortion",), 10, r"unknown key\(s\) n_distortion$"),
    ("sweep", ("path_defaults", "spcing"), 2, r"path_defaults: unknown key\(s\) spcing$"),
    pytest.param("sweep", ("path_defaults", "n_samples"), 1,
                 "n_samples must be an integer >= 2, got 1$",
                 id="sweep-keys27-1-n_samples must be >= 2"),
    ("sweep", (), _BROKEN, "bad JSON"),
    ("result", (), 7, "must be a JSON object, got int"),
    ("result", ("translaton",), [0, 0, 0], r"unknown key\(s\) translaton$"),
    ("result", ("gain",), _DROP, r"missing key\(s\) gain$"),
    ("result", ("schema",), "other/9", "unsupported schema 'other/9'"),
    ("result", (), _BROKEN, "bad JSON"),
    ("map", (), [], "must be a JSON object, got list"),
    ("map", ("extra",), 1, r"unknown key\(s\) extra$"),
    ("map", ("hyper", "lengthscale"), 1, r"hyper: unknown key\(s\) lengthscale$"),
    ("map", ("positions",), _DROP, r"missing key\(s\) positions$"),
    ("map", ("blocks",), [], r"unknown key\(s\) blocks$"),
    pytest.param("map", ("hyper", "mean_mode"), "median",
                 r"mean_mode must be one of \('constant_per_block', 'zero'\), got 'median'$",
                 id="map-keys39-median-unknown mean_mode 'median'"),
    ("map", ("hyper", "length_scale"), "wide",
     "length_scale must be finite and > 0, got 'wide'$"),
    ("map", (), _BROKEN, "bad JSON"),
    # kernel settings must be finite; config counts must be integers
    ("hyper", ("signal_variance",), float("nan"),
     "signal_variance must be finite and > 0, got nan$"),
    ("hyper", ("noise_variance",), float("inf"),
     "noise_variance must be finite and >= 0, got inf$"),
    ("hyper", ("length_scale",), "nan", "length_scale must be finite and > 0, got 'nan'$"),
    ("map", ("hyper", "signal_variance"), float("nan"),
     "signal_variance must be finite and > 0, got nan$"),
    ("map", ("hyper", "length_scale"), float("-inf"),
     "length_scale must be finite and > 0, got -inf$"),
    pytest.param("config", ("max_iterations",), 40.5,
                 "max_iterations must be an integer >= 1, got 40.5$",
                 id="config-keys47-40.5-max_iterations must be an integer, got 40.5$"),
    pytest.param("config", ("max_iterations",), True,
                 "max_iterations must be an integer >= 1, got True$",
                 id="config-keys48-True-max_iterations must be an integer, got True$"),
    pytest.param("config", ("tsvd_rank",), 2.5,
                 r"tsvd_rank must be an integer in \[1, 7\], got 2.5$",
                 id="config-keys49-2.5-tsvd_rank must be an integer, got 2.5$"),
    pytest.param("config", ("tsvd_rank",), 9, r"tsvd_rank must be an integer in \[1, 7\], got 9$",
                 id=r"config-keys50-9-tsvd_rank must be in \[1, 7\], got 9$"),
    pytest.param("config", ("tsvd_rank",), 0, r"tsvd_rank must be an integer in \[1, 7\], got 0$",
                 id=r"config-keys51-0-tsvd_rank must be in \[1, 7\], got 0$"),
    # a map file carries the whole kernel it was fit with
    ("map", ("hyper",), {}, r"hyper: missing key\(s\) length_scale, signal_variance, "
                            r"noise_variance, mean_mode$"),
    ("map", ("hyper", "noise_variance"), _DROP, r"hyper: missing key\(s\) noise_variance$"),
    # sweep counts must be integers, noise levels finite and >= 0, none of them empty
    pytest.param("sweep", ("n_distortions",), 1.5,
                 "n_distortions must be an integer >= 1, got 1.5$",
                 id="sweep-keys54-1.5-n_distortions must be an integer, got 1.5$"),
    pytest.param("sweep", ("n_distortions",), True,
                 "n_distortions must be an integer >= 1, got True$",
                 id="sweep-keys55-True-n_distortions must be an integer, got True$"),
    pytest.param("sweep", ("n_initial_offsets",), 2.0,
                 "n_initial_offsets must be an integer >= 1, got 2.0$",
                 id="sweep-keys56-2.0-n_initial_offsets must be an integer, got 2.0$"),
    ("sweep", ("seed",), 2.7, "seed must be an integer, got 2.7$"),
    pytest.param("sweep", ("path_defaults", "n_samples"), 50.5,
                 "n_samples must be an integer >= 2, got 50.5$",
                 id="sweep-keys58-50.5-n_samples must be an integer, got 50.5$"),
    ("sweep", ("path_defaults", "seed"), 7.5, "seed must be an integer, got 7.5$"),
    ("sweep", ("noise_levels",), [], "noise_levels must not be empty$"),
    ("sweep", ("noise_levels",), [0.1, -0.1],
     r"noise_levels\[1\] must be finite and >= 0, got -0.1$"),
    ("sweep", ("noise_levels",), [float("nan")],
     r"noise_levels\[0\] must be finite and >= 0, got nan$"),
    ("sweep", ("noise_levels",), ["0.1"],
     r"noise_levels\[0\] must be finite and >= 0, got '0.1'$"),
    ("sweep", ("noise_levels",), [True],
     r"noise_levels\[0\] must be finite and >= 0, got True$"),
    # noise levels are a list, the offset radius finite and >= 0, the path seed no bool
    ("sweep", ("noise_levels",), 0.1, "noise_levels must be a list, got 0.1$"),
    ("sweep", ("offset_range",), -1, "offset_range must be finite and >= 0, got -1.0$"),
    ("sweep", ("offset_range",), float("inf"), "offset_range must be finite and >= 0, got inf$"),
    ("sweep", ("path_defaults", "seed"), True, "seed must be an integer, got True$"),
    ("sweep", ("path_defaults", "seed"), False, "seed must be an integer, got False$"),
    # a world has no seed; a real-valued setting is a finite number in bound, no bool or string
    ("world", ("seed",), 1, r"unknown key\(s\) seed$"),
    ("rig", ("noise_sigma",), float("nan"), "noise_sigma must be finite and >= 0, got nan$"),
    ("rig", ("noise_sigma",), True, "noise_sigma must be finite and >= 0, got True$"),
    pytest.param("hyper", ("block_size",), "wide", "block_size must be finite and > 0, got 'wide'$",
                 id="hyper-keys73-wide-block_size must be finite, got 'wide'$"),
    pytest.param("hyper", ("overlap",), True, "overlap must be finite and >= 0, got True$",
                 id="hyper-keys74-True-overlap must be finite, got True$"),
    ("config", ("step_tolerance",), float("inf"),
     "step_tolerance must be finite and > 0, got inf$"),
    ("config", ("lambda_value",), float("inf"), "lambda_value must be finite and >= 0, got inf$"),
    ("config", ("measurement_noise",), True,
     "measurement_noise must be finite and >= 0, got True$"),
    ("sweep", ("survey_noise",), -1, "survey_noise must be finite and >= 0, got -1.0$"),
    ("sweep", ("survey_noise",), float("nan"), "survey_noise must be finite and >= 0, got nan$"),
    ("sweep", ("survey_spacing",), 0, "survey_spacing must be finite and > 0, got 0.0$"),
    ("sweep", ("survey_spacing",), "0.7", "survey_spacing must be finite and > 0, got '0.7'$"),
    ("sweep", ("offset_range",), True, "offset_range must be finite and >= 0, got True$"),
    ("sweep", ("path_defaults", "spacing"), float("inf"),
     "sample_spacing must be finite and > 0, got inf$"),
    ("sweep", ("path_defaults", "z_height"), float("nan"), "z_height must be finite, got nan$"),
    ("sweep", ("path_defaults", "margin"), float("nan"),
     "region_margin must be finite and >= 0, got nan$"),
    # a hyper file's block geometry takes the bounds of MagMap, so the error names the file
    ("hyper", ("block_size",), -1, "block_size must be finite and > 0, got -1.0$"),
    ("hyper", ("block_size",), 0, "block_size must be finite and > 0, got 0.0$"),
    ("hyper", ("overlap",), -2, "overlap must be finite and >= 0, got -2.0$"),
])
def test_document_readers_reject_bad_documents(tmp_path, kind, keys, value, match):
    """Each reader raises ``ValueError`` naming its file, then the key path
    of a nested object, then the fault."""
    reader, doc = _DOCS[kind]
    if doc is None:
        doc = _three_block_map_doc(tmp_path)[1]
    path = tmp_path / f"{kind}.json"
    if value is _BROKEN:
        path.write_text(json.dumps(doc)[:-1] + ",\n")
    elif not keys:
        path.write_text(json.dumps(value))
    else:
        doc = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, keys[:-1], doc)
        if value is _DROP:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {match}"):
        reader(path)


@pytest.mark.parametrize("key, value, match", [
    ("translation", [0.3, -0.1], r"translation: must be 3 finite numbers, got \[0\.3, -0\.1\]$"),
    ("translation", [0.3, float("nan"), 0.2], "translation: must be 3 finite numbers"),
    ("gain", [[1, 0, 0], [0, 1, 0]], "gain: must be 3 x 3 finite numbers"),
    ("gain", [[1, 0, 0], [0, 1], [0, 0, 1]], "gain: must be 3 x 3 finite numbers"),
    ("bias", ["a", "b", "c"], "bias: must be 3 finite numbers"),
    ("bias", None, "bias: must be 3 finite numbers, got null$"),
])
def test_load_result_rejects_bad_values(tmp_path, key, value, match):
    """``translation``, ``gain`` and ``bias`` must hold 3, 3 x 3 and 3 finite
    numbers; a bad one raises naming the file and the key, and a good
    document loads as it was written."""
    doc = copy.deepcopy(_DOCS["result"][1])
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    assert load_result(path) == doc
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {match}"):
        load_result(path)


def test_sweep_spec_defaults(tmp_path):
    """A spec's survey defaults to 1.5 m and 0.1 uT; the rest comes from
    ``SweepSpec`` and ``default_path_specs``."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_SWEEP))
    spec, default = load_sweep_spec(path), SweepSpec()
    assert (spec.survey_spacing, spec.survey_noise) == (1.5, 0.1)
    assert load_sweep_spec(None).survey_spacing == 1.5
    assert spec.n_distortions == 1 and spec.noise_levels == default.noise_levels
    assert spec.n_initial_offsets == default.n_initial_offsets and spec.seed == default.seed
    assert [p.sample_spacing for p in spec.paths] == [2.5] * 5
    assert [p.seed for p in spec.paths] == [p.seed for p in default.paths]
