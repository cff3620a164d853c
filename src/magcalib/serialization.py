"""File-boundary formats: JSONL fingerprints, map persistence, JSON documents.

In memory rotations are matrices; on disk they are unit quaternions in
``[w, x, y, z]`` order. A fingerprint record is one JSON object per line
with fixed field order::

    {"t": <seconds>, "p": [x, y, z], "q": [w, x, y, z], "B": [bx, by, bz]}

positions in meters, readings in uT. A fingerprint file is read into
columns and converted and validated once per file, not once per record. A
file whose every line has exactly the writer's layout is parsed as JSON
arrays of numbers, one per chunk of whole lines; any other file, and any
file that fails on the way, is read again one record per line by the
reader that words every error, naming the file and 1-based line. A map file
(schema ``magmap/3``) is one JSON document holding what a :class:`MagMap`
is made from: the kernel ``hyper``, ``block_size``, ``overlap`` and the
survey's map-frame ``positions`` and ``fields``, each an (n, 3) array
packed once as the base64 text of its little-endian float64 bytes in C
order (``"<f8"``), so that a map round-trips bit for bit without printing
or parsing decimal text. Loading a map checks the survey and cuts the same
blocks again; each block is factored on its first query.

Every JSON document (world, rig, hyperparameters, calibration config,
sweep spec, map, result) goes through one reader, :func:`_read`: it and each
object in it must be a JSON object with its required keys and no other
unknown key. Bad JSON, a missing or unknown key and a bad value raise
``ValueError`` naming the file and the key path (``rig.json: sensors[0]:
unknown key(s) bais``). A document default is stated once: at the
dataclass it fills or, where the document's differs, at its reader.
"""

from __future__ import annotations

import base64
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from .extrinsic import CalibrationConfig, CalibrationResult
from .geometry import Dataset, check_real, reject_rows, row_norms
from .intrinsic import AffineDistortion
from .magmap import GpHyperparams, MagMap, MapError
from .simulator import Box, Dipole, SensorRig, WorldConfig
from .sweeps import SweepSpec, default_path_specs

MAP_SCHEMA = "magmap/3"
RESULT_SCHEMA = "calibration-result/1"

QUAT_NORM_TOL = 1e-6

_KERNEL = tuple(f.name for f in fields(GpHyperparams))  # a map's "hyper" keys, in order
SWEEP_SURVEY = {"survey_spacing": 1.5, "survey_noise": 0.1}  # a sweep spec's survey default


# ---------------------------------------------------------------------------
# quaternions (scalar-first) at the file boundary
#
# Both directions work on one quaternion or matrix or on a stack of them and
# give, row by row, the same bits as the one-at-a-time form: the norms go
# through ``row_norms`` and the arithmetic runs in the same order.


def quat_to_rotmat(q) -> np.ndarray:
    """Unit quaternion [w, x, y, z] to a rotation matrix; (N, 4) gives (N, 3, 3).

    Each quaternion is normalized first; a norm off unity by more than
    ``QUAT_NORM_TOL`` is rejected, naming its row (see ``reject_rows``).
    """
    q = np.asarray(q, float)
    rows = q.reshape(-1, 4)
    norm = row_norms(rows)
    reject_rows(ValueError, ~(np.abs(norm - 1.0) <= QUAT_NORM_TOL), lambda i: (
        f"quaternion norm {norm[i]:.9f} deviates from 1 by more than {QUAT_NORM_TOL}"))
    w, x, y, z = (rows / norm[:, None]).T
    R = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=1)
    return R.reshape(q.shape[:-1] + (3, 3))


def rotmat_to_quat(R) -> np.ndarray:
    """Rotation matrix to a unit quaternion [w, x, y, z] (w >= 0); (N, 3, 3)
    gives (N, 4)."""
    R = np.asarray(R, float)
    M = R.reshape(-1, 3, 3)
    q = np.empty((M.shape[0], 4))
    tr = np.trace(M, axis1=1, axis2=2)
    pos = tr > 0
    Mp = M[pos]
    s = np.sqrt(tr[pos] + 1.0) * 2.0
    q[pos] = np.stack([0.25 * s,
                       (Mp[:, 2, 1] - Mp[:, 1, 2]) / s,
                       (Mp[:, 0, 2] - Mp[:, 2, 0]) / s,
                       (Mp[:, 1, 0] - Mp[:, 0, 1]) / s], axis=1)
    largest = np.argmax(M.diagonal(axis1=1, axis2=2), axis=1)
    for i in range(3):
        sel = ~pos & (largest == i)
        Ms = M[sel]
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(np.maximum(Ms[:, i, i] - Ms[:, j, j] - Ms[:, k, k] + 1.0, 0.0)) * 2.0
        q[sel, 0] = (Ms[:, k, j] - Ms[:, j, k]) / s
        q[sel, 1 + i] = 0.25 * s
        q[sel, 1 + j] = (Ms[:, j, i] + Ms[:, i, j]) / s
        q[sel, 1 + k] = (Ms[:, k, i] + Ms[:, i, k]) / s
    q[q[:, 0] < 0] *= -1.0
    q /= row_norms(q)[:, None]
    return q.reshape(R.shape[:-2] + (4,))


# ---------------------------------------------------------------------------
# fingerprint JSONL


def _record(t, p, q, b) -> str:
    """One fingerprint line, as :func:`write_fingerprints` writes it."""
    return json.dumps({"t": t, "p": p, "q": q, "B": b}) + "\n"


def write_fingerprints(dataset: Dataset, path) -> None:
    columns = (dataset.timestamps().tolist(), dataset.positions().tolist(),
               rotmat_to_quat(dataset.rotations()).tolist(), dataset.readings().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_record(*row) for row in zip(*columns))


# The writer's layout with a run of the JSON number alphabet in each of its
# 11 value slots, and the table that turns lines of it into the items of one
# JSON array: every other character of the layout goes and each newline
# becomes a comma. Both come from _record, so reader and writer cannot drift.
_LAYOUT = _record(0, [0] * 3, [0] * 4, [0] * 3)
_LINES = re.compile("(?:%s)*" % "[-+.eE0-9]+".join(map(re.escape, _LAYOUT.split("0"))))
_TO_ITEMS = str.maketrans({**dict.fromkeys(set(_LAYOUT) - set("0,\n")), "\n": ","})
# Characters of whole lines parsed as one array. Whole-file strings and lists
# (2 MB of text, 160k items for a 0.7 m survey) raised a field session's
# peak RSS by about 4 MB; chunks this size leave it below the per-line read's.
_CHUNK = 1 << 16


def read_fingerprints(path, from_frame: str = "lidar") -> Dataset:
    """Read a fingerprint JSONL file into one :class:`Dataset` named by its stem.

    A file whose every line has exactly the layout :func:`write_fingerprints`
    writes, a number in each value slot, is parsed as JSON arrays of
    numbers: one ``json.loads`` and one ``np.array`` per ``_CHUNK``
    characters of whole lines, with the same number scanner, and so the
    same bits, as a parse per record. Both read in text mode, so CRLF line
    ends count as newlines. Any other file (another key order or spacing, a
    number outside its slot, blank lines, no final newline), and any file
    that fails on the way (a number JSON rejects, one too large for a float,
    or a row the :class:`Dataset` rejects), is read again line by line
    (:func:`_read_lines`), and every error comes from that reader.

    Blank lines are skipped. A malformed record raises a ``ValueError``
    naming the file and its 1-based line: bad JSON, a missing key, a field
    of the wrong length or type, a number outside the float range, a
    quaternion off unit norm, a non-finite value, an unphysical reading or
    a timestamp that does not increase.
    """
    sensor_id = Path(path).stem
    try:
        cols = _layout_rows(path)
        if cols is not None:
            return _dataset(sensor_id, from_frame, cols)
    except (ValueError, OverflowError):
        pass  # _read_lines finds and words the fault
    return _read_lines(path, sensor_id, from_frame)


def _layout_rows(path) -> np.ndarray | None:
    """The (n, 11) rows of a file in the writer's layout, parsed one chunk of
    whole lines at a time; None as soon as a chunk has another layout."""
    blocks = [np.empty((0, 11))]
    with open(path, "r", encoding="utf-8") as fh:
        for lines in iter(lambda: fh.readlines(_CHUNK), []):
            text = "".join(lines)
            if not _LINES.fullmatch(text):
                return None
            values = json.loads("[" + text.translate(_TO_ITEMS)[:-1] + "]")
            blocks.append(np.array(values, float).reshape(-1, 11))
    return np.concatenate(blocks)


def _dataset(sensor_id: str, from_frame: str, cols: np.ndarray) -> Dataset:
    """The dataset of (n, 11) rows ``t, p, q, B``."""
    return Dataset(sensor_id, from_frame, cols[:, 0], quat_to_rotmat(cols[:, 4:8]),
                   cols[:, 1:4], cols[:, 8:])


def _read_lines(path, sensor_id: str, from_frame: str) -> Dataset:
    """:func:`read_fingerprints` for any layout, one ``json.loads`` per
    line; its errors name the line."""
    lines, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                t, p, q, b = record["t"], record["p"], record["q"], record["B"]
                lengths = (len(p), len(q), len(b))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: bad JSON: {exc.msg} at column "
                                 f"{exc.pos + 1}") from None
            except KeyError as exc:
                raise ValueError(f"{path}, line {number}: record has no "
                                 f"{exc.args[0]!r} key") from None
            except TypeError:
                raise ValueError(f"{path}, line {number}: record is not an object "
                                 "holding a number 't' and lists 'p', 'q', 'B'") from None
            if lengths != (3, 4, 3):
                raise ValueError(f"{path}, line {number}: 'p', 'q', 'B' must hold "
                                 f"3, 4, 3 numbers, not {lengths}")
            lines.append(number)
            rows.append([t, *p, *q, *b])
    try:
        cols = np.array(rows, dtype=float).reshape(-1, 11)
    except (TypeError, ValueError, OverflowError):
        number, row = next((n, r) for n, r in zip(lines, rows) if not _numbers(r))
        raise ValueError(f"{path}, line {number}: values must be numbers in the float "
                         f"range, got {row}") from None
    try:
        return _dataset(sensor_id, from_frame, cols)
    except ValueError as exc:
        if not hasattr(exc, "row"):
            raise
        raise type(exc)(f"{path}, line {lines[exc.row]}: {exc.reason}") from None


def _numbers(row: list) -> bool:
    try:
        return np.array(row, dtype=float).shape == (len(row),)
    except (TypeError, ValueError, OverflowError):
        return False


# ---------------------------------------------------------------------------
# map persistence


def _pack(rows: np.ndarray) -> str:
    """An (n, 3) array as the base64 text of its ``<f8`` C-order bytes."""
    return base64.b64encode(np.ascontiguousarray(rows, "<f8").tobytes()).decode("ascii")


def _unpack(doc: dict, key: str) -> np.ndarray:
    """The (n, 3) float array that :func:`_pack` wrote as ``doc[key]``; text
    that is not base64 of whole (n, 3) ``<f8`` rows raises ``MapError``."""
    try:
        return np.frombuffer(base64.b64decode(doc[key], validate=True), "<f8").reshape(-1, 3)
    except (TypeError, ValueError) as exc:
        raise MapError(f"map {key} do not parse as base64 <f8 rows: {exc!r}") from None


def save_map(field_map: MagMap, path) -> None:
    """Write ``field_map`` as a ``magmap/3`` document: its kernel, block
    geometry and survey, whose ``positions`` and ``fields`` (n, 3) are base64
    text of their ``<f8`` bytes in C order (see :func:`_pack`), so that the
    arrays load bit for bit and the map cuts the same blocks again."""
    doc = {
        "schema": MAP_SCHEMA,
        "hyper": {name: getattr(field_map.hyper, name) for name in _KERNEL},
        "block_size": field_map.block_size,
        "overlap": field_map.overlap,
        "positions": _pack(field_map.positions),
        "fields": _pack(field_map.fields),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # one-shot C encoder; json.dump streams in Python


def load_map(path) -> MagMap:
    """Read a ``magmap/3`` document written by :func:`save_map`; any other
    schema raises naming ``magmap/3``. ``hyper`` must hold every kernel
    setting, since the map was fit with them. The survey ``positions`` and
    ``fields`` decode from base64 ``<f8`` C-order bytes, and :class:`MagMap`
    checks them and cuts the blocks; nothing is factored until a query
    reaches a block."""
    def build(doc):
        _keys(doc, ("schema", "hyper", "block_size", "overlap", "positions", "fields"),
              schema=MAP_SCHEMA)
        hyper = GpHyperparams(**_keys(doc["hyper"], _KERNEL, (), "hyper"))
        return MagMap(_unpack(doc, "positions"), _unpack(doc, "fields"), hyper,
                      doc["block_size"], doc["overlap"])
    return _read(path, build)


# ---------------------------------------------------------------------------
# JSON documents


def _read(path, build):
    """``build(doc)`` of the JSON document at ``path``. Bad JSON, and the
    ``TypeError`` or ``ValueError`` of a bad value, raise ``ValueError``
    naming the file; a ``MapError`` is raised again as ``MapError`` naming
    the file, and ``OSError`` passes unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return build(doc)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: bad JSON: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except MapError as exc:
        raise MapError(f"{path}: {exc}") from None


def _keys(doc, required=(), optional=(), where="", schema=None) -> dict:
    """``doc`` itself, once it is a JSON object (of ``schema``, if given) that
    holds every ``required`` key and no key outside ``required`` and
    ``optional``; ``where`` is the key path of a nested object."""
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ValueError(f"{at}must be a JSON object, got {type(doc).__name__}")
    if schema is not None and doc.get("schema") != schema:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}, expected {schema!r}")
    faults = [f"{label} key(s) {', '.join(keys)}" for label, keys in (
        ("unknown", sorted(set(doc) - set(required) - set(optional))),
        ("missing", [k for k in required if k not in doc])) if keys]
    if faults:
        raise ValueError(at + "; ".join(faults))
    return doc


def load_world(path) -> WorldConfig:
    def build(doc):
        _keys(doc, ("extent",), ("ambient", "dipoles"))
        world = {"extent": Box(**_keys(doc["extent"], ("lo", "hi"), where="extent"))}
        if "ambient" in doc:
            world["ambient_field"] = doc["ambient"]
        if "dipoles" in doc:
            world["dipoles"] = tuple(
                Dipole(**_keys(d, ("position", "moment"), where=f"dipoles[{i}]"))
                for i, d in enumerate(doc["dipoles"]))
        return WorldConfig(**world)
    return _read(path, build)


def load_rig(path, truth: bool = False) -> SensorRig:
    """A rig document: ``sensors``, each an ``offset`` with an optional
    ``gain`` and ``bias`` (an undistorted sensor without them), and a
    ``noise_sigma`` that is 0 unless stated. A ``truth`` document (the
    ``truth.json`` of ``simulate``) must state every gain and bias."""
    keys = ("offset", "gain", "bias")

    def build(doc):
        _keys(doc, ("sensors",), ("noise_sigma",))
        sensors = [_keys(s, keys if truth else keys[:1], keys, f"sensors[{i}]")
                   for i, s in enumerate(doc["sensors"])]
        ideal = AffineDistortion.identity()
        return SensorRig(tuple(s["offset"] for s in sensors),
                         tuple(AffineDistortion(s.get("gain", ideal.gain),
                                                s.get("bias", ideal.bias)) for s in sensors),
                         doc.get("noise_sigma", 0.0))
    return _read(path, build)


def load_hyper(path) -> dict:
    """Hyperparameter file: kernel settings plus block geometry, as the
    keyword arguments of :func:`build_map` (``hyper``, and ``block_size``
    and ``overlap`` where the file sets them). A ``magmap/3`` file stores
    the same three as its ``hyper``, ``block_size`` and ``overlap``.
    Numbers become floats, so a saved map writes a ``1`` of the file as
    ``1.0``; a bad number, or one beyond :class:`MagMap`'s bounds, raises naming its key."""
    def build(doc):
        _keys(doc, (), (*_KERNEL, "block_size", "overlap"))
        out = {k: v if k in _KERNEL else check_real(k, v, strict=k == "block_size")
               for k, v in doc.items() if k != "overlap" or v is not None}
        return {"hyper": GpHyperparams(**{k: out.pop(k) for k in _KERNEL if k in out}),
                **out}
    return _read(path, build)


def load_calibration_config(path) -> CalibrationConfig:
    """A :class:`CalibrationConfig` from a JSON object of some of its fields."""
    return _read(path, lambda doc: CalibrationConfig(
        **_keys(doc, (), [f.name for f in fields(CalibrationConfig)])))


def load_sweep_spec(path) -> SweepSpec:
    """A :class:`SweepSpec` from a sweep spec file, or from none when ``path``
    is None. ``path_defaults`` holds keyword arguments of
    :func:`default_path_specs`; unless the spec says otherwise, its mapping
    survey is :data:`SWEEP_SURVEY` (1.5 m apart with 0.1 uT noise), coarser
    than a ``SweepSpec``'s. ``noise_levels`` is a list."""
    keys = ("noise_levels", "offset_range", "survey_spacing", "survey_noise",
            "n_distortions", "n_initial_offsets", "seed")  # as read: SweepSpec checks them

    def build(doc):
        doc = {**SWEEP_SURVEY, **_keys(doc, (), (*keys, "path_defaults"))}
        if not isinstance(doc.get("noise_levels", []), list):
            raise ValueError(f"noise_levels must be a list, got {json.dumps(doc['noise_levels'])}")
        paths = _keys(doc.pop("path_defaults", {}), (),
                      inspect.signature(default_path_specs).parameters, "path_defaults")
        return SweepSpec(paths=default_path_specs(**paths),
                         **{k: tuple(v) if k == "noise_levels" else v for k, v in doc.items()})
    return build({}) if path is None else _read(path, build)


def save_result(result: CalibrationResult, path, data_path: str | None = None) -> None:
    doc = {
        "schema": RESULT_SCHEMA,
        "translation": list(result.translation),
        "gain": result.distortion.gain.tolist(),
        "bias": list(result.distortion.bias),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "final_rms_ut": float(result.final_rms),
        "skipped_samples": int(result.skipped_samples),
        "message": result.message,
        "cost_trace": [[list(t), float(c)] for t, c in result.trace],
    }
    if data_path is not None:
        doc["data"] = str(data_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


_RESULT_SHAPES = {"translation": (3,), "gain": (3, 3), "bias": (3,)}


def load_result(path) -> dict:
    """The result document as read; its ``translation``, ``gain`` and
    ``bias`` must hold 3, 3 x 3 and 3 finite numbers."""
    def build(doc):
        _keys(doc, ("schema", *_RESULT_SHAPES),
              ("converged", "iterations", "final_rms_ut", "skipped_samples", "message",
               "cost_trace", "data"), schema=RESULT_SCHEMA)
        for key, shape in _RESULT_SHAPES.items():
            try:
                value = np.asarray(doc[key], float)
            except (TypeError, ValueError):
                value = None
            if value is None or value.shape != shape or not np.isfinite(value).all():
                raise ValueError(f"{key}: must be {' x '.join(map(str, shape))} finite "
                                 f"numbers, got {json.dumps(doc[key])}")
        return doc
    return _read(path, build)
