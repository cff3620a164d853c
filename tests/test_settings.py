"""Every setting goes through one of three rules: ``geometry.check_real``, a
finite real number that is not a bool and lies within its bound;
``geometry.check_integer``, a Python or numpy integer that is not a bool and
lies within its bounds; ``geometry.check_choice``, one of a tuple of strings.
A bad value raises the site's error, naming the setting and the value."""

import json
import re

import numpy as np
import pytest

from magcalib.extrinsic import CalibrationConfig
from magcalib.geometry import FRAMES, Dataset, FrameError, Pose
from magcalib.intrinsic import RegressionError, RegressionProblem
from magcalib.magmap import GpHyperparams, MagMap, MapError
from magcalib.simulator import PATH_KINDS, PathSpec, SensorRig, WorldConfig, survey_dataset, \
    survey_positions
from magcalib.sweeps import SweepSpec, default_path_specs, run_table1_sweep

_LATTICE = np.stack(np.meshgrid([4.0, 5.0], [4.0, 5.0], [0.5, 1.0], indexing="ij"),
                    -1).reshape(-1, 3)
_FIELDS = np.tile([30.0, 0.0, -30.0], (len(_LATTICE), 1))
_READINGS = np.random.default_rng(0).normal(30.0, 5.0, (8, 3))

# setting as the error names it: (error, bound, strict, build(value))
_SITES = {
    "step_tolerance": (ValueError, 0.0, True, lambda v: CalibrationConfig(step_tolerance=v)),
    "lambda_value": (ValueError, 0.0, False, lambda v: CalibrationConfig(lambda_value=v)),
    "measurement_noise": (ValueError, 0.0, False,
                          lambda v: CalibrationConfig(measurement_noise=v)),
    "length_scale": (ValueError, 0.0, True, lambda v: GpHyperparams(length_scale=v)),
    "signal_variance": (ValueError, 0.0, True, lambda v: GpHyperparams(signal_variance=v)),
    "noise_variance": (ValueError, 0.0, False, lambda v: GpHyperparams(noise_variance=v)),
    "block_size": (MapError, 0.0, True,
                   lambda v: MagMap(_LATTICE, _FIELDS, GpHyperparams(), v, 1.0)),
    "overlap": (MapError, 0.0, False,
                lambda v: MagMap(_LATTICE, _FIELDS, GpHyperparams(), 2.0, v)),
    "sample_spacing": (ValueError, 0.0, True, lambda v: PathSpec(sample_spacing=v)),
    "z_height": (ValueError, None, False, lambda v: PathSpec(z_height=v)),
    "region_margin": (ValueError, 0.0, False, lambda v: PathSpec(region_margin=v)),
    "noise_sigma": (ValueError, 0.0, False, lambda v: SensorRig((), (), v)),
    "survey spacing": (ValueError, 0.0, True, lambda v: survey_positions(WorldConfig(), v)),
    "survey margin": (ValueError, 0.0, False,
                      lambda v: survey_positions(WorldConfig(), 1.0, margin=v)),
    "survey noise": (ValueError, 0.0, False,
                     lambda v: survey_dataset(WorldConfig(), _LATTICE, v, seed=0)),
    "noise_levels[0]": (ValueError, 0.0, False, lambda v: SweepSpec(noise_levels=(v,))),
    "offset_range": (ValueError, 0.0, False, lambda v: SweepSpec(offset_range=v)),
    "survey_spacing": (ValueError, 0.0, True, lambda v: SweepSpec(survey_spacing=v)),
    "survey_noise": (ValueError, 0.0, False, lambda v: SweepSpec(survey_noise=v)),
    "ridge": (RegressionError, 0.0, False,
              lambda v: RegressionProblem.from_pairs(_READINGS, _READINGS, ridge=v)),
}

# value: how the error shows it
_BAD = {float("nan"): "nan", float("inf"): "inf", float("-inf"): "-inf", True: "True",
        "0.1": "'0.1'"}


def _cases():
    for name, (error, low, strict, build) in _SITES.items():
        bad = dict(_BAD)
        if low is not None:  # just past the bound
            past = low if strict else low - 1e-9
            bad[past] = repr(past)
        for value, shown in bad.items():
            yield pytest.param(name, value, shown, id=f"{name}-{shown}")


@pytest.mark.parametrize("name, value, shown", _cases())
def test_every_real_setting_follows_the_rule(name, value, shown):
    error, low, strict, build = _SITES[name]
    bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
    wording = f"{name} must be finite{bound}, got {shown}"
    with pytest.raises(error, match=f"^{re.escape(wording)}$"):
        build(value)


@pytest.mark.parametrize("name", _SITES)
def test_every_real_setting_takes_a_number_at_its_bound(name):
    """The bound itself passes unless it is strict, and a number one above
    it always does."""
    error, low, strict, build = _SITES[name]
    if low is not None and not strict:
        build(low)
    build(1)


@pytest.mark.parametrize("cls, name", [
    (CalibrationConfig, "step_tolerance"), (GpHyperparams, "length_scale"),
    (PathSpec, "sample_spacing"), (SweepSpec, "offset_range"),
])
def test_settings_hold_numbers_as_floats(cls, name):
    value = getattr(cls(**{name: 1}), name)
    assert value == 1.0 and type(value) is float


def test_regression_rank_must_be_an_integer():
    with pytest.raises(RegressionError,
                       match=r"^tsvd_rank must be an integer in \[1, 7\], got 2\.5$"):
        RegressionProblem.from_pairs(_READINGS, _READINGS, tsvd_rank=2.5)


# integer setting as the error names it: (name, error, low, high, build(value))
_INTEGER_SITES = {
    "CalibrationConfig.max_iterations": ("max_iterations", ValueError, 1, None,
                                         lambda v: CalibrationConfig(max_iterations=v)),
    "CalibrationConfig.tsvd_rank": ("tsvd_rank", ValueError, 1, 7,
                                    lambda v: CalibrationConfig(tsvd_rank=v)),
    "RegressionProblem.tsvd_rank": (
        "tsvd_rank", RegressionError, 1, 7,
        lambda v: RegressionProblem.from_pairs(_READINGS, _READINGS, tsvd_rank=v)),
    "SweepSpec.n_distortions": ("n_distortions", ValueError, 1, None,
                                lambda v: SweepSpec(n_distortions=v)),
    "SweepSpec.n_initial_offsets": ("n_initial_offsets", ValueError, 1, None,
                                    lambda v: SweepSpec(n_initial_offsets=v)),
    "SweepSpec.seed": ("seed", ValueError, None, None, lambda v: SweepSpec(seed=v)),
    "PathSpec.n_samples": ("n_samples", ValueError, 2, None, lambda v: PathSpec(n_samples=v)),
    "PathSpec.seed": ("seed", ValueError, None, None, lambda v: PathSpec(seed=v)),
    "default_path_specs.seed": ("seed", ValueError, None, None,
                                lambda v: default_path_specs(seed=v)),
}

# choice setting as the error names it: (name, error, choices, build(value))
_CHOICE_SITES = {
    "CalibrationConfig.lambda_policy": ("lambda_policy", ValueError, ("fixed", "l_curve"),
                                        lambda v: CalibrationConfig(lambda_policy=v)),
    "CalibrationConfig.out_of_map_policy": (
        "out_of_map_policy", ValueError, ("skip_sample", "abort"),
        lambda v: CalibrationConfig(out_of_map_policy=v)),
    "CalibrationConfig.intrinsic_solver": ("intrinsic_solver", ValueError,
                                           ("wrrtls", "rrtls", "ols"),
                                           lambda v: CalibrationConfig(intrinsic_solver=v)),
    "GpHyperparams.mean_mode": ("mean_mode", ValueError, ("constant_per_block", "zero"),
                                lambda v: GpHyperparams(mean_mode=v)),
    "PathSpec.kind": ("kind", ValueError, PATH_KINDS, lambda v: PathSpec(kind=v)),
    "Pose.from_frame": ("from_frame", FrameError, FRAMES,
                        lambda v: Pose(np.eye(3), np.zeros(3), v, "map")),
    "Pose.to_frame": ("to_frame", FrameError, FRAMES,
                      lambda v: Pose(np.eye(3), np.zeros(3), "lidar", v)),
    "Dataset.frame": ("frame", FrameError, FRAMES,
                      lambda v: Dataset("s", v, [], np.empty((0, 3, 3)), [], [])),
}


def _bound(low, high) -> str:
    if low is not None and high is not None:
        return f" in [{low}, {high}]"
    return "" if low is None else f" >= {low}"


def _rule_cases():
    for site, (name, error, low, high, build) in _INTEGER_SITES.items():
        bad = [(2.5, "2.5"), (True, "True"), ("3", "'3'"), (None, "None")]
        if low is not None:  # just past each bound
            bad.append((low - 1, str(low - 1)))
        if high is not None:
            bad.append((high + 1, str(high + 1)))
        for value, shown in bad:
            wording = f"{name} must be an integer{_bound(low, high)}, got {shown}"
            yield pytest.param(error, build, value, wording, id=f"{site}-{shown}")
    for site, (name, error, choices, build) in _CHOICE_SITES.items():
        # a 0-d array equal to a choice is still no string
        for value, shown in (("x", "'x'"), (None, "None"), (1, "1"),
                             (np.array(choices[0]), "array")):
            wording = f"{name} must be one of {choices}, got {value!r}"
            yield pytest.param(error, build, value, wording, id=f"{site}-{shown}")


@pytest.mark.parametrize("error, build, value, wording", _rule_cases())
def test_every_integer_and_choice_setting_follows_its_rule(error, build, value, wording):
    with pytest.raises(error, match=f"^{re.escape(wording)}$"):
        build(value)


@pytest.mark.parametrize("site", _INTEGER_SITES)
def test_every_integer_setting_takes_its_bounds_as_ints(site):
    """Each bound itself passes, and a numpy integer is held as an ``int``,
    so that a report of it is plain JSON."""
    name, error, low, high, build = _INTEGER_SITES[site]
    for value in {low or 0, high or 9}:
        built = build(np.int64(value))
        objs = built if isinstance(built, tuple) else (built,)  # default_path_specs: 5 paths
        assert getattr(objs[0], name) == value
        assert all(type(getattr(obj, name)) is int for obj in objs)


def test_numpy_integer_counts_write_a_json_report(tmp_path):
    """Counts and seed given as numpy integers are held as ints, so the
    report of a sweep is written whole instead of failing on its last step."""
    spec = SweepSpec(paths=default_path_specs()[:1], n_distortions=np.int64(1),
                     n_initial_offsets=np.int32(1), seed=np.int64(3), survey_spacing=1.5)
    report = run_table1_sweep(spec, out_dir=tmp_path)
    written = json.loads((tmp_path / "table1_report.json").read_text())
    assert written["spec"] == report["spec"]
    assert [written["spec"][k] for k in ("n_distortions", "n_initial_offsets", "seed")] \
        == [1, 1, 3]
    assert len(written["rows"]) == 1
