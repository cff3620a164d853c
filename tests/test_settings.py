"""Every real-valued setting goes through one rule, ``geometry.check_real``:
a finite real number that is not a bool and lies within its bound. A bad
value raises the site's error, naming the setting and the value."""

import re

import numpy as np
import pytest

from magcalib.extrinsic import CalibrationConfig
from magcalib.intrinsic import RegressionError, RegressionProblem
from magcalib.magmap import GpHyperparams, MagMap, MapError
from magcalib.simulator import PathSpec, SensorRig, WorldConfig, survey_dataset, \
    survey_positions
from magcalib.sweeps import SweepSpec

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
    with pytest.raises(RegressionError, match=r"^tsvd_rank must be an integer, got 2\.5$"):
        RegressionProblem.from_pairs(_READINGS, _READINGS, tsvd_rank=2.5)
