import numpy as np
import pytest

from magcalib.geometry import Dataset
from magcalib.magmap import GpHyperparams, build_map
from magcalib.simulator import (
    Box,
    Dipole,
    PathSpec,
    WorldConfig,
    generate_path,
    survey_dataset,
    survey_positions,
)


@pytest.fixture(scope="session")
def gentle_world():
    """Small world with one weak, distant dipole: easy for the GP to map."""
    extent = Box(np.zeros(3), np.array([8.0, 8.0, 3.0]))
    dipoles = (Dipole(np.array([4.0, 4.0, 2.7]), np.array([8.0, 4.0, 25.0])),)
    return WorldConfig(extent=extent, ambient_field=np.array([20.0, 0.0, -45.0]),
                       dipoles=dipoles)


@pytest.fixture(scope="session")
def gentle_map(gentle_world):
    """Noise-free dense survey of the gentle world."""
    positions = survey_positions(gentle_world, 0.5, z_levels=(0.4, 0.9, 1.4),
                                 margin=1.0)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.0, seed=0)
    hyper = GpHyperparams(length_scale=0.7, noise_variance=1e-6)
    return build_map(data, hyper, block_size=10.0)


@pytest.fixture(scope="session")
def jittered_map(gentle_world):
    """The gentle map's survey with every position jittered by about 1 cm:
    its one block's rows form no product grid, so it takes the Cholesky
    path."""
    positions = survey_positions(gentle_world, 0.5, z_levels=(0.4, 0.9, 1.4), margin=1.0)
    positions = positions + np.random.default_rng(16).normal(0.0, 0.01, positions.shape)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.0, seed=0)
    return build_map(data, GpHyperparams(length_scale=0.7, noise_variance=1e-6),
                     block_size=10.0)


def make_l_shaped_map():
    """L-shaped survey on a 4x4x1 grid of 2 m blocks: 7 populated cells, 9
    cells (the 3x3 corner away from both arms) without training data. The
    corner block's rows are no product grid, so it takes the Cholesky path
    and the other six the lattice path."""
    xs = np.arange(0.0, 8.0, 0.5)

    def field(p):
        return np.array([20.0 + np.sin(p[0]), 3.0 * np.cos(p[1]),
                         -40.0 + 0.1 * p[0] * p[1]])

    data = lattice_dataset(field, xs, xs, [0.5, 1.0])
    pos = data.positions()
    keep = (pos[:, 0] <= 1.5) | (pos[:, 1] <= 1.5)
    data = identity_dataset(pos[keep], data.readings()[keep], "L")
    field_map = build_map(data, GpHyperparams(length_scale=0.7), block_size=2.0,
                          overlap=0.25)
    assert field_map.grid_shape.tolist() == [4, 4, 1] and len(field_map.blocks) == 7
    return field_map


@pytest.fixture(scope="session")
def l_shaped_map():
    """:func:`make_l_shaped_map`, shared by the session."""
    return make_l_shaped_map()


@pytest.fixture(scope="session")
def calib_world():
    """Mid-size world with rack and beacon clutter for end-to-end tests."""
    extent = Box(np.zeros(3), np.array([18.0, 14.0, 3.0]))
    dipoles = (
        Dipole(np.array([6.0, 4.5, 2.6]), np.array([10.0, 4.0, 30.0])),
        Dipole(np.array([12.0, 9.5, 2.6]), np.array([-8.0, 12.0, 26.0])),
        Dipole(np.array([2.0, 2.0, 2.9]), np.array([150.0, 80.0, 260.0])),
        Dipole(np.array([16.0, 12.0, 2.9]), np.array([-120.0, 90.0, 280.0])),
    )
    return WorldConfig(extent=extent, ambient_field=np.array([38.0, 6.0, -14.0]),
                       dipoles=dipoles)


@pytest.fixture(scope="session")
def calib_map(calib_world):
    positions = survey_positions(calib_world, 0.6,
                                 z_levels=(0.15, 0.45, 0.75, 1.05, 1.5), margin=1.0)
    data = survey_dataset(calib_world, positions, noise_sigma=0.03, seed=1)
    hyper = GpHyperparams(length_scale=0.8, noise_variance=0.001)
    return build_map(data, hyper, block_size=8.0)


@pytest.fixture(scope="session")
def calib_path(calib_world):
    spec = PathSpec(kind="lawnmower", sample_spacing=1.5, z_height=0.6,
                    region_margin=4.0)
    return generate_path(spec, calib_world)


def identity_dataset(positions, readings, sensor_id="test"):
    """Survey-style dataset: identity orientation (mag -> map), sample i at
    time i seconds."""
    positions = np.asarray(positions, float).reshape(-1, 3)
    n = positions.shape[0]
    return Dataset(sensor_id, "mag", np.arange(n, dtype=float),
                   np.tile(np.eye(3), (n, 1, 1)), positions, readings)


def lattice_dataset(values_fn, xs, ys, zs, sensor_id="lattice"):
    """Fingerprints on a regular lattice with identity orientation, x
    slowest and z fastest."""
    x, y, z = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float),
                          np.asarray(zs, float), indexing="ij")
    positions = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return identity_dataset(positions, [values_fn(p) for p in positions], sensor_id)
