"""The sweep driver on tiny specs: row counts, one aggregate per cell, the
success-label rates, and the per-cell seed order."""

import numpy as np
import pytest

from magcalib.sweeps import (
    SweepSpec,
    _trials,
    default_path_specs,
    run_ablation,
    run_success_sweep,
    run_table1_sweep,
)

RATES = ("small_rate", "medium_rate", "failure_rate")


def _spec(**kw):
    base = dict(paths=default_path_specs()[:2], noise_levels=(0.1,),
                n_distortions=1, n_initial_offsets=2, seed=5, survey_spacing=1.0)
    base.update(kw)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def table1():
    spec = _spec(noise_levels=(0.1, 0.3))
    return spec, run_table1_sweep(spec)


@pytest.fixture(scope="module")
def success():
    spec = _spec(paths=default_path_specs()[:1])
    return spec, run_success_sweep(spec, bin_edges=(0.0, 0.5, 1.5))


@pytest.fixture(scope="module")
def ablation():
    spec = _spec(paths=default_path_specs()[:1], n_initial_offsets=1)
    return spec, run_ablation(spec, densities=(3.0,))


def _check_cells(spec, report, keys):
    per_cell = spec.n_distortions * spec.n_initial_offsets
    assert len(report["rows"]) == len(keys) * per_cell
    assert list(report["aggregates"]) == keys
    for agg in report["aggregates"].values():
        assert agg["n_trials"] == per_cell
        assert sum(agg[r] for r in RATES) == pytest.approx(1.0)
        assert agg["n_failures"] == round(agg["failure_rate"] * per_cell)
    for row in report["rows"]:
        assert 0 <= row["distortion_index"] < spec.n_distortions
        assert 0 <= row["offset_index"] < spec.n_initial_offsets
        assert np.isfinite(row["offset_norm"])


def test_table1_one_aggregate_per_path_and_noise(table1):
    spec, report = table1
    keys = [f"{p.kind}/noise={n}" for p in spec.paths for n in spec.noise_levels]
    _check_cells(spec, report, keys)
    # this spec mixes outcomes, so the rates are not trivially all-failure
    assert len({row["success"] for row in report["rows"]}) > 1
    assert all(row["offset_norm"] <= spec.offset_range for row in report["rows"])


def test_success_aggregates_keep_rates_per_bin(success):
    spec, report = success
    _check_cells(spec, report, ["0.0-0.5", "0.5-1.5"])
    for row in report["rows"]:
        assert row["offset_lo"] <= row["offset_norm"] <= row["offset_hi"]
    assert all(key in agg for agg in report["aggregates"].values()
               for key in ("small_rate", "failure_rate", "translation_sq_m2"))


def test_ablation_one_aggregate_per_map_and_solver(ablation):
    spec, report = ablation
    keys = [f"spacing=3.0/{m}/{s}" for m in ("sgpr", "bilinear")
            for s in ("ols", "rrtls", "wrrtls")]
    _check_cells(spec, report, keys)


def test_trials_share_a_distortion_across_offsets_and_are_reproducible():
    spec = _spec(n_distortions=2, n_initial_offsets=3)

    def draw():
        cell_seed = np.random.SeedSequence(9).spawn(1)[0]
        return list(_trials(cell_seed, spec, 0.5, 1.0))

    first, second = draw(), draw()
    assert [t[:2] for t in first] == [(d, o) for d in range(2) for o in range(3)]
    assert first[0][2] is first[2][2] and first[2][2] is not first[3][2]
    for a, b in zip(first, second):
        assert np.array_equal(a[3], b[3])
        assert np.array_equal(a[2].gain, b[2].gain)
        assert 0.5 <= np.linalg.norm(a[3]) <= 1.0
