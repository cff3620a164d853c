import json

import numpy as np
import pytest

from magcalib.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full CLI workflow on a compact world: simulate -> map -> calibrate."""
    root = tmp_path_factory.mktemp("cli")
    world = {
        "extent": {"lo": [0, 0, 0], "hi": [18, 14, 3]},
        "ambient": [38.0, 6.0, -14.0],
        "dipoles": [
            {"position": [6.0, 4.5, 2.6], "moment": [10.0, 4.0, 30.0]},
            {"position": [12.0, 9.5, 2.6], "moment": [-8.0, 12.0, 26.0]},
            {"position": [2.0, 2.0, 2.9], "moment": [150.0, 80.0, 260.0]},
            {"position": [16.0, 12.0, 2.9], "moment": [-120.0, 90.0, 280.0]},
        ],
    }
    rig = {
        "noise_sigma": 0.05,
        "sensors": [{
            "offset": [0.3, -0.1, 0.2],
            "gain": [[1.08, 0.05, -0.02], [0.03, 0.94, 0.06], [-0.04, 0.02, 1.1]],
            "bias": [2.0, -1.5, 0.8],
        }],
    }
    hyper = {"length_scale": 0.8, "noise_variance": 0.001, "block_size": 8.0}
    (root / "world.json").write_text(json.dumps(world))
    (root / "rig.json").write_text(json.dumps(rig))
    (root / "hyper.json").write_text(json.dumps(hyper))

    out = root / "sim"
    rc = main(["simulate", "--world", str(root / "world.json"),
               "--path", "lawnmower", "--rig", str(root / "rig.json"),
               "--out", str(out), "--spacing", "1.2", "--z-height", "0.6",
               "--margin", "3.0", "--survey-spacing", "0.7",
               "--survey-noise", "0.03", "--seed", "4"])
    assert rc == 0
    rc = main(["build-map", "--fingerprints", str(out / "survey.jsonl"),
               "--hyper", str(root / "hyper.json"),
               "--out", str(root / "map.json")])
    assert rc == 0
    return root


def test_simulate_outputs(workdir):
    out = workdir / "sim"
    for name in ("mag0.jsonl", "mag0_truth.jsonl", "survey.jsonl", "truth.json"):
        assert (out / name).exists()
    first = json.loads((out / "mag0.jsonl").read_text().splitlines()[0])
    assert list(first.keys()) == ["t", "p", "q", "B"]


def test_calibrate_and_evaluate_against_truth(workdir, capsys):
    rc = main(["calibrate", "--map", str(workdir / "map.json"),
               "--data", str(workdir / "sim" / "mag0.jsonl"),
               "--t0", "0,0,0", "--out", str(workdir / "result.json")])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((workdir / "result.json").read_text())
    assert doc["converged"] is True
    t_hat = np.asarray(doc["translation"])
    assert np.linalg.norm(t_hat - np.array([0.3, -0.1, 0.2])) <= 0.05

    rc = main(["evaluate", "--result", str(workdir / "result.json"),
               "--truth", str(workdir / "sim" / "truth.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["translation_sq_m2"] <= 0.0025
    assert out["gain_frobenius"] <= 0.1
    assert out["success"] in ("small", "medium")


def _calibrate_argv(workdir, out, *extra, data=None):
    return ["calibrate", "--map", str(workdir / "map.json"),
            "--data", str(data or workdir / "sim" / "mag0.jsonl"),
            "--out", str(workdir / out), *extra]


def test_calibrate_bad_t0_exits_2(workdir, capsys):
    rc = main(_calibrate_argv(workdir, "t0_result.json", "--t0", "1,2"))
    assert rc == 2
    assert "initial_translation" in capsys.readouterr().err
    assert not (workdir / "t0_result.json").exists()


def test_calibrate_malformed_jsonl_exits_2(workdir, capsys):
    lines = (workdir / "sim" / "mag0.jsonl").read_text().splitlines()
    lines[2] = lines[2][:-5]
    bad = workdir / "bad_mag0.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(_calibrate_argv(workdir, "jsonl_result.json", data=bad))
    assert rc == 2
    assert "line 3: bad JSON" in capsys.readouterr().err
    assert not (workdir / "jsonl_result.json").exists()


def test_build_map_number_too_large_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "sim" / "mag0.jsonl").read_text().splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), "t": 10**400}) + "\n"
    bad = tmp_path / "survey.jsonl"
    bad.write_text("".join(lines))
    rc = main(["build-map", "--fingerprints", str(bad), "--hyper", str(workdir / "hyper.json"),
               "--out", str(tmp_path / "map.json")])
    assert rc == 2
    assert "line 3: values must be numbers in the float range" in capsys.readouterr().err
    assert not (tmp_path / "map.json").exists()


@pytest.mark.parametrize("index", ["-1", "1"])
def test_evaluate_sensor_index_out_of_range_exits_2(workdir, capsys, index):
    result = {"schema": "calibration-result/1", "translation": [0.3, -0.1, 0.2],
              "gain": np.eye(3).tolist(), "bias": [0.0, 0.0, 0.0]}
    (workdir / "index_result.json").write_text(json.dumps(result))
    rc = main(["evaluate", "--result", str(workdir / "index_result.json"),
               "--truth", str(workdir / "sim" / "truth.json"),
               "--sensor-index", index])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magcalib evaluate: error: --sensor-index for the 1 sensor(s) "
                            f"of {workdir / 'sim' / 'truth.json'} must be an integer in "
                            f"[0, 0], got {index}\n")


def _saved_map_with(**edits):
    """A document maker: the workflow's saved map with ``edits`` applied."""
    return lambda paths: {**json.loads(paths["map"].read_text()), **edits}


@pytest.mark.parametrize("argv, doc, match", [
    (["simulate", "--path", "lawnmower", "--rig", "{doc}", "--out", "{out}"],
     {"sensors": [{"offset": [0.3, -0.1, 0.2], "bais": [1.0, 0.0, 0.0]}]},
     "sensors[0]: unknown key(s) bais"),
    (["build-map", "--fingerprints", "{sim}/survey.jsonl", "--hyper", "{doc}",
      "--out", "{out}"], {"lengthscale": 0.5}, "unknown key(s) lengthscale"),
    (["calibrate", "--map", "{doc}", "--data", "{sim}/mag0.jsonl", "--out", "{out}"],
     [1, 2], "must be a JSON object, got list"),
    # damping is no config field: the loop sets it from the normal matrix
    (["calibrate", "--map", "{map}", "--data", "{sim}/mag0.jsonl", "--config", "{doc}",
      "--out", "{out}"], {"damping": -1000}, "unknown key(s) damping"),
    (["evaluate", "--result", "{result}", "--truth", "{doc}"], {"sensor": []},
     "unknown key(s) sensor; missing key(s) sensors"),
    (["evaluate", "--result", "{result}", "--truth", "{doc}"],
     {"sensors": [{"offset": [0.3, -0.1, 0.2], "bias": [0.0, 0.0, 0.0]}]},
     "sensors[0]: missing key(s) gain"),
    (["sweep", "success", "--spec", "{doc}", "--out", "{out}"], {"n_distortion": 1},
     "unknown key(s) n_distortion"),
    (["build-map", "--fingerprints", "{sim}/survey.jsonl", "--hyper", "{doc}",
      "--out", "{out}"], {"signal_variance": float("nan")},
     "signal_variance must be finite and > 0, got nan"),
    (["calibrate", "--map", "{map}", "--data", "{sim}/mag0.jsonl", "--config", "{doc}",
      "--out", "{out}"], {"max_iterations": 40.5},
     "max_iterations must be an integer >= 1, got 40.5"),
    (["calibrate", "--map", "{map}", "--data", "{sim}/mag0.jsonl", "--config", "{doc}",
      "--out", "{out}"], {"tsvd_rank": 9}, "tsvd_rank must be an integer in [1, 7], got 9"),
    (["calibrate", "--map", "{doc}", "--data", "{sim}/mag0.jsonl", "--out", "{out}"],
     _saved_map_with(block_size=-1), "block_size must be finite and > 0, got -1.0"),
    (["sweep", "success", "--spec", "{doc}", "--out", "{out}"], {"noise_levels": []},
     "noise_levels must not be empty"),
    (["build-map", "--fingerprints", "{sim}/survey.jsonl", "--hyper", "{doc}",
      "--out", "{out}"], {"block_size": -1}, "block_size must be finite and > 0, got -1.0"),
    (["build-map", "--fingerprints", "{sim}/survey.jsonl", "--hyper", "{doc}",
      "--out", "{out}"], {"overlap": -2}, "overlap must be finite and >= 0, got -2.0"),
], ids=["simulate_rig", "build_map_hyper", "calibrate_map", "calibrate_config",
        "evaluate_truth_sensors", "evaluate_truth_gain", "sweep_spec", "build_map_hyper_nan",
        "calibrate_config_iterations", "calibrate_config_rank", "calibrate_map_block_size",
        "sweep_spec_no_noise_levels", "build_map_hyper_block_size", "build_map_hyper_overlap"])
def test_bad_document_exits_2(workdir, tmp_path, capsys, argv, doc, match):
    """A bad document exits 2 with one stderr line naming the file and the
    key, before any output is written or any trial runs."""
    result = {"schema": "calibration-result/1", "translation": [0.3, -0.1, 0.2],
              "gain": np.eye(3).tolist(), "bias": [0.0, 0.0, 0.0]}
    (tmp_path / "result.json").write_text(json.dumps(result))
    paths = {"doc": tmp_path / "doc.json", "out": tmp_path / "out", "sim": workdir / "sim",
             "map": workdir / "map.json", "result": tmp_path / "result.json"}
    (tmp_path / "doc.json").write_text(json.dumps(doc(paths) if callable(doc) else doc))
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == f"magcalib {argv[0]}: error: {paths['doc']}: {match}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("spacing", ["-1", "0", "nan"])
def test_simulate_bad_survey_spacing_exits_2(workdir, tmp_path, capsys, spacing):
    """A survey spacing that is not finite and > 0 exits 2 with one stderr
    line before any file is written, not with an empty survey or a numpy
    allocation error."""
    out = tmp_path / "sim"
    rc = main(["simulate", "--world", str(workdir / "world.json"), "--path", "lawnmower",
               "--rig", str(workdir / "rig.json"), "--out", str(out),
               "--survey-spacing", spacing])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magcalib simulate: error: survey spacing must be finite "
                            f"and > 0, got {float(spacing)}\n")
    assert not out.exists()


@pytest.mark.parametrize("text, match", [
    ('{"step_tolerance": 1e400}', "step_tolerance must be finite and > 0, got inf"),
    ('{"measurement_noise": 1e400, "intrinsic_solver": "rrtls"}',
     "measurement_noise must be finite and >= 0, got inf"),
])
def test_calibrate_config_beyond_the_float_range_exits_2(workdir, tmp_path, capsys, text,
                                                         match):
    """A config number that parses to inf exits 2 naming its key; it does not
    stop the run after one step, or zero every plausibility weight."""
    path = tmp_path / "config.json"
    path.write_text(text)
    rc = main(_calibrate_argv(workdir, "inf_result.json", "--config", str(path)))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magcalib calibrate: error: {path}: {match}\n"
    assert not (workdir / "inf_result.json").exists()


@pytest.mark.parametrize("noise", ["-1", "nan"])
def test_simulate_bad_survey_noise_exits_2(workdir, tmp_path, capsys, noise):
    """A survey noise that is not finite and >= 0 exits 2 before any file is
    written, not with a noise-free survey."""
    out = tmp_path / "sim"
    rc = main(["simulate", "--world", str(workdir / "world.json"), "--path", "lawnmower",
               "--rig", str(workdir / "rig.json"), "--out", str(out), "--spacing", "1.2",
               "--margin", "3.0", "--survey-noise", noise])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magcalib simulate: error: survey noise must be finite "
                            f"and >= 0, got {float(noise)}\n")
    assert not out.exists()


@pytest.mark.parametrize("heights, message", [
    ("0.5,9", "survey z levels[1] = 9.0 is outside the world's z extent [0, 3]"),
    ("-0.5", "survey z levels[0] = -0.5 is outside the world's z extent [0, 3]"),
    ("0.5,nan", "survey z levels[1] must be finite, got nan"),
])
def test_simulate_bad_survey_heights_exit_2(workdir, tmp_path, capsys, heights, message):
    """A survey height that is no number, not finite or outside the hall
    exits 2 before any file is written, not with a survey above the roof."""
    out = tmp_path / "sim"
    rc = main(["simulate", "--world", str(workdir / "world.json"), "--path", "lawnmower",
               "--rig", str(workdir / "rig.json"), "--out", str(out), "--spacing", "1.2",
               "--margin", "3.0", "--survey-z", heights])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magcalib simulate: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("heights", ["0.5,abc", "0.5,"])
def test_simulate_survey_heights_that_are_no_numbers_exit_2(workdir, tmp_path, capsys,
                                                            heights):
    """As for every typed flag, argparse names ``--survey-z`` and exits 2."""
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--world", str(workdir / "world.json"), "--path", "lawnmower",
              "--rig", str(workdir / "rig.json"), "--out", str(out), "--survey-z", heights])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"magcalib simulate: error: argument --survey-z: invalid floats value: '{heights}'\n")
    assert not out.exists()


def test_evaluate_result_with_short_translation_exits_2(workdir, tmp_path, capsys):
    """A result whose translation holds 2 numbers exits 2 with one stderr
    line naming the file and the key, not a numpy broadcast error."""
    path = tmp_path / "short_result.json"
    path.write_text(json.dumps({"schema": "calibration-result/1", "translation": [0.3, -0.1],
                                "gain": np.eye(3).tolist(), "bias": [0.0, 0.0, 0.0]}))
    rc = main(["evaluate", "--result", str(path), "--truth", str(workdir / "sim" / "truth.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magcalib evaluate: error: {path}: translation: must be 3 finite "
                            "numbers, got [0.3, -0.1]\n")


def test_evaluate_against_validation_map(workdir, capsys):
    # build a second, independent map as the validation reference
    rc = main(["simulate", "--world", str(workdir / "world.json"),
               "--path", "random_walk", "--rig", str(workdir / "rig.json"),
               "--out", str(workdir / "sim2"), "--survey-spacing", "0.8",
               "--survey-noise", "0.03", "--seed", "11"])
    assert rc == 0
    rc = main(["build-map", "--fingerprints", str(workdir / "sim2" / "survey.jsonl"),
               "--hyper", str(workdir / "hyper.json"),
               "--out", str(workdir / "valmap.json")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["evaluate", "--result", str(workdir / "result.json"),
               "--validation-map", str(workdir / "valmap.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reading_mse_ut2"] < 1.0


def test_sweep_cli_smoke(tmp_path, capsys):
    spec = {
        "noise_levels": [0.1],
        "n_distortions": 1,
        "n_initial_offsets": 1,
        "offset_range": 0.3,
        "seed": 5,
        "path_defaults": {"spacing": 2.5},
    }
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec))
    rc = main(["sweep", "success", "--spec", str(sp), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "success_report.json").exists()
    assert (tmp_path / "rep" / "success_rows.csv").exists()
    report = json.loads((tmp_path / "rep" / "success_report.json").read_text())
    assert report["kind"] == "success"
    assert len(report["rows"]) == 6  # six offset bins x 1 trial each
