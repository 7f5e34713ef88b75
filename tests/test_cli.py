"""End-to-end tests of the command line: exit codes, run manifests,
determinism of artifacts, config validation."""

import csv
import json
import shutil

import pytest

from trajdistill import cli


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    path = str(d / "scenes.jsonl")
    assert run(["gen", "--out", path, "--num-scenes", "3", "--seed", "7"]) == 0
    return path


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("teacher")
    prefix = str(d / "teacher")
    cfg = d / "model.json"
    cfg.write_text(json.dumps({"schema_version": 1, "hidden": 32}))
    assert (
        run(
            ["train", "--data", data, "--out", prefix, "--steps", "3", "--seed", "1",
             "--model-config", str(cfg)]
        )
        == 0
    )
    return prefix


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["gen", "--out", str(a), "--num-scenes", "2", "--seed", "3"]) == 0
    assert run(["gen", "--out", str(b), "--num-scenes", "2", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_manifest_first(tmp_path):
    out = tmp_path / "scenes.jsonl"
    assert run(["gen", "--out", str(out), "--num-scenes", "1", "--seed", "0"]) == 0
    manifest = json.load(open(str(out) + ".run.json"))
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 0
    assert "started_unix" in manifest


def test_usage_errors_exit_2(tmp_path):
    assert run([]) == 2
    assert run(["gen"]) == 2  # missing --out
    assert run(["frobnicate"]) == 2
    assert run(["bench", "--out", str(tmp_path / "b.csv"), "--agents", "nonsense"]) == 2


def test_config_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"schema_version": 1, "num_scenes": 1, "warp_factor": 9}))
    assert run(["gen", "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg)]) == 2


def test_config_bad_schema_version_exit_2(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"schema_version": 42, "num_scenes": 1}))
    assert run(["gen", "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg)]) == 2


def test_missing_input_exit_3(tmp_path):
    assert (
        run(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "t"),
             "--steps", "1"])
        == 3
    )
    cfg = tmp_path / "missing.json"
    assert run(["gen", "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg)]) == 3
    assert run(["eval", "--data", str(tmp_path / "nope.jsonl"), "--ckpt", str(tmp_path / "nothing"),
                "--out", str(tmp_path / "m.csv")]) == 3


def test_semantic_error_exit_4(tmp_path, data, teacher_ckpt):
    """K mismatch between teacher and student is a semantic failure."""
    code = run(
        ["distill", "--data", data, "--teacher", teacher_ckpt, "--out", str(tmp_path / "s"),
         "--steps", "1", "--method", "set", "--k", "3"]
    )
    assert code == 4


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m["config"].update(warp_factor=9),
        lambda m: m.pop("tensors"),
        lambda m: m.update(config=[1, 2]),
    ],
    ids=["extra_config_key", "no_tensors", "config_not_object"],
)
def test_malformed_checkpoint_exit_4(tmp_path, data, teacher_ckpt, mutate):
    prefix = str(tmp_path / "ck")
    shutil.copy(teacher_ckpt + ".weights.bin", prefix + ".weights.bin")
    with open(teacher_ckpt + ".manifest.json") as fh:
        manifest = json.load(fh)
    mutate(manifest)
    with open(prefix + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    assert run(["eval", "--data", data, "--ckpt", prefix, "--out", str(tmp_path / "m.csv")]) == 4


def test_corrupt_dataset_exit_4(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema_version": 1, "header": true}\n{broken\n')
    assert run(["eval", "--data", str(bad), "--ckpt", str(tmp_path / "x"),
                "--out", str(tmp_path / "m.csv")]) in (3, 4)
    assert run(["train", "--data", str(bad), "--out", str(tmp_path / "t"), "--steps", "1"]) == 4


def test_full_pipeline_and_eval(tmp_path, data, teacher_ckpt):
    student_cfg = tmp_path / "student.json"
    student_cfg.write_text(
        json.dumps({"schema_version": 1, "grid_h": 32, "grid_w": 32, "cell_size": 4.0,
                    "pillar_embed": 16, "conv_channels": [16], "hidden": 32})
    )
    prefix = str(tmp_path / "student")
    log = str(tmp_path / "log.jsonl")
    code = run(
        ["distill", "--data", data, "--teacher", teacher_ckpt, "--out", prefix,
         "--steps", "3", "--seed", "2", "--method", "set", "--model-config",
         str(student_cfg), "--log", log]
    )
    assert code == 0
    assert json.load(open(prefix + ".run.json"))["method"] == "set"
    assert len(open(log).read().strip().split("\n")) == 3

    out_csv = tmp_path / "metrics.csv"
    assert run(["eval", "--data", data, "--ckpt", prefix, "--out", str(out_csv),
                "--run-id", "r1"]) == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 1
    assert rows[0]["run_id"] == "r1"
    assert rows[0]["model"] == "student"
    assert float(rows[0]["minADE"]) > 0


def test_distill_deterministic(tmp_path, data, teacher_ckpt):
    outs = []
    for name in ("a", "b"):
        prefix = str(tmp_path / name)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"schema_version": 1, "grid_h": 32, "grid_w": 32,
                                   "cell_size": 4.0, "pillar_embed": 16,
                                   "conv_channels": [16], "hidden": 32}))
        assert run(["distill", "--data", data, "--teacher", teacher_ckpt, "--out", prefix,
                    "--steps", "2", "--seed", "5", "--method", "distribution",
                    "--model-config", str(cfg)]) == 0
        outs.append(open(prefix + ".weights.bin", "rb").read())
    assert outs[0] == outs[1]


def test_train_manifest_echoes_defaults(tmp_path, data):
    prefix = str(tmp_path / "t")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"schema_version": 1, "hidden": 16}))
    assert run(["train", "--data", data, "--out", prefix, "--steps", "1",
                "--model-config", str(cfg)]) == 0
    manifest = json.load(open(prefix + ".run.json"))
    assert manifest["config"]["lr"] == 0.0005
    assert manifest["config"]["clip_norm"] == 10.0
    assert manifest["model_config"]["num_modes"] == 6
    assert "dataset_sha256" in manifest
    assert manifest["tool_version"]


def test_train_student_baseline(tmp_path, data):
    prefix = str(tmp_path / "sb")
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"schema_version": 1, "grid_h": 32, "grid_w": 32,
                               "cell_size": 4.0, "pillar_embed": 16,
                               "conv_channels": [16], "hidden": 32}))
    assert run(["train", "--model", "student", "--data", data, "--out", prefix,
                "--steps", "2", "--model-config", str(cfg)]) == 0
    manifest = json.load(open(prefix + ".run.json"))
    assert manifest["model"] == "student"


def test_train_reports_skipped_steps(tmp_path, data, capsys):
    """On a 32 m student grid two of the three scenes have no target on the
    grid: one epoch takes one step and reports the other two as skipped."""
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"schema_version": 1, "grid_h": 16, "grid_w": 16,
                               "pillar_embed": 4, "conv_channels": [4], "hidden": 8}))
    log = tmp_path / "log.jsonl"
    assert run(["train", "--model", "student", "--data", data, "--out", str(tmp_path / "sk"),
                "--steps", "3", "--model-config", str(cfg), "--log", str(log)]) == 0
    assert "trained student for 1 steps, skipped 2 with no target" in capsys.readouterr().out
    assert len(log.read_text().splitlines()) == 1


def test_bench_csv_and_svg(tmp_path):
    out = tmp_path / "bench.csv"
    svg = tmp_path / "bench.svg"
    code = run(["bench", "--out", str(out), "--svg", str(svg), "--model", "teacher",
                "--agents", "2,4", "--m", "4", "--reps", "5"])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert [int(r["n_agents"]) for r in rows] == [2, 4]
    assert svg.read_text().startswith("<svg")
    manifest = json.load(open(str(out) + ".run.json"))
    assert manifest["command"] == "bench"
