"""Malformed input at the command line's I/O boundary maps to an exit code
(2 usage/config, 3 I/O, 4 semantic), never to a traceback.

The hypothesis tests mutate valid inputs once each: replace one node, at any
depth, with a JSON value of another type; delete a key; or add an unknown
key. Every run is derandomized so the suite stays deterministic.
"""

import copy
import json
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajdistill import cli
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill import train as tr

FUZZ = settings(
    derandomize=True, database=None, deadline=None, max_examples=600,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
EXIT_CODES = {0, 2, 3, 4}

TEACHER = md.TeacherConfig(hidden=8, num_modes=2)
STUDENT = md.StudentConfig(grid_h=16, grid_w=16, cell_size=6.0, pillar_embed=4,
                           conv_channels=(4,), patch=3, hidden=8, num_modes=2)

# ---------------------------------------------------------------------------
# mutation strategy

_LEAF = st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(
    allow_nan=False, allow_infinity=False) | st.text(max_size=4)
_BY_KIND = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "array": st.lists(_LEAF, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _LEAF, max_size=3),
}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """``doc`` with one mutation at a node reached by a random walk from the
    root that stops at each level with probability 1/4."""
    doc = copy.deepcopy(doc)
    path = ()
    while _children(_get(doc, path)) and (not path or draw(st.integers(0, 3))):
        path += (draw(st.sampled_from(_children(_get(doc, path)))),)
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        old = _get(doc, path)
        new = draw(st.sampled_from([k for k in _BY_KIND if k != _kind(old)]).flatmap(_BY_KIND.get))
        if not path:
            return new
        _get(doc, path[:-1])[path[-1]] = new
    elif op == "delete":
        while path and not isinstance(_get(doc, path[:-1]), dict):
            path = path[:-1]
        if path:
            del _get(doc, path[:-1])[path[-1]]
    else:
        while not isinstance(_get(doc, path), dict):
            path = path[:-1]
        _get(doc, path)["zz_unknown"] = draw(_LEAF)
    return doc


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.fixture(scope="module")
def lines():
    """Header and one scene record of a small dataset, as decoded JSON."""
    cfg = sg.GenConfig(num_scenes=1, agents_min=3, agents_max=3, seed=4)
    header = {"schema_version": sg.SCHEMA_VERSION, "header": True, "num_scenes": 1,
              "seed": 4, "history_len": cfg.history_len, "future_len": cfg.future_len}
    return [header, sg.scene_to_record(sg.generate_scene(cfg, 0))]


def _write_lines(path, records) -> str:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def data(work, lines):
    return _write_lines(work / "scenes.jsonl", lines)


@pytest.fixture(scope="module")
def ckpt(work):
    out = {}
    for kind, cfg in (("teacher", TEACHER), ("student", STUDENT)):
        out[kind] = str(work / kind)
        tr.save_checkpoint(md.init_params(cfg, np.random.default_rng(0)), out[kind])
    return out


def _eval(data, prefix, work) -> int:
    return cli.main(["eval", "--data", data, "--ckpt", prefix, "--out", str(work / "m.csv"),
                     "--k", "2"])


@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_unmutated_inputs_exit_0(work, data, ckpt, kind):
    """The inputs the fuzz mutates are valid: eval runs to its metrics."""
    assert _eval(data, ckpt[kind], work) == 0


# ---------------------------------------------------------------------------
# fuzz: dataset lines, checkpoint manifests, config files


@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_fuzz_dataset_line(work, lines, ckpt, kind):
    @FUZZ
    @given(line=st.sampled_from([0, 1]), data=st.data())
    def check(line, data):
        records = list(lines)
        records[line] = data.draw(mutated(lines[line]))
        path = _write_lines(work / f"fuzz-{kind}.jsonl", records)
        assert _eval(path, ckpt[kind], work) in EXIT_CODES

    check()


@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_fuzz_checkpoint_manifest(work, data, ckpt, kind):
    prefix = str(work / f"fuzz-{kind}")
    shutil.copy(ckpt[kind] + ".weights.bin", prefix + ".weights.bin")
    with open(ckpt[kind] + ".manifest.json") as fh:
        manifest = json.load(fh)

    @FUZZ
    @given(doc=mutated(manifest))
    def check(doc):
        with open(prefix + ".manifest.json", "w") as fh:
            json.dump(doc, fh)
        assert _eval(data, prefix, work) in EXIT_CODES

    check()


def _config_doc(cfg) -> dict:
    return json.loads(json.dumps({"schema_version": 1, **asdict(cfg)}))


@pytest.mark.parametrize("which", ["gen", "train", "teacher", "student"])
def test_fuzz_config_file(work, data, which):
    """One config file per config class, read through ``_load_config``; the
    command line pins the run's size so that a deleted key stays cheap."""
    path = str(work / f"fuzz-{which}.json")
    out = str(work / f"fuzz-{which}-out")
    base, argv = {
        "gen": (sg.GenConfig(agents_min=2, agents_max=2),
                ["gen", "--out", out, "--num-scenes", "1", "--config", path]),
        "train": (tr.TrainConfig(steps=1),
                  ["train", "--data", data, "--out", out, "--steps", "1", "--config", path]),
        "teacher": (TEACHER, ["train", "--data", data, "--out", out, "--steps", "1",
                              "--model-config", path]),
        "student": (STUDENT, ["train", "--model", "student", "--data", data, "--out", out,
                              "--steps", "1", "--model-config", path]),
    }[which]

    @FUZZ
    @given(doc=mutated(_config_doc(base)))
    def check(doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cli.main(argv) in EXIT_CODES

    check()


# ---------------------------------------------------------------------------
# explicit cases, most of which once ended in a traceback (exit 1)


def _config(work, name, body) -> str:
    path = work / name
    path.write_text(json.dumps({"schema_version": 1, **body}))
    return str(path)


def test_log_path_is_a_directory_exit_3(work, data):
    assert cli.main(["train", "--data", data, "--out", str(work / "t"), "--steps", "1",
                     "--model-config", _config(work, "t.json", {"hidden": 8}),
                     "--log", str(work)]) == 3


@pytest.mark.parametrize("line", [0, 1], ids=["header", "scene"])
def test_dataset_line_not_an_object_exit_4(work, lines, ckpt, line):
    records = list(lines)
    records[line] = [1, 2]
    path = _write_lines(work / "list-line.jsonl", records)
    assert _eval(path, ckpt["teacher"], work) == 4


@pytest.mark.parametrize(
    "which, body",
    [
        ("gen", {"intent_prior": [1]}),
        ("gen", {"num_scenes": "3"}),
        ("student", {"conv_channels": "ab"}),
        ("teacher", {"hidden": 3.5}),
        ("train", {"steps": 2.5}),
        ("gen", {"history_len": 0}),
        ("student", {"cell_size": 0.0}),
        ("student", {"pillar_embed": 0}),
        ("student", {"hidden": 0}),
        ("student", {"patch": 0}),
        ("student", {"conv_channels": [4, 0]}),
        ("teacher", {"max_polylines": 0}),
        ("teacher", {"points_per_polyline": 1}),
        ("train", {"beta1": 1.0}),
        ("train", {"beta2": -0.5}),
        ("train", {"eps": 0.0}),
        ("gen", {"arm_length": -5}),
        ("gen", {"history_len": 1}),
    ],
    ids=["intent_prior_list", "num_scenes_string", "conv_channels_string",
         "hidden_float", "steps_float", "history_len_zero", "cell_size_zero",
         "pillar_embed_zero", "student_hidden_zero", "patch_zero", "conv_channel_zero",
         "max_polylines_zero", "points_per_polyline_one", "beta1_one", "beta2_negative",
         "eps_zero", "arm_length_negative", "history_len_one"],
)
def test_bad_config_value_exit_2(work, data, which, body, capsys):
    """A value of the wrong type or out of range exits 2 and names its field."""
    path = _config(work, f"bad-{which}.json", body)
    out = str(work / "bad-out")
    argv = {
        "gen": ["gen", "--out", out, "--config", path],
        "train": ["train", "--data", data, "--out", out, "--config", path],
        "teacher": ["train", "--data", data, "--out", out, "--steps", "1", "--model-config", path],
        "student": ["train", "--model", "student", "--data", data, "--out", out, "--steps", "1",
                    "--model-config", path],
    }[which]
    assert cli.main(argv) == 2
    assert next(iter(body)) in capsys.readouterr().err


def test_partial_intent_prior_exit_0(work):
    """A label the prior leaves out has probability 0, as the prior's
    sum check already counts it."""
    path = _config(work, "prior.json", {"intent_prior": {"straight": 1.0}})
    assert cli.main(["gen", "--out", str(work / "prior.jsonl"), "--num-scenes", "2",
                     "--config", path]) == 0


def test_manifest_float_shape_exit_4(work, data, ckpt):
    prefix = str(work / "float-shape")
    shutil.copy(ckpt["teacher"] + ".weights.bin", prefix + ".weights.bin")
    with open(ckpt["teacher"] + ".manifest.json") as fh:
        manifest = json.load(fh)
    manifest["tensors"][0]["shape"] = [float(d) for d in manifest["tensors"][0]["shape"]]
    with open(prefix + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    assert _eval(data, prefix, work) == 4


@pytest.mark.parametrize(
    "mutate",
    [
        lambda a, r: a.update(id=[1]),
        lambda a, r: a.update(length="long"),
        lambda a, r: a.update(width=None),
        lambda a, r: r["roadgraph"][0].update(speed_limit_mps="fast"),
    ],
    ids=["agent_id_list", "length_string", "width_null", "speed_limit_string"],
)
@pytest.mark.parametrize("kind", ["teacher", "student"])
def test_mistyped_scene_field_exit_4(work, lines, ckpt, kind, mutate):
    scene = copy.deepcopy(lines[1])
    mutate(scene["agents"][0], scene)
    path = _write_lines(work / "bad-scene.jsonl", [lines[0], scene])
    assert _eval(path, ckpt[kind], work) == 4


def test_config_builder_types():
    assert tr.config_from_dict(md.StudentConfig, {"conv_channels": [8, 8]}).conv_channels == (8, 8)
    assert tr.config_from_dict(tr.TrainConfig, {"lr": 1}).lr == 1
    for values in ([1], {"steps": True}, {"lr": "x"}, {"warp": 1}, {"steps": 0}):
        with pytest.raises(ValueError):
            tr.config_from_dict(tr.TrainConfig, values)
    with pytest.raises(ValueError):
        tr.config_from_dict(md.StudentConfig, {"conv_channels": [8, 1.5]})


def test_missing_weights_file_exit_3(work, data, ckpt):
    prefix = str(work / "no-weights")
    shutil.copy(ckpt["teacher"] + ".manifest.json", prefix + ".manifest.json")
    assert not os.path.exists(prefix + ".weights.bin")
    assert _eval(data, prefix, work) == 3
