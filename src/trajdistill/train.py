"""Training: teacher pre-training and student distillation in one loop.

One optimizer step consumes one scene (all of its prediction targets).
Scene order is a seeded shuffle, reshuffled each epoch. Both models train
through the same loop (``_fit``), which predicts through
``models.predict_scene`` and calls the method's loss once per step over the
stack of all predicted targets: the teacher trains as the ``none`` method
(the base mixture NLL alone) at a constant lambda. The teacher is frozen
during distillation; its per-agent predictions are computed once, memoized
by (scene_id, agent_id), and stacked to match the student's. The ``set``
method trains with the confidence-weighted, index-matched set loss and the
teacher's CE and KL terms, plus the lambda-gated base loss.

Checkpoints are two files: a JSON manifest (schema version, model kind,
config, ordered tensor names and shapes) and a raw little-endian float32
blob holding the weights in manifest order.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import diffcore as dc
from . import gmm as gm
from . import losses as ls
from . import models as md
from .diffcore import Tensor
from .geom import Pose2, world_to_agent
from .scenegen import Scene

CHECKPOINT_SCHEMA_VERSION = 1
METHODS = ("none", "set", "sample", "distribution")


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    steps: int = 200
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 10.0
    method: str = "none"  # none | set | sample | distribution
    lambda_mode: str = "warmup25"  # constant | warmup25
    seed: int = 0
    sample_mode_only: bool = True
    ce_literal_per_k: bool = False
    kl_reverse: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown distillation method: {self.method!r}")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.lr <= 0 or self.clip_norm <= 0:
            raise ValueError("lr and clip_norm must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def distill_options(self) -> ls.DistillOptions:
        return ls.DistillOptions(
            ce_literal_per_k=self.ce_literal_per_k,
            kl_reverse=self.kl_reverse,
            sample_mode_only=self.sample_mode_only,
        )


def _json_matches(value, default) -> bool:
    """Whether decoded JSON ``value`` has the type of the field default: a
    float also takes an int, a bool is not a number, and a tuple is given as
    a list whose items each match the default's first item."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_matches(v, default[0]) for v in value)
    return type(value) is type(default)


def config_from_dict(cls, values):
    """Build the config dataclass ``cls`` (TrainConfig, GenConfig, TeacherConfig,
    StudentConfig) from decoded JSON, for config files and checkpoint
    manifests alike; a missing key takes the field default.

    Raises ValueError for a non-object, an unknown key, a value whose JSON
    type differs from the field default's, or a config ``cls`` rejects.
    """
    if not isinstance(values, dict):
        raise ValueError(f"expected a JSON object, got {type(values).__name__}")
    defaults = {
        f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(cls)
    }
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    for key, value in values.items():
        if not _json_matches(value, defaults[key]):
            raise ValueError(f"{key} must be like {defaults[key]!r}, got {value!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


# ---------------------------------------------------------------------------
# optimizer


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_global_norm(grads: dict[str, np.ndarray], threshold: float) -> float:
    """Scale all gradients in place so the global norm is <= threshold.

    Returns the pre-clip global norm.
    """
    norm = global_norm(grads)
    if norm > threshold:
        scale = threshold / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: md.ModelParams, grads: dict[str, np.ndarray], state: AdamState, cfg: TrainConfig
) -> None:
    """Bias-corrected Adam update applied in place to params.buffers."""
    state.t += 1
    t = state.t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        params.buffers[name].data -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _collect_grads(params: md.ModelParams) -> dict[str, np.ndarray]:
    """Each buffer's gradient, handed over uncopied: the backward allocated
    it, and ``_zero_grads`` drops it before the next step."""
    return {name: t.grad for name, t in params.buffers.items() if t.grad is not None}


def _zero_grads(params: md.ModelParams) -> None:
    for t in params.buffers.values():
        t.grad = None


# ---------------------------------------------------------------------------
# data plumbing


def agent_frame_gt(scene: Scene, agent_id: str) -> gm.Trajectory:
    agent = scene.agent_by_id(agent_id)
    if agent.future is None:
        raise ValueError(f"agent {agent_id} has no future to supervise on")
    x, y, heading = agent.current_pose()
    states = world_to_agent(Pose2(x, y, heading), agent.future)
    return gm.Trajectory(states=states, validity=np.ones(len(states), dtype=bool))


def _scene_order(n_scenes: int, steps: int, rng: np.random.Generator) -> list[int]:
    order: list[int] = []
    while len(order) < steps:
        epoch = rng.permutation(n_scenes)
        order.extend(int(i) for i in epoch)
    return order[:steps]


@dataclass
class StepRecord:
    step: int
    scene_index: int
    loss: float
    nll: float
    ce: float
    kl: float
    active_lambda: int
    grad_norm: float
    n_agents: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class TrainLog:
    """JSON-lines step log; one record per optimizer step."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.records: list[StepRecord] = []
        self._fh = open(path, "w") if path else None

    def append(self, rec: StepRecord) -> None:
        self.records.append(rec)
        if self._fh:
            self._fh.write(rec.to_json() + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# training


class FrozenTeacher:
    """Memoized, detached teacher predictions keyed by (scene_id, agent_id)."""

    def __init__(self, params: md.ModelParams):
        if params.kind != "teacher":
            raise ValueError("FrozenTeacher requires teacher params")
        self.params = params
        self._cache: dict[tuple[str, str], gm.TrajectoryGMM] = {}
        self.forward_calls = 0

    def predict(self, scene: Scene, agent_id: str) -> gm.TrajectoryGMM:
        key = (scene.scene_id, agent_id)
        if key not in self._cache:
            self.forward_calls += 1
            # kept off any active (student) tape: nothing flows back to the teacher
            with dc.no_tape():
                self._cache[key] = md.teacher_forward(scene, agent_id, self.params).detach()
        return self._cache[key]


def _scene_loss(
    pred: gm.TrajectoryGMM,
    teacher_pred: gm.TrajectoryGMM | None,
    gt: gm.Trajectory,
    cfg: TrainConfig,
    lam: int,
    rng: np.random.Generator,
) -> ls.LossBreakdown:
    if cfg.method == "none":
        return ls.base_loss(pred, gt)
    assert teacher_pred is not None
    opts = cfg.distill_options()
    if cfg.method == "set":
        return ls.combined_loss(pred, teacher_pred, gt, lam, opts)
    if cfg.method == "sample":
        return ls.distill_sample_loss(pred, teacher_pred, rng, opts)
    return ls.distill_distribution_loss(pred, teacher_pred, gt, opts)


def _fit(
    scenes: list[Scene],
    params: md.ModelParams,
    cfg: TrainConfig,
    frozen: FrozenTeacher | None,
    log: TrainLog | None,
) -> TrainLog:
    """The optimizer loop of both models: one scene per step, the mean
    per-agent loss of its prediction targets, clipped Adam. A scene with no
    target to predict is skipped: no record, no update."""
    log = log or TrainLog()
    rng = np.random.default_rng(cfg.seed)
    sample_rng = np.random.default_rng(cfg.seed + 1)
    order = _scene_order(len(scenes), cfg.steps, rng)
    state = AdamState()
    for step, scene_idx in enumerate(order):
        scene = scenes[scene_idx]
        ids = [a.id for a in scene.prediction_targets() if a.future is not None]
        lam = ls.lambda_schedule(step, cfg.steps, cfg.lambda_mode)
        _zero_grads(params)
        with dc.Tape() as tape:
            ids, pred = md.predict_scene(scene, ids, params)
            if not ids:
                continue
            gt = gm.Trajectory(states=np.stack([agent_frame_gt(scene, aid).states for aid in ids]))
            tpred = gm.stack([frozen.predict(scene, aid) for aid in ids]) if frozen else None
            lb = _scene_loss(pred, tpred, gt, cfg, lam, sample_rng)
            n = len(ids)
            total = lb.total * (1.0 / n)
            tape.backward(total)
        grads = _collect_grads(params)
        norm = clip_global_norm(grads, cfg.clip_norm)
        adam_step(params, grads, state, cfg)
        log.append(
            StepRecord(
                step=step, scene_index=scene_idx, loss=float(total.data),
                nll=float(lb.nll_term.data) / n, ce=float(lb.ce_term.data) / n,
                kl=float(lb.kl_term.data) / n, active_lambda=lam,
                grad_norm=norm, n_agents=n,
            )
        )
    log.close()
    return log


def train_teacher(
    scenes: list[Scene],
    params: md.ModelParams,
    cfg: TrainConfig,
    log: TrainLog | None = None,
) -> TrainLog:
    """Minimize the base mixture NLL over all prediction targets, one scene
    per step: the ``none`` method at a constant lambda."""
    if params.kind != "teacher":
        raise ValueError("train_teacher requires teacher params")
    return _fit(scenes, params, replace(cfg, method="none", lambda_mode="constant"), None, log)


def distill_student(
    scenes: list[Scene],
    params: md.ModelParams,
    cfg: TrainConfig,
    teacher: md.ModelParams | None = None,
    log: TrainLog | None = None,
) -> TrainLog:
    """Train the student; method 'none' is the no-teacher baseline and must
    reproduce it exactly for equal seeds."""
    if params.kind != "student":
        raise ValueError("distill_student requires student params")
    frozen: FrozenTeacher | None = None
    if cfg.method != "none":
        if teacher is None:
            raise ValueError(f"method {cfg.method!r} requires teacher params")
        if teacher.config.num_modes != params.config.num_modes:
            raise ValueError(
                f"mode count mismatch: teacher K={teacher.config.num_modes}, "
                f"student K={params.config.num_modes}"
            )
        if teacher.config.horizon != params.config.horizon:
            raise ValueError(
                f"horizon mismatch: teacher T={teacher.config.horizon}, "
                f"student T={params.config.horizon}"
            )
        frozen = FrozenTeacher(teacher)
    return _fit(scenes, params, cfg, frozen, log)


def predict_dataset(
    scenes: list[Scene], params: md.ModelParams
) -> tuple[list[gm.TrajectoryGMM], list[gm.Trajectory]]:
    """Agent-frame predictions and groundtruths for every prediction target.

    Student targets outside the grid extent are skipped.
    """
    preds: list[gm.TrajectoryGMM] = []
    gts: list[gm.Trajectory] = []
    for scene in scenes:
        ids = [a.id for a in scene.prediction_targets() if a.future is not None]
        ids, stack = md.predict_scene(scene, ids, params)
        if ids:
            preds.extend(gm.rows(stack))
            gts.extend(agent_frame_gt(scene, aid) for aid in ids)
    return preds, gts


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: md.ModelParams, prefix: str) -> tuple[str, str]:
    """Write <prefix>.manifest.json and <prefix>.weights.bin."""
    entries = [
        {"name": name, "shape": list(t.data.shape)} for name, t in params.buffers.items()
    ]
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": params.kind,
        "config": asdict(params.config),
        "tensors": entries,
    }
    man_path = prefix + ".manifest.json"
    bin_path = prefix + ".weights.bin"
    with open(man_path + ".tmp", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(bin_path + ".tmp", "wb") as fh:
        for t in params.buffers.values():
            fh.write(t.data.astype("<f4").tobytes())
    os.replace(man_path + ".tmp", man_path)
    os.replace(bin_path + ".tmp", bin_path)
    return man_path, bin_path


def load_checkpoint(prefix: str) -> md.ModelParams:
    """Read a checkpoint; every malformed manifest or weights file raises
    CheckpointError (an unreadable manifest chains the OSError behind it),
    and a weights file that cannot be read raises its OSError."""
    man_path = prefix + ".manifest.json"
    bin_path = prefix + ".weights.bin"
    try:
        with open(man_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable manifest {man_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest {man_path} is not a JSON object")
    if manifest.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema_version: {manifest.get('schema_version')!r}"
        )
    kind = manifest.get("kind")
    if kind not in ("teacher", "student"):
        raise CheckpointError(f"unknown model kind in manifest: {kind!r}")
    config_cls = md.TeacherConfig if kind == "teacher" else md.StudentConfig
    try:
        config = config_from_dict(config_cls, manifest.get("config", {}))
    except ValueError as exc:
        raise CheckpointError(f"invalid {kind} config in manifest: {exc}") from exc
    try:
        entries = [(str(entry["name"]), tuple(entry["shape"])) for entry in manifest["tensors"]]
    except (TypeError, KeyError) as exc:
        raise CheckpointError(f"manifest has no valid tensor list: {exc!r}") from exc
    if any(type(d) is not int for _, shape in entries for d in shape):
        raise CheckpointError("manifest tensor shapes must be lists of integers")
    expected = dict(md._teacher_shapes(config) if kind == "teacher" else md._student_shapes(config))
    if dict(entries) != expected or len(entries) != len(expected):
        raise CheckpointError("manifest tensors do not match the model architecture")

    with open(bin_path, "rb") as fh:
        blob = fh.read()
    buffers: dict[str, Tensor] = {}
    offset = 0
    for name, shape in entries:
        n = int(np.prod(shape))
        nbytes = n * 4
        if offset + nbytes > len(blob):
            raise CheckpointError(
                f"weights file truncated at tensor {name!r}: "
                f"need {offset + nbytes} bytes, have {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).astype(np.float64)
        buffers[name] = Tensor(arr.reshape(shape))
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(
            f"weights file has {len(blob) - offset} trailing bytes beyond the manifest"
        )
    return md.ModelParams(kind=kind, config=config, buffers=buffers)
