"""Per-layer metrics derived from the spans of a traced run.

Every workload reports every metric. A layer that does no work in a
workload reports 0, and such metrics are counts, ratios or shares rather
than times, so that no time reads the same on every run.
"""

from __future__ import annotations

from tracer import SpanIndex

MODELS = ("teacher", "none", "set", "sample", "distribution")
METHODS = MODELS[1:]
TRAIN_SPANS = ("train.train_teacher", "train.distill_student")
LOSS_SPANS = (
    "losses.base_loss", "losses.combined_loss", "losses.distill_sample_loss",
    "losses.distill_distribution_loss",
)
COVERAGE_FLOOR_PCT = 90.0  # spans must account for this share of each unit of work

UNITS = {
    "models.teacher_forward_ms": "ms",
    "models.student_forward_scene_ms": "ms",
    "models.student_decode_ms_per_agent": "ms",
    "diffcore.conv2d_ms": "ms",
    "geom.world_to_agent_ms": "ms",
    "scenegen.generate_scene_ms": "ms",
    "metrics.evaluate_ms_per_agent": "ms",
    "diffcore.op_calls_per_agent.teacher": "count",
    "geom.world_to_agent_calls_per_agent": "count",
    **{f"diffcore.tape_nodes_per_step.{m}": "count" for m in MODELS},
    **{f"diffcore.backward_pct.{m}": "%" for m in MODELS},
    **{f"losses.loss_pct.{m}": "%" for m in METHODS},
    "gmm.gaussian2d_logpdf_pct": "%",
    "gmm.gaussian_kl_pct": "%",
    "train.adam_pct": "%",
    **{f"train.teacher_forwards_per_step.{m}": "count" for m in METHODS[1:]},
    "train.teacher_cache_hit_ratio": "ratio",
    "train.predict_dataset_pct": "%",
    "train.load_checkpoint_pct": "%",
    "scenegen.load_dataset_pct": "%",
    "trace.coverage_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_duration(ix: SpanIndex, name: str) -> float:
    spans = ix.outermost(name)
    return _ratio(sum(ix.duration(i) for i in spans), len(spans))


def _children(ix: SpanIndex, span: int, names) -> list[int]:
    return [c for c in ix.children[span] if ix.name(c) in names]


def compute(ix: SpanIndex) -> tuple[dict, list[float]]:
    """All per-layer metrics, and the coverage (%) of each unit of work by
    the spans directly inside it: the optimizer steps of one training call,
    one ``cli.main`` call, or a benchmark round that holds neither."""
    ms = 1e3
    out = {}
    teacher = ix.outermost("models.teacher_forward")
    out["models.teacher_forward_ms"] = ms * _mean_duration(ix, "models.teacher_forward")
    out["models.student_forward_scene_ms"] = ms * _mean_duration(ix, "models.student_forward_scene")
    decode = ix.outermost("models.student_decode_agent")
    batched = ix.outermost("models.student_predict")
    out["models.student_decode_ms_per_agent"] = ms * _ratio(
        sum(ix.duration(i) for i in decode) + sum(ix.self_time(i) for i in batched),
        len(decode) + sum(ix.tag(i) for i in batched),
    )
    out["diffcore.conv2d_ms"] = ms * _mean_duration(ix, "diffcore.conv2d")
    w2a = [i for i in ix.of("geom.world_to_agent") if ix.ancestor(i, "models.teacher_forward") >= 0]
    out["geom.world_to_agent_ms"] = ms * _ratio(sum(ix.duration(i) for i in w2a), len(teacher))
    out["scenegen.generate_scene_ms"] = ms * _mean_duration(ix, "scenegen.generate_scene")
    ev = ix.outermost("metrics.evaluate")
    out["metrics.evaluate_ms_per_agent"] = ms * _ratio(sum(ix.duration(i) for i in ev), sum(ix.tag(i) for i in ev))
    out["diffcore.op_calls_per_agent.teacher"] = _ratio(sum(ix.ops(i) for i in teacher), len(teacher))
    out["geom.world_to_agent_calls_per_agent"] = _ratio(len(w2a), len(teacher))

    # optimizer steps, per model
    coverage = []
    step_wall = {m: 0.0 for m in MODELS}
    n_steps = {m: 0 for m in MODELS}
    backward = {m: 0.0 for m in MODELS}
    nodes = {m: [] for m in MODELS}
    loss = {m: 0.0 for m in MODELS}
    adam = 0.0
    predicts = {m: 0 for m in MODELS}
    forwards = {m: 0 for m in MODELS}
    for name in TRAIN_SPANS:
        for t in ix.outermost(name):
            model = ix.tag(t)
            steps = ix.steps(t)
            wall = sum(end - start for start, end, _ in steps)
            step_wall[model] += wall
            n_steps[model] += len(steps)
            coverage.append(100.0 * _ratio(sum(ix.duration(c) for *_, spans in steps for c in spans), wall))
            for b in _children(ix, t, ("diffcore.Tape.backward",)):
                backward[model] += ix.duration(b)
                nodes[model].append(ix.tag(b))
            loss[model] += sum(ix.duration(c) for c in _children(ix, t, LOSS_SPANS))
            adam += sum(ix.duration(c) for c in _children(ix, t, ("train.adam_step", "train.clip_global_norm")))
            for p in _children(ix, t, ("train.FrozenTeacher.predict",)):
                predicts[model] += 1
                forwards[model] += len(_children(ix, p, ("models.teacher_forward",)))

    def training_time(name: str) -> float:
        spans = ix.outermost(name)
        return sum(ix.duration(i) for i in spans if any(ix.ancestor(i, t) >= 0 for t in TRAIN_SPANS))

    all_steps = sum(step_wall.values())
    for m in MODELS:
        out[f"diffcore.tape_nodes_per_step.{m}"] = _ratio(sum(nodes[m]), len(nodes[m]))
        out[f"diffcore.backward_pct.{m}"] = 100.0 * _ratio(backward[m], step_wall[m])
    for m in METHODS:
        out[f"losses.loss_pct.{m}"] = 100.0 * _ratio(loss[m], step_wall[m])
    out["gmm.gaussian2d_logpdf_pct"] = 100.0 * _ratio(training_time("gmm.gaussian2d_logpdf"), all_steps)
    out["gmm.gaussian_kl_pct"] = 100.0 * _ratio(training_time("gmm.gaussian_kl"), all_steps)
    out["train.adam_pct"] = 100.0 * _ratio(adam, all_steps)
    for m in METHODS[1:]:
        out[f"train.teacher_forwards_per_step.{m}"] = _ratio(forwards[m], n_steps[m])
    all_predicts = sum(predicts.values())
    out["train.teacher_cache_hit_ratio"] = _ratio(all_predicts - sum(forwards.values()), all_predicts)

    # shares of the measured rounds and the work that scores them
    rounds = ix.of("bench.round")
    window = sum(ix.duration(r) for r in rounds + ix.of("bench.finish"))
    for key, name in (
        ("train.predict_dataset_pct", "train.predict_dataset"),
        ("train.load_checkpoint_pct", "train.load_checkpoint"),
        ("scenegen.load_dataset_pct", "scenegen.load_dataset"),
    ):
        out[key] = 100.0 * _ratio(sum(ix.duration(i) for i in ix.outermost(name)), window)

    # units of work that are not optimizer steps
    for unit in ix.outermost("cli.main") + [r for r in rounds if not any(
            ix.name(c) in TRAIN_SPANS + ("cli.main",) for c in ix.children[r])]:
        coverage.append(100.0 * _ratio(sum(ix.duration(c) for c in ix.children[unit]), ix.duration(unit)))
    out["trace.coverage_pct"] = min(coverage) if coverage else 0.0
    return out, coverage
