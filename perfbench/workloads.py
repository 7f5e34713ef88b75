"""The benchmark's workloads: inputs, one round of work, and the checks.

Every workload is a class with four steps:

* ``setup(seed, workdir)`` builds the inputs from the seed alone;
* ``round()`` does one round of the workload's operations and returns its
  timings and outputs; every round of a run does the same work;
* ``finish(rounds)`` does the untimed work that scores the rounds' outputs;
* ``check(rounds)`` returns failure messages from comparing the program's
  outputs with computations made apart from it.

Scene sets are balanced by agent count (the same number of scenes with 2, 3,
4 and 5 agents for every seed), so the work in a round does not depend on
the seed and the timings of different seeds can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import checks
from trajdistill import cli
from trajdistill import losses as ls
from trajdistill import metrics as mt
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill import train as tr

K = 6  # modes scored by minADE
# Seed of the inputs that stay the same for every --seed: train's held-out
# test set and initial teacher weights, and the untrained weights that eval
# and busy_scene run. Their costs do not depend on the weights, and fixed
# weights leave minADE a function of the scenes (and training) alone.
FIXED_SEED = 0


def sub_seed(seed: int, *keys: int) -> int:
    """An independent 32-bit seed for one input of the workload."""
    return int(np.random.SeedSequence(seed, spawn_key=keys).generate_state(1)[0])


def balanced_scenes(seed: int, key: int, per_count: int, counts=(2, 3, 4, 5)) -> list:
    """``per_count`` generated intersection scenes for each agent count."""
    scenes = []
    for n in counts:
        cfg = sg.GenConfig(agents_min=n, agents_max=n, seed=sub_seed(seed, key, n))
        scenes += [sg.generate_scene(cfg, i) for i in range(per_count)]
    return scenes


def targets(scenes) -> list:
    return [(s, a) for s in scenes for a in s.prediction_targets() if a.future is not None]


def future_array(scenes) -> np.ndarray:
    """Agent-frame groundtruth of every prediction target, in dataset order."""
    return np.stack([checks.agent_frame_future(a.history, a.future) for _, a in targets(scenes)])


def _median(xs) -> float:
    return float(np.median(xs))


# ---------------------------------------------------------------------------
# train


class Train:
    """Teacher pre-training, then one student per distillation method.

    Each round starts every model from the same initial weights, so rounds
    repeat exactly; the held-out minADE of the first round's models is
    measured once, after the rounds.
    """

    name = "train"
    STEPS = 24  # optimizer steps per model; equals the training scene count
    TRAIN_PER_COUNT = 6  # 24 training scenes
    HELD_OUT_PER_COUNT = 15  # 60 held-out scenes, 210 agents
    # four and eight times the program's default rate (5e-4, meant for 200
    # steps), so that 24 steps move the losses; at the teacher's rate its
    # held-out minADE varies least from seed to seed
    TEACHER_LR = 4e-3
    STUDENT_LR = 2e-3
    GRAD_COORDS = 4  # finite-difference coordinates per model
    EVALUATED = ("teacher", "none", "set", "distribution")
    # the models whose training lowered their mean training loss for every
    # seed tried; the others' rises for some seeds (README, "Choices that
    # depart from the first plan")
    PROGRESS_CHECKED = ("teacher", "distribution")
    min_rounds = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.scenes = balanced_scenes(seed, 1, self.TRAIN_PER_COUNT)
        # one test set for every seed, so that minADE compares the training
        self.held_out = balanced_scenes(FIXED_SEED, 2, self.HELD_OUT_PER_COUNT)
        self.held_out_gts = future_array(self.held_out)
        self.n_round = 0

    def train_config(self, method: str | None, steps: int | None = None) -> tr.TrainConfig:
        extra = {} if method is None else {"method": method, "lambda_mode": "constant"}
        return tr.TrainConfig(
            steps=steps or self.STEPS, lr=self.TEACHER_LR if method is None else self.STUDENT_LR,
            seed=sub_seed(self.seed, 3), **extra
        )

    def init(self, kind: str) -> md.ModelParams:
        if kind == "teacher":
            return md.init_params(md.TeacherConfig(), np.random.default_rng(sub_seed(FIXED_SEED, 4)))
        return md.init_params(md.StudentConfig(), np.random.default_rng(sub_seed(self.seed, 5)))

    def round(self) -> dict:
        out = {"step_ms": {}, "losses": {}, "min_ade": {}, "preds": {},
               "params": {}, "attempted": 0, "failed": 0}
        models = ["teacher"] + list(tr.METHODS)
        for name in models:
            params = self.init("teacher" if name == "teacher" else "student")
            t0 = time.perf_counter()
            if name == "teacher":
                log = tr.train_teacher(self.scenes, params, self.train_config(None))
            else:
                teacher = out["params"]["teacher"] if name != "none" else None
                log = tr.distill_student(self.scenes, params, self.train_config(name), teacher=teacher)
            out["step_ms"][name] = (time.perf_counter() - t0) * 1e3 / self.STEPS
            out["attempted"] += self.STEPS
            out["failed"] += self.STEPS - len(log.records)
            out["losses"][name] = [r.loss for r in log.records]
            out["params"][name] = params
        if self.n_round:
            # later rounds repeat the first; keeping their models would make
            # peak memory grow with the number of rounds a run fits
            del out["params"]
        self.n_round += 1
        return out

    def finish(self, rounds: list[dict]) -> None:
        """Held-out minADE of the first round's models."""
        first = rounds[0]
        for name in self.EVALUATED:
            preds, gts = tr.predict_dataset(self.held_out, first["params"][name])
            first["preds"][name] = preds
            first["min_ade"][name] = mt.evaluate(preds, gts, k=K).min_ade

    def e2e(self, rounds: list[dict]) -> dict:
        step = {m: _median([r["step_ms"][m] for r in rounds]) for m in rounds[0]["step_ms"]}
        first = rounds[0]["min_ade"]
        return {
            "teacher_ms": step["teacher"],
            "student_ms": float(np.mean([step[m] for m in tr.METHODS])),
            "min_ade_m.teacher": first["teacher"],
            "min_ade_m.student": first["distribution"],
            "detail": {"step_ms": step, "min_ade_m": first,
                       "samples": {m: [r["step_ms"][m] for r in rounds] for m in step}},
        }

    # -- the loss as the training loop forms it, from public functions ------

    def step_loss(self, scene, params, method: str | None, teacher, rng) -> float:
        """Mean loss over a scene's targets, as one optimizer step forms it."""
        opts = self.train_config(method).distill_options() if method else None
        agents = [a for a in scene.prediction_targets() if a.future is not None]
        enc = md.student_forward_scene(scene, params) if method else None
        total = 0.0
        for a in agents:
            gt = tr.agent_frame_gt(scene, a.id)
            if method is None:
                lb = ls.base_loss(md.teacher_forward(scene, a.id, params), gt)
            else:
                pred = md.student_decode_agent(enc, scene, a.id, params)
                t = md.teacher_forward(scene, a.id, teacher).detach() if teacher else None
                if method == "none":
                    lb = ls.base_loss(pred, gt)
                elif method == "set":
                    lb = ls.combined_loss(pred, t, gt, 1, opts)
                elif method == "sample":
                    lb = ls.distill_sample_loss(pred, t, rng, opts)
                else:
                    lb = ls.distill_distribution_loss(pred, t, gt, opts)
            total += float(lb.total.data)
        return total / len(agents)

    def mean_loss(self, params, method: str | None, teacher) -> float:
        """Mean step loss over every training scene, with the same sample
        draws on every call."""
        rng = np.random.default_rng(sub_seed(self.seed, 7))
        return float(np.mean([self.step_loss(s, params, method, teacher, rng) for s in self.scenes]))

    def _second_step(self, name: str, teacher) -> tuple[md.ModelParams, dict, list[tr.StepRecord]]:
        """Train two steps from the initial weights and capture the weights
        and the gradient of the second, before clipping and the update.

        The second step, not the first: the initial biases are zero, so the
        convolutions of the empty grid cells sit exactly on the kink of the
        ReLU, where central differences do not measure the gradient.
        """
        captured = []
        clip = tr.clip_global_norm
        kind = "teacher" if name == "teacher" else "student"
        params = self.init(kind)

        def capture(grads, threshold):
            captured.append(({k: t.data.copy() for k, t in params.buffers.items()},
                             {k: g.copy() for k, g in grads.items()}))
            return clip(grads, threshold)

        tr.clip_global_norm = capture
        try:
            if name == "teacher":
                log = tr.train_teacher(self.scenes, params, self.train_config(None, steps=2))
            else:
                log = tr.distill_student(self.scenes, params, self.train_config(name, steps=2), teacher=teacher)
        finally:
            tr.clip_global_norm = clip
        weights, grads = captured[1]
        for k, t in params.buffers.items():
            t.data[...] = weights[k]
        return params, grads, log.records

    def check(self, rounds: list[dict]) -> list[str]:
        first = rounds[0]
        failures = []
        for r in rounds[1:]:
            failures += checks.check_identical("train", first["losses"], r["losses"])
        n_targets = len(self.held_out_gts)
        for name in self.EVALUATED:
            preds = first["preds"][name]
            if len(preds) != n_targets:
                failures.append(f"train {name}: {len(preds)} held-out predictions for {n_targets} targets")
                continue
            failures += checks.check_min_ade(
                f"train min_ade_m.{name}", first["min_ade"][name], preds, self.held_out_gts, K
            )
        teacher = first["params"]["teacher"]
        pick = np.random.default_rng(sub_seed(self.seed, 6))
        for name in ["teacher"] + list(tr.METHODS):
            method = None if name == "teacher" else name
            uses_teacher = teacher if name not in ("teacher", "none") else None
            sample_seed = self.train_config(method).seed + 1

            # training lowers the mean loss over the training scenes
            if name in self.PROGRESS_CHECKED:
                kind = "teacher" if name == "teacher" else "student"
                failures += checks.check_loss_decreased(
                    f"train {name}", self.mean_loss(self.init(kind), method, uses_teacher),
                    self.mean_loss(first["params"][name], method, uses_teacher))

            params, grads, recs = self._second_step(name, uses_teacher)
            # replaying step one's sample draws leaves the stream as step two finds it
            rng = np.random.default_rng(sample_seed)
            self.step_loss(self.scenes[recs[0].scene_index], params, method, uses_teacher, rng)
            state = rng.bit_generator.state

            # the gradient of the second step against central differences
            scene = self.scenes[recs[1].scene_index]

            def loss():
                rng = np.random.default_rng(sample_seed)
                rng.bit_generator.state = state
                return self.step_loss(scene, params, method, uses_teacher, rng)

            failures += checks.check_close(f"train {name} step loss", loss(), recs[1].loss, 1e-9 * abs(recs[1].loss))
            cands = [(k, idx) for k, g in grads.items() for idx in zip(*np.nonzero(np.abs(g) > 1e-2))]
            errs = []
            for i in pick.permutation(len(cands))[: 3 * self.GRAD_COORDS]:
                k, idx = cands[i]
                err = checks.grad_rel_error(loss, params.buffers[k].data, grads[k][idx], idx)
                if err is not None:
                    errs.append(err)
                if len(errs) == self.GRAD_COORDS:
                    break
            failures += checks.check_grad(f"train {name}", errs, self.GRAD_COORDS)

        return failures


# ---------------------------------------------------------------------------
# eval


class Eval:
    """``trajdistill eval`` in process, for a teacher and a student
    checkpoint, over generated JSON-lines datasets of small scenes.

    A round evaluates each dataset with each checkpoint; the time per agent
    is the median over all the calls of a run."""

    name = "eval"
    DATASETS = 3
    PER_COUNT = 10  # 40 scenes, 140 agents per dataset
    min_rounds = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scenes, self.data = [], []
        for d in range(self.DATASETS):
            scenes = balanced_scenes(seed, 1 + d, self.PER_COUNT)
            path = os.path.join(workdir, f"scenes{d}.jsonl")
            header = {"schema_version": sg.SCHEMA_VERSION, "header": True, "num_scenes": len(scenes),
                      "seed": seed, "history_len": scenes[0].history_len,
                      "future_len": scenes[0].future_len}
            with open(path, "w") as fh:
                for rec in [header] + [sg.scene_to_record(s) for s in scenes]:
                    fh.write(json.dumps(rec) + "\n")
            self.scenes.append(scenes)
            self.data.append(path)
        self.ckpt = {}
        for kind, cfg, key in (("teacher", md.TeacherConfig(), 4), ("student", md.StudentConfig(), 5)):
            params = md.init_params(cfg, np.random.default_rng(sub_seed(FIXED_SEED, key)))
            self.ckpt[kind] = os.path.join(workdir, kind)
            tr.save_checkpoint(params, self.ckpt[kind])
        self.n_targets = [len(targets(s)) for s in self.scenes]

    def round(self) -> dict:
        out = {"ms_per_agent": {"teacher": [], "student": []}, "rows": [], "attempted": 0, "failed": 0}
        for d, data in enumerate(self.data):
            rows = {}
            for kind in ("teacher", "student"):
                csv_path = os.path.join(self.workdir, f"{kind}{d}.csv")
                argv = ["eval", "--data", data, "--ckpt", self.ckpt[kind], "--out", csv_path, "--k", str(K)]
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
                wall = time.perf_counter() - t0
                out["attempted"] += self.n_targets[d]
                row = checks.read_metrics_csv(csv_path) if rc == 0 else None
                done = int(row["n_agents"]) if row else 0
                out["failed"] += self.n_targets[d] - done
                rows[kind] = row
                if done:
                    out["ms_per_agent"][kind].append(wall * 1e3 / done)
            out["rows"].append(rows)
        return out

    def finish(self, rounds: list[dict]) -> None:
        pass

    def e2e(self, rounds: list[dict]) -> dict:
        ms = {k: _median([t for r in rounds for t in r["ms_per_agent"][k]]) for k in ("teacher", "student")}
        # every dataset has as many agents, so the mean of the files' minADE
        # is the minADE over all agents
        rows = rounds[0]["rows"]
        return {
            "teacher_ms": ms["teacher"],
            "student_ms": ms["student"],
            "min_ade_m.teacher": float(np.mean([float(r["teacher"]["minADE"]) for r in rows])),
            "min_ade_m.student": float(np.mean([float(r["student"]["minADE"]) for r in rows])),
            "detail": {"eval_agents_per_s": {k: 1e3 / v for k, v in ms.items()},
                       "samples": {k: [t for r in rounds for t in r["ms_per_agent"][k]] for k in ms}},
        }

    def predictions(self, kind: str, scenes) -> list:
        """The checkpoint's predictions for every target, made apart from
        the CLI: the teacher per agent, the student batched per scene."""
        params = tr.load_checkpoint(self.ckpt[kind])
        preds = []
        for scene in scenes:
            ids = [a.id for a in scene.prediction_targets() if a.future is not None]
            if kind == "teacher":
                preds += [md.teacher_forward(scene, i, params).detach() for i in ids]
            else:
                batch = md.student_predict(scene, ids, params)
                preds += [batch[i] for i in ids]
        return preds

    def check(self, rounds: list[dict]) -> list[str]:
        failures = []
        first = rounds[0]["rows"]
        for r in rounds[1:]:
            failures += checks.check_identical("eval", first, r["rows"])
        for d, scenes in enumerate(self.scenes):
            gts = future_array(scenes)
            for kind in ("teacher", "student"):
                if first[d][kind] is None:
                    failures.append(f"eval {kind} dataset {d}: the eval command failed")
                    continue
                failures += checks.check_eval_csv(
                    f"eval {kind} dataset {d}", first[d][kind], self.predictions(kind, scenes), gts,
                    self.n_targets[d], K
                )
        return failures


# ---------------------------------------------------------------------------
# busy_scene


class BusyScene:
    """Full-scene inference on intersections with 128 agents: the teacher
    per agent, the student once per scene. Rounds cycle over the scenes."""

    name = "busy_scene"
    AGENTS = 128
    SCENES = 6
    STUDENT_REPEATS = 10  # the student is ~50x cheaper; time it more often
    EQUIV_AGENTS = 4
    min_rounds = SCENES

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        cfg = sg.GenConfig(agents_min=self.AGENTS, agents_max=self.AGENTS, seed=sub_seed(seed, 1))
        self.scenes = [sg.generate_scene(cfg, i) for i in range(self.SCENES)]
        self.teacher = md.init_params(md.TeacherConfig(), np.random.default_rng(sub_seed(FIXED_SEED, 4)))
        self.student = md.init_params(md.StudentConfig(), np.random.default_rng(sub_seed(FIXED_SEED, 5)))
        self.gts = [future_array([s]) for s in self.scenes]
        self.n_round = 0

    def round(self) -> dict:
        idx = self.n_round % self.SCENES
        self.n_round += 1
        scene = self.scenes[idx]
        ids = [a.id for a in scene.agents]
        t0 = time.perf_counter()
        teacher = [md.teacher_forward(scene, i, self.teacher) for i in ids]
        teacher_ms = (time.perf_counter() - t0) * 1e3
        student_ms = []
        for _ in range(self.STUDENT_REPEATS):
            t0 = time.perf_counter()
            batch = md.student_predict(scene, ids, self.student)
            student_ms.append((time.perf_counter() - t0) * 1e3)
        # an agent's prediction fails when it is missing or not finite
        teacher = [p.detach() if checks.usable(p) else None for p in teacher]
        student = [batch.get(i) if checks.usable(batch.get(i)) else None for i in ids]
        gts = [tr.agent_frame_gt(scene, i) for i in ids]
        min_ade = {}
        for kind, preds in (("teacher", teacher), ("student", student)):
            ok = [j for j, p in enumerate(preds) if p is not None]
            min_ade[kind] = mt.evaluate([preds[j] for j in ok], [gts[j] for j in ok], k=K).min_ade
        out = {
            "scene": idx, "teacher_ms": teacher_ms, "student_ms": student_ms, "min_ade": min_ade,
            "attempted": 2 * len(ids), "failed": teacher.count(None) + student.count(None),
        }
        if self.n_round <= self.SCENES:
            # the checks need one visit per scene; keeping every visit would
            # make peak memory grow with the number of rounds a run fits
            out.update(teacher=teacher, student=student)
        return out

    def finish(self, rounds: list[dict]) -> None:
        pass

    def e2e(self, rounds: list[dict]) -> dict:
        firsts = rounds[: self.SCENES]
        return {
            "teacher_ms": _median([r["teacher_ms"] for r in rounds]),
            "student_ms": _median([t for r in rounds for t in r["student_ms"]]),
            "min_ade_m.teacher": float(np.mean([r["min_ade"]["teacher"] for r in firsts])),
            "min_ade_m.student": float(np.mean([r["min_ade"]["student"] for r in firsts])),
            "detail": {"samples": {"teacher": [r["teacher_ms"] for r in rounds],
                                   "student": [r["student_ms"] for r in rounds]}},
        }

    def check(self, rounds: list[dict]) -> list[str]:
        failures = []
        # the checks cover the predictions that did not fail
        for r in rounds[: self.SCENES]:
            i = r["scene"]
            for kind in ("teacher", "student"):
                ok = [j for j, p in enumerate(r[kind]) if p is not None]
                if ok:
                    failures += checks.check_min_ade(f"busy_scene {kind} scene {i}", r["min_ade"][kind],
                                                     [r[kind][j] for j in ok], self.gts[i][ok], K)
            failures += checks.check_weights_sum(
                f"busy_scene scene {i}", [p for p in r["teacher"] + r["student"] if p is not None])
        r = rounds[0]
        scene = self.scenes[r["scene"]]
        ids = [a.id for a in scene.agents]
        rng = np.random.default_rng(sub_seed(self.seed, 6))

        # teacher: rigid motion of the scene moves its predictions with it
        theta, tx, ty = rng.uniform(-np.pi, np.pi), rng.uniform(-30, 30), rng.uniform(-30, 30)
        moved = checks.move_scene(scene, theta, tx, ty)
        done = [j for j, p in enumerate(r["teacher"]) if p is not None and r["student"][j] is not None]
        picks = sorted(rng.choice(done, size=min(self.EQUIV_AGENTS, len(done)), replace=False))
        failures += checks.check_equivariance(
            "busy_scene teacher",
            [r["teacher"][j] for j in picks],
            [md.teacher_forward(moved, ids[j], self.teacher) for j in picks],
            theta, tx, ty,
        )

        # student: every agent decoded alone matches the batched decode
        enc = md.student_forward_scene(scene, self.student)
        for j in (j for j, p in enumerate(r["student"]) if p is not None):
            aid = ids[j]
            alone = md.student_decode_agent(enc, scene, aid, self.student)
            failures += checks.check_same_prediction(f"busy_scene student {aid}", alone, r["student"][j])
        for j in picks[:2]:
            alone = md.student_predict(scene, [ids[j]], self.student)[ids[j]]
            failures += checks.check_same_prediction(f"busy_scene student {ids[j]} alone", alone, r["student"][j])
        return failures


WORKLOADS = {w.name: w for w in (Train, Eval, BusyScene)}
