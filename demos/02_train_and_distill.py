"""Tiny end-to-end run: teacher, student baseline, and distilled student.

Everything is scaled down (few scenes, few steps) so the whole script runs
in about a minute; the point is the workflow, not the numbers.

Run:  python3 demos/02_train_and_distill.py
"""

import numpy as np

from trajdistill import metrics as mt
from trajdistill import models as md
from trajdistill import scenegen as sg
from trajdistill import train as tr

train_scenes = [sg.generate_scene(sg.GenConfig(num_scenes=100, seed=1), i) for i in range(100)]
eval_scenes = [sg.generate_scene(sg.GenConfig(num_scenes=40, seed=2), i) for i in range(40)]

# 1. Teacher: re-encodes the scene in each agent's frame; slow but accurate.
teacher = md.init_params(md.TeacherConfig(), np.random.default_rng(0))
log = tr.train_teacher(train_scenes, teacher, tr.TrainConfig(steps=60, seed=0))
print(f"teacher: loss {log.records[0].loss:.2f} -> {log.records[-1].loss:.2f}")

# 2. Student baseline: one shared rasterized encoding, cheap per-agent decode,
#    trained on groundtruth alone (method='none').
baseline = md.init_params(md.StudentConfig(), np.random.default_rng(0))
log = tr.distill_student(train_scenes, baseline, tr.TrainConfig(steps=60, seed=0))
print(f"baseline: loss {log.records[0].loss:.2f} -> {log.records[-1].loss:.2f}")

# 3. Distilled student: same architecture, but each mode of the frozen
#    teacher's trajectory set supervises the student mode of the same index,
#    weighted by the teacher's confidence in that mode (with a quarter-length
#    warm-up on the distillation loss alone).
distilled = md.init_params(md.StudentConfig(), np.random.default_rng(0))
cfg = tr.TrainConfig(steps=60, seed=0, method="set", lambda_mode="warmup25")
log = tr.distill_student(train_scenes, distilled, cfg, teacher=teacher)
print(f"distilled: loss {log.records[0].loss:.2f} -> {log.records[-1].loss:.2f}")

print(f"\n{'model':<10} {'minADE':>8} {'minFDE':>8} {'MR':>8} {'mAP':>8}")
for name, params in [("teacher", teacher), ("baseline", baseline), ("distilled", distilled)]:
    preds, gts = tr.predict_dataset(eval_scenes, params)
    r = mt.evaluate(preds, gts, k=6)
    print(f"{name:<10} {r.min_ade:>8.3f} {r.min_fde:>8.3f} {r.miss_rate:>8.3f} {r.mean_ap:>8.3f}")

print("\n(with more steps the gaps widen; see the acceptance suite for the "
      "full 2000-scene comparison)")
