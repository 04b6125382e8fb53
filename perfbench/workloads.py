"""The benchmark's three workloads.

Each is a closed loop with one caller in one process: `setup(seed, work_dir)`
builds a panel of `panel` cases from the seed, `run(case)` is the timed call
into the program on one case, `check(case, outputs)` scores and checks its
outputs outside the timed span, and `check_run(accuracies)` checks the
accuracies of all cases a run scored. Operations take the cases in turn.
How much LM work a scene takes varies a lot from one scene to the next, so
the LM workloads spread a run over several scenes and the run reports the
median operation. Every stage is called through `mocorr.pipeline`, where the
traced run wraps it, so the stage spans read alike on every workload.
"""

import os
import shutil

import numpy as np

import mocorr.pipeline as pipeline
from mocorr import quat
from mocorr.metrics import mpjpe
from mocorr.motion import MotionMap, load_motion
from mocorr.net.train import TrainConfig
from mocorr.skeleton import load_skeleton
from mocorr.synth import SceneConfig

MOTION_ARTIFACTS = ("gt", "marker_ref", "init", "sv", "hybrid", "refined")
UNIT_TOL = 1e-9


def _case_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _unit_quats(motion):
    norms = np.linalg.norm(motion.quats.reshape(motion.n_frames, -1, 4), axis=2)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_TOL))


class Pipeline:
    """`run_pipeline` on a reduced scene: what a user runs end to end, and the
    only workload with silhouettes, artifact JSON, infer and evaluation.

    An operation takes some 20 s, so a run has room for two, and each
    operation gets a scene of its own: how long the fits and the refinement
    take varies from one scene to the next. The scene stays at 8 frames: on
    4-frame scenes (network kernel cut to 3, 20 epochs) refinement landed
    worse than the initial fit on 3 of 8 scenes."""

    name = "pipeline"
    panel = 2
    T = 8
    V = 2
    sil_points = 32
    epochs = 40

    def setup(self, seed, work_dir):
        cases = []
        for k, case_seed in enumerate(_case_seeds(seed, self.panel)):
            cfg = pipeline.default_pipeline_config(case_seed)
            cfg.scene = SceneConfig(T=self.T, V=self.V, sil_points=self.sil_points)
            # the default decays the learning rate for the last 100 epochs,
            # which on a short run would be all of them; decay the second
            # half instead, as the default does for its own 200 epochs
            cfg.train = TrainConfig(epochs=self.epochs, window=self.T,
                                    decay_epoch=self.epochs // 2 + 1)
            pipeline.apply_seed(cfg, case_seed)
            out_dir = os.path.join(work_dir, "pipeline", f"case{k}")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            cases.append((cfg, out_dir))
        return cases

    def run(self, case):
        cfg, out_dir = case
        return pipeline.run_pipeline(cfg, out_dir)

    def check(self, case, report):
        _cfg, out_dir = case
        problems = []
        path = lambda key: os.path.join(out_dir, pipeline.ARTIFACTS[key])
        skeleton = load_skeleton(path("skeleton"))
        motions = {}
        for key in MOTION_ARTIFACTS:
            motions[key] = load_motion(path(key))
            if not _unit_quats(motions[key]):
                problems.append(f"{key} artifact holds non-unit quaternions")
        accuracy = {f"mpjpe_{stage}_mm": report["stages"][stage]["mpjpe_mm"]
                    for stage in pipeline.STAGES}
        accuracy["mpjpe_sv_mm"] = mpjpe(motions["sv"], motions["gt"], skeleton)
        if not all(np.isfinite(v) for v in accuracy.values()):
            problems.append("a stage MPJPE is not finite")
        if not accuracy["mpjpe_refined_mm"] < accuracy["mpjpe_init_mm"]:
            problems.append("refinement did not improve on the initial fit")
        return accuracy, problems

    def check_run(self, accuracies):
        return []


class KeypointFit:
    """Monocular and 4-view keypoint fits of one short scene per operation:
    LM, forward kinematics and residual work only, with no network and no
    silhouettes. A run takes the scenes of a 16-scene panel in turn, about
    as many as it has time for: one scene's fits may stop on the cap or
    converge several times sooner, so the median needs many scenes."""

    name = "keypoint-fit"
    panel = 16
    T = 2
    V = 4

    def setup(self, seed, work_dir):
        return [pipeline.synth_generate(SceneConfig(T=self.T, V=self.V, seed=s))
                for s in _case_seeds(seed, self.panel)]

    def run(self, scene):
        return (pipeline.initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton),
                pipeline.sparse_view_fit(scene.sparse_obs, scene.sparse_cameras,
                                         scene.skeleton))

    def check(self, scene, fits):
        accuracy = {"mpjpe_init_mm": mpjpe(fits[0], scene.gt_motion, scene.skeleton),
                    "mpjpe_sv_mm": mpjpe(fits[1], scene.gt_motion, scene.skeleton)}
        problems = []
        if not all(np.isfinite(v) for v in accuracy.values()):
            problems.append("a fit's MPJPE is not finite")
        return accuracy, problems

    def check_run(self, accuracies):
        # a short scene's 4-view fit can land worse than its monocular fit,
        # so the check is on the mean over the scenes fitted
        init = np.mean([a["mpjpe_init_mm"] for a in accuracies])
        sv = np.mean([a["mpjpe_sv_mm"] for a in accuracies])
        if not sv < init:
            return [f"the 4-view fits ({sv:.1f} mm) are not better than "
                    f"the monocular fits ({init:.1f} mm)"]
        return []


class PriorTrain:
    """Adversarial training of the motion prior, then one generator pass:
    network only, with no LM, kinematics or camera work."""

    name = "prior-train"
    panel = 1
    T = 120
    epochs = 24
    jitter_rad = 0.15

    def setup(self, seed, work_dir):
        scene = pipeline.synth_generate(SceneConfig(T=self.T, V=2, seed=seed))
        gt = scene.gt_motion
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        q = gt.quats.reshape(gt.n_frames, -1, 4)
        noise = quat.from_rotvec(rng.normal(0.0, self.jitter_rad, (q.shape[0] * q.shape[1], 3)))
        noisy_q = quat.canonicalize(quat.normalize(quat.mul(q, noise.reshape(q.shape))))
        noisy = MotionMap(noisy_q.reshape(gt.n_frames, -1), gt.conf.copy(),
                          gt.translations.copy())
        cfg = TrainConfig(epochs=self.epochs, decay_epoch=self.epochs // 2 + 1,
                          seed=seed + 1)
        return [(scene, noisy, cfg)]

    def run(self, inputs):
        scene, noisy, cfg = inputs
        gen, _disc, history = pipeline.train([(noisy, scene.gt_motion)],
                                             [scene.marker_ref], scene.skeleton, cfg)
        return history, pipeline.generator_forward(gen, noisy)

    def check(self, inputs, outputs):
        scene, noisy, _cfg = inputs
        history, raw = outputs
        gt = scene.gt_motion
        problems = []
        if raw.shape != gt.quats.shape or not np.all(np.isfinite(raw)):
            problems.append(f"generator output has shape {raw.shape} or is not finite")
            out = None
        else:
            out = MotionMap(pipeline.unit_quat_rows(raw), gt.conf, gt.translations)
        accuracy = {
            "loss_sv_first": history["loss_sv"][0],
            "loss_sv_final": history["loss_sv"][-1],
            "mpjpe_init_mm": mpjpe(noisy, gt, scene.skeleton),
            # the network's input and output, as the pipeline's init and hybrid
            "mpjpe_hybrid_mm": mpjpe(out, gt, scene.skeleton) if out else float("nan"),
        }
        if not accuracy["loss_sv_final"] < accuracy["loss_sv_first"]:
            problems.append("L_sv did not fall over training")
        return accuracy, problems

    def check_run(self, accuracies):
        return []


WORKLOADS = {w.name: w for w in (Pipeline, KeypointFit, PriorTrain)}
