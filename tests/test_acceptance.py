"""Shipping acceptance gate.

One test per release criterion, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line for each. Every test asserts at its
stated tolerance and prints the measured numbers (visible with -s, or in
the failure report). The pipeline criterion runs the full seeded benchmark
and dominates the module's runtime.
"""

import time

import numpy as np
import pytest

from conftest import make_random_skeleton, make_toy_skeleton, random_pose, stack_poses
from mocorr.camera import default_body, project
from mocorr.cli import main as cli_main
from mocorr.metrics import mpjpe
from mocorr.motion import Observations
from mocorr.net.layers import Affine, BatchNorm, Conv1d, Dropout, ELU, GRU
from mocorr.net.losses import QUAT_NORM_WEIGHT, loss_adv, loss_disc, loss_sv
from mocorr.net.model import Discriminator, Generator, motion_channels
from mocorr.net.train import Adam, TrainConfig, train
from mocorr.optim.energies import EnergyWeights, energy_2d
from mocorr.optim.fitting import initial_fit, sparse_view_fit
from mocorr.optim.lm import LMOptions, levenberg_marquardt
from mocorr.optim.problem import TranslationProblem
from mocorr.optim.refine import refine
from mocorr.pipeline import (
    ARTIFACTS,
    PipelineConfig,
    apply_seed,
    default_pipeline_config,
    hybrid_motion,
    run_pipeline,
    save_pipeline_config,
)
from mocorr.skeleton import SkeletalPose, fk_frames, forward_kinematics
from mocorr.synth import SceneConfig, synth_generate
from oracles import central_diff, fk_homogeneous, grad_check
from test_layers import analytic_grads, fd_input_grad, fd_param_grads
from test_lm import rosenbrock_jacobian, rosenbrock_residuals
from test_problem import build_problem, make_camera, observed_frames
from test_train import smooth_motion


def test_criterion_1_forward_kinematics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    count = 0
    for _ in range(100):
        skeleton = make_random_skeleton(rng)
        for _ in range(10):
            pose = random_pose(rng, skeleton)
            pos, rot = fk_frames(skeleton, pose)
            ref_pos, ref_rot = fk_homogeneous(skeleton, pose)
            worst = max(worst, float(np.abs(pos - ref_pos).max()),
                        float(np.abs(rot - np.stack(ref_rot)).max()))
            count += 1
    elapsed = time.perf_counter() - start
    print(f"\n  1000 poses across 100 trees: max error {worst:.3e} "
          f"(bound 1e-9), {elapsed:.2f}s (bound 5s)")
    assert count == 1000
    assert worst <= 1e-9
    assert elapsed < 5.0


def _layer_worst(layer, x, w, train=False, rng_seed=None):
    gvec, dx = analytic_grads(layer, x, w, train, rng_seed)
    vals = [grad_check(dx, fd_input_grad(layer, x, w, train, rng_seed))]
    if gvec.size:
        vals.append(grad_check(gvec, fd_param_grads(layer, x, w, train,
                                                    rng_seed)))
    return max(vals)


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = {}

    conv = Conv1d(3, 4, 3, rng)
    worst["conv1d"] = _layer_worst(conv, rng.normal(size=(2, 8, 3)),
                                   rng.normal(size=(2, 8, 4)))
    bn = BatchNorm(3)
    bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
    bn.params["beta"][...] = rng.normal(size=3)
    xb = rng.normal(size=(2, 6, 3))
    wb = rng.normal(size=(2, 6, 3))
    worst["batchnorm_train"] = _layer_worst(bn, xb, wb, train=True)
    worst["batchnorm_eval"] = _layer_worst(bn, xb, wb, train=False)
    xe = rng.normal(size=(2, 6, 3))
    xe[np.abs(xe) < 0.05] += 0.1
    worst["elu"] = _layer_worst(ELU(), xe, rng.normal(size=xe.shape))
    drop = Dropout(0.3)
    worst["dropout_train"] = _layer_worst(drop, rng.normal(size=(2, 6, 3)),
                                          rng.normal(size=(2, 6, 3)),
                                          train=True, rng_seed=5)
    aff = Affine(3, 4, rng)
    worst["affine"] = _layer_worst(aff, rng.normal(size=(2, 6, 3)),
                                   rng.normal(size=(2, 6, 4)))
    gru = GRU(3, 5, rng)
    worst["gru"] = _layer_worst(gru, rng.normal(size=(2, 4, 3)),
                                rng.normal(size=(2, 4, 5)))

    # Composite nets on the 5-joint toy skeleton, 12 frames.
    skeleton = make_toy_skeleton()
    gen = Generator(skeleton, np.random.default_rng(20), conv_width=8,
                    local_width=4, hidden=6, kernel=3, dropout=0.0)
    poses = [random_pose(np.random.default_rng(30 + t), skeleton)
             for t in range(12)]
    from mocorr.motion import build_motion_map

    motion = build_motion_map(stack_poses(poses), skeleton, np.full((12, 5), 0.9))
    xg = motion_channels(motion)[None, :, :]
    wg = rng.normal(size=(1, 12, 20))
    gen.zero_grad()
    gen.forward(xg)
    dxg = gen.backward(wg)
    fd = np.zeros_like(xg)
    flat_x, flat_g = xg.ravel(), fd.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = 1e-5 * max(1.0, abs(orig))
        flat_x[i] = orig + h
        lp = float(np.sum(wg * gen.forward(xg)))
        flat_x[i] = orig - h
        lm = float(np.sum(wg * gen.forward(xg)))
        flat_x[i] = orig
        flat_g[i] = (lp - lm) / (2.0 * h)
    worst["generator_input"] = grad_check(dxg, fd)

    disc = Discriminator(5, rng, hidden=6)
    xd = rng.normal(size=(2, 12, 20))
    wd = rng.normal(size=2)
    disc.zero_grad()
    disc.forward(xd)
    dxd = disc.backward(wd)
    fd = np.zeros_like(xd)
    flat_x, flat_g = xd.ravel(), fd.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = 1e-5 * max(1.0, abs(orig))
        flat_x[i] = orig + h
        lp = float(np.sum(wd * disc.forward(xd)))
        flat_x[i] = orig - h
        lm = float(np.sum(wd * disc.forward(xd)))
        flat_x[i] = orig
        flat_g[i] = (lp - lm) / (2.0 * h)
    worst["discriminator_input"] = grad_check(dxd, fd)

    # Energy Jacobians: the full pose problem (all four terms) and the
    # translation-only problem.
    problem, seq, *_ = build_problem(np.random.default_rng(40),
                                     skeleton)
    xp = problem.pack(np.stack([p.theta for p in seq]),
                      np.stack([p.root_rot for p in seq]),
                      np.stack([p.root_trans for p in seq]))
    worst["pose_problem"] = grad_check(
        problem.jacobian(xp).toarray(), central_diff(problem.residuals, xp,
                                                     1e-6))

    rng2 = np.random.default_rng(51)
    camera = make_camera(0.5)
    seq2 = [random_pose(rng2, skeleton, margin=0.25, trans_scale=0.15)
            for _ in range(4)]
    frames = observed_frames(rng2, skeleton, camera, seq2)
    tp = TranslationProblem(skeleton, camera, frames,
                            EnergyWeights(lambda_2d=1.0, lambda_t=2.0),
                            np.stack([p.theta for p in seq2]),
                            np.stack([p.root_rot for p in seq2]))
    xt = tp.pack(np.stack([p.root_trans for p in seq2])
                 + rng2.normal(0, 0.05, (4, 3)))
    worst["translation_problem"] = grad_check(
        tp.jacobian(xt).toarray(), central_diff(tp.residuals, xt, 1e-7))

    elapsed = time.perf_counter() - start
    print(f"\n  worst relative errors (bound 1e-4), {elapsed:.1f}s (bound 60s):")
    for name in sorted(worst):
        print(f"    {name}: {worst[name]:.3e}")
    assert max(worst.values()) < 1e-4
    assert elapsed < 60.0


def test_criterion_3_lm_solver():
    start = time.perf_counter()

    result = levenberg_marquardt(rosenbrock_residuals, np.array([-1.2, 1.0]),
                                 rosenbrock_jacobian)
    rosen_err = float(np.abs(result.x - 1.0).max())
    assert rosen_err <= 1e-6

    rng = np.random.default_rng(3)
    ls_err = 0.0
    for _ in range(10):
        a = rng.normal(size=(12, 5))
        b = rng.normal(size=12)
        lm = levenberg_marquardt(lambda x: a @ x - b, np.zeros(5),
                                 lambda x: a)
        direct, *_ = np.linalg.lstsq(a, b, rcond=None)
        ls_err = max(ls_err, float(np.abs(lm.x - direct).max()))
    assert ls_err <= 1e-8

    monotone = 0
    for k in range(100):
        prng = np.random.default_rng(1000 + k)
        n, m = int(prng.integers(2, 6)), int(prng.integers(6, 12))
        a = prng.normal(size=(m, n))
        b = prng.normal(size=m)
        if k % 2 == 0:
            residuals = lambda x, a=a, b=b: a @ x - b
        else:
            c = prng.uniform(0.5, 1.5)
            residuals = lambda x, a=a, b=b, c=c: c * np.tanh(a @ x) - b
        result = levenberg_marquardt(residuals, prng.normal(size=n),
                                     options=LMOptions(max_iterations=40))
        monotone += int(np.all(np.diff(result.cost_history) <= 0.0))
    assert monotone == 100

    elapsed = time.perf_counter() - start
    print(f"\n  rosenbrock |x-1| {rosen_err:.2e} (bound 1e-6); linear-vs-"
          f"direct {ls_err:.2e} (bound 1e-8); 100/100 monotone; "
          f"{elapsed:.2f}s (bound 10s)")
    assert elapsed < 10.0


def test_criterion_4_loss_arithmetic():
    assert QUAT_NORM_WEIGHT == 1e-5
    assert EnergyWeights().conf_threshold == 0.8

    norm2 = np.array([[[2.0, 0.0, 0.0, 0.0]]])
    assert abs(loss_sv(norm2, norm2) - 1e-5) <= 1e-12

    pred = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    ref = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 1.0, 0.2, 0.0]])
    hand = (0.01 + 0.01) + 0.04
    assert abs(loss_sv(pred, ref) - hand) <= 1e-12

    assert loss_disc(np.array([1.0]), np.array([0.0])) == 0.0
    assert abs(loss_disc(np.array([0.5]), np.array([0.5])) - 0.5) <= 1e-12
    assert abs(loss_adv(np.array([0.3])) - 0.49) <= 1e-12

    # Confidence gating at the 0.8 threshold: a 0.79 detection is ignored
    # no matter how far it moves; a 0.80 detection participates.
    skeleton = make_toy_skeleton()
    camera = make_camera(0.3)
    pose = random_pose(np.random.default_rng(4), skeleton, margin=0.3)
    uv = np.stack([project(camera, p)
                   for p in forward_kinematics(skeleton, pose)])
    conf = np.array([1.0, 1.0, 0.79, 1.0, 1.0])
    moved = uv.copy()
    moved[2] += 500.0
    e_base = energy_2d(pose, Observations(uv[None], conf[None]), camera, skeleton)
    e_moved = energy_2d(pose, Observations(moved[None], conf[None]), camera,
                        skeleton)
    assert e_moved == e_base
    conf_in = conf.copy()
    conf_in[2] = 0.8
    e_gated_in = energy_2d(pose, Observations(moved[None], conf_in[None]),
                           camera, skeleton)
    assert e_gated_in > e_base + 1.0
    print("\n  hand values reproduced to 1e-12; 0.79 gated out, 0.80 kept")


@pytest.mark.slow
def test_criterion_5_pipeline_ordering_on_benchmark(tmp_path):
    start = time.perf_counter()
    cfg = default_pipeline_config(42)
    report = run_pipeline(cfg, str(tmp_path / "bench"))
    elapsed = time.perf_counter() - start
    init = report["stages"]["init"]["mpjpe_mm"]
    hybrid = report["stages"]["hybrid"]["mpjpe_mm"]
    refined = report["stages"]["refined"]["mpjpe_mm"]
    print(f"\n  seed 42 benchmark: init {init:.2f}mm, hybrid {hybrid:.2f}mm, "
          f"refined {refined:.2f}mm; refined/init "
          f"{refined / init:.3f} (bound 0.6); {elapsed:.1f}s (bound 900s)")
    assert refined < hybrid < init
    assert refined <= 0.6 * init
    assert elapsed < 900.0


def test_criterion_6_adversarial_signal():
    # Hard gate: a discriminator trained alone at seed 42 separates smooth
    # sinusoidal motions from white-noise quaternions by >= 0.6 within 100
    # epochs.
    skeleton = make_toy_skeleton()
    n = skeleton.n_joints
    streams = np.random.SeedSequence(42).spawn(2)
    rng_init = np.random.default_rng(streams[0])
    rng_fake = np.random.default_rng(streams[1])
    real = np.stack([smooth_motion(skeleton, 32, seed=300 + i).quats
                     for i in range(16)])
    blocks = rng_fake.normal(size=(16, 32, n, 4))
    blocks /= np.linalg.norm(blocks, axis=3, keepdims=True)
    fake = blocks.reshape(16, 32, 4 * n)

    disc = Discriminator(n, rng_init, hidden=32)
    adam = Adam(disc.layers(), 1e-2, 0.9, 0.999, 1e-8)
    for _ in range(100):
        disc.zero_grad()
        d_fake = disc.forward(fake)
        disc.backward(2.0 * d_fake / d_fake.size)
        d_real = disc.forward(real)
        disc.backward(2.0 * (d_real - 1.0) / d_real.size)
        adam.step()
    separability = float(np.mean(disc.forward(real))
                         - np.mean(disc.forward(fake)))

    # Reported comparison: hybrid accuracy with and without the adversarial
    # term on a small seeded scene. The raw numbers are informational; the
    # ordering is allowed to invert.
    scene = synth_generate(SceneConfig(T=48, V=2, noise_px=4.0,
                                       occlusion=0.15, seed=42,
                                       sil_points=16, amplitude=0.5))
    options = LMOptions(max_iterations=40)
    init = initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                       options)
    sv = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras,
                         scene.skeleton, options)
    base = dict(epochs=60, batch=8, window=32, stride=8, seed=42,
                conv_width=32, local_width=8, hidden=32, disc_hidden=16,
                kernel=7, dropout=0.1)
    scores = {}
    for label, adversarial in (("sv+adv", True), ("sv only", False)):
        gen, _, _ = train([(init, sv)], [scene.marker_ref], scene.skeleton,
                          TrainConfig(adversarial=adversarial, **base))
        hyb = hybrid_motion(gen, init, scene.skeleton, scene.mono_obs,
                            scene.mono_camera, None, options)
        scores[label] = mpjpe(hyb, scene.gt_motion, scene.skeleton)
    within_slack = scores["sv+adv"] <= 1.1 * scores["sv only"]
    print(f"\n  separability {separability:.3f} (hard bound 0.6); hybrid "
          f"mpjpe sv+adv {scores['sv+adv']:.2f}mm vs sv only "
          f"{scores['sv only']:.2f}mm; within +10% slack: {within_slack}")
    assert separability >= 0.6
    assert all(np.isfinite(v) for v in scores.values())


def test_criterion_7_determinism_byte_identical_reports(tmp_path):
    cfg = PipelineConfig(
        seed=13,
        scene=SceneConfig(T=8, V=2, noise_px=2.0, occlusion=0.1,
                          sil_points=16, amplitude=0.2),
        train=TrainConfig(epochs=2, batch=4, window=8, stride=8,
                          conv_width=8, local_width=4, hidden=8,
                          disc_hidden=8, kernel=7, dropout=0.0),
        lm=LMOptions(max_iterations=30),
    )
    apply_seed(cfg, 13)
    cfg_path = tmp_path / "config.json"
    save_pipeline_config(cfg_path, cfg)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["--config", str(cfg_path), "--out", str(out), "run"])
        assert rc == 0
        blobs.append((out / ARTIFACTS["report"]).read_bytes())
    print(f"\n  two runs, report.json {len(blobs[0])} bytes each, identical: "
          f"{blobs[0] == blobs[1]}")
    assert blobs[0] == blobs[1]


def test_criterion_8_refine_fixed_point():
    scene = synth_generate(SceneConfig(T=20, V=2, noise_px=0.0,
                                       occlusion=0.0, seed=7, sil_points=16,
                                       amplitude=0.0))
    gt = scene.gt_motion
    refined = refine(gt, gt.quats, scene.mono_obs, scene.mono_camera,
                     scene.skeleton, body=default_body(scene.skeleton),
                     n_sil=16)
    drift = mpjpe(refined, gt, scene.skeleton)
    print(f"\n  refine(GT, GT) drift {drift:.3e} mm (bound 1e-6)")
    assert drift <= 1e-6
