"""Training loop: determinism, convergence, windowing, validation."""

import numpy as np
import pytest

from conftest import make_toy_skeleton, stack_poses
from mocorr.errors import InvalidInputError, SequenceTooShortError
from mocorr.motion import MotionMap, build_motion_map
from mocorr.net.layers import GRU
from mocorr.net.losses import loss_adv_grad, loss_disc, loss_sv_grad
from mocorr.net.model import Discriminator, Generator
from mocorr.net.train import (BETA1, BETA2, DECAY, EPS, LR_DISC, LR_GEN, Adam, TrainConfig,
                              make_windows, train)
from mocorr.skeleton import SkeletalPose
from oracles import AdamDicts, discriminator_grads

SMALL_NET = dict(conv_width=16, local_width=4, hidden=16, disc_hidden=8,
                 kernel=7, dropout=0.0)


def smooth_motion(skeleton, t, seed, amp=0.4):
    """Band-limited sinusoidal joint angles inside the limits."""
    rng = np.random.default_rng(seed)
    lo, hi = skeleton.theta_min, skeleton.theta_max
    mid, span = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = rng.uniform(0.0, 2.0 * np.pi, skeleton.total_dof)
    freq = rng.uniform(0.02, 0.08, skeleton.total_dof)
    rphase = rng.uniform(0.0, 2.0 * np.pi, 3)
    poses = []
    for k in range(t):
        theta = mid + amp * span * np.sin(2.0 * np.pi * freq * k + phase)
        root_rot = 0.2 * np.sin(2.0 * np.pi * 0.03 * k + rphase)
        trans = np.array([0.01 * k, 0.9, 0.05 * np.sin(0.2 * k)])
        poses.append(SkeletalPose(theta, root_rot, trans))
    return build_motion_map(stack_poses(poses), skeleton,
                            np.ones((t, skeleton.n_joints)))


def noisy_copy(motion, seed, scale=0.15):
    rng = np.random.default_rng(seed)
    quats = motion.quats + rng.normal(scale=scale, size=motion.quats.shape)
    conf = rng.uniform(0.5, 1.0, motion.conf.shape)
    return MotionMap(quats, conf, motion.translations.copy())


def toy_dataset(skeleton, n_seqs=8, t=32, seed=100):
    pairs = []
    for i in range(n_seqs):
        ref = smooth_motion(skeleton, t, seed + i)
        pairs.append((noisy_copy(ref, seed + 1000 + i), ref))
    unpaired = [smooth_motion(skeleton, t, seed + 2000 + i) for i in range(4)]
    return pairs, unpaired


def params_blob(model, kind="params"):
    return np.concatenate([getattr(layer, kind)[n].ravel()
                           for _, layer in model.layers()
                           for n in sorted(layer.params)])


def test_same_seed_reproduces_parameters_bitwise():
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=3, t=16)
    cfg = TrainConfig(epochs=3, batch=4, window=16, stride=16, seed=5,
                      adversarial=True, **SMALL_NET)
    gen_a, disc_a, hist_a = train(pairs, unpaired, skeleton, cfg)
    gen_b, disc_b, hist_b = train(pairs, unpaired, skeleton, cfg)
    assert np.array_equal(params_blob(gen_a), params_blob(gen_b))
    assert np.array_equal(params_blob(disc_a), params_blob(disc_b))
    assert hist_a == hist_b

    cfg_other = TrainConfig(epochs=3, batch=4, window=16, stride=16, seed=6,
                            adversarial=True, **SMALL_NET)
    gen_c, _, _ = train(pairs, unpaired, skeleton, cfg_other)
    assert not np.array_equal(params_blob(gen_a), params_blob(gen_c))


def motion_arrays(motions):
    return [(m.quats.copy(), m.conf.copy(), m.translations.copy()) for m in motions]


def test_train_leaves_its_inputs_unchanged():
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=2, t=16)
    motions = [m for pair in pairs for m in pair] + unpaired
    before = motion_arrays(motions)
    cfg = TrainConfig(epochs=2, batch=4, window=12, stride=4, seed=7, **SMALL_NET)
    train(pairs, unpaired, skeleton, cfg)
    for saved, motion in zip(before, motions):
        assert all(np.array_equal(a, b) for a, b in
                   zip(saved, (motion.quats, motion.conf, motion.translations)))


def test_two_trainings_in_one_process_agree_bitwise_at_default_widths():
    # nothing a training run leaves behind (workspaces, caches, writes into
    # its inputs) may change the next run in the same process
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=2, t=16)
    cfg = TrainConfig(epochs=2, batch=4, window=12, stride=4, seed=8)
    gen_a, disc_a, hist_a = train(pairs, unpaired, skeleton, cfg)
    gen_b, disc_b, hist_b = train(pairs, unpaired, skeleton, cfg)
    assert np.array_equal(params_blob(gen_a), params_blob(gen_b))
    assert np.array_equal(params_blob(disc_a), params_blob(disc_b))
    assert hist_a == hist_b


def test_discriminator_step_matches_a_fresh_pass_bitwise():
    rng = np.random.default_rng(40)
    disc = Discriminator(15, rng, hidden=128)
    pred = rng.normal(size=(8, 16, 60))
    real = rng.normal(size=(8, 16, 60))
    # the generator step's pass, whose scores and cache the step reuses
    d_fake = disc.forward(pred)
    disc.zero_grad()
    disc.backward(loss_adv_grad(d_fake)[1])
    value = discriminator_grads(disc, d_fake, real)
    reused = params_blob(disc, "grads")

    disc.zero_grad()
    d_fake_fresh = disc.forward(pred)
    disc.backward(2.0 * d_fake_fresh / d_fake_fresh.size)
    d_real = disc.forward(real)
    disc.backward(2.0 * (d_real - 1.0) / d_real.size)
    assert np.array_equal(reused, params_blob(disc, "grads"))
    assert value == loss_disc(d_real, d_fake_fresh)


def test_adversarial_step_matches_two_pass_oracle(monkeypatch):
    # one epoch of one batch, replayed the earlier way: the generator step's
    # discriminator pass over the fake windows, then the two-pass
    # discriminator step over its cache and a second pass over the reals
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=3, t=16)
    cfg = TrainConfig(epochs=1, batch=8, window=16, stride=16, seed=9,
                      adversarial=True, **SMALL_NET)
    passes = []
    forward = Discriminator.forward
    monkeypatch.setattr(Discriminator, "forward",
                        lambda self, q: passes.append(q.shape[0]) or forward(self, q))
    gen, disc, history = train(pairs, unpaired, skeleton, cfg)
    monkeypatch.undo()
    assert passes == [6]  # one pass over 3 generated and 3 reference windows

    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    rng_gen, rng_disc, rng_shuffle, rng_dropout, rng_unpaired = (
        np.random.default_rng(s) for s in streams)
    ref_gen = Generator(skeleton, rng_gen, conv_width=cfg.conv_width,
                        local_width=cfg.local_width, hidden=cfg.hidden,
                        kernel=cfg.kernel, dropout=cfg.dropout)
    ref_disc = Discriminator(skeleton.n_joints, rng_disc, hidden=cfg.disc_hidden)
    adam_gen = Adam(ref_gen.layers(), LR_GEN, BETA1, BETA2, EPS)
    adam_disc = Adam(ref_disc.layers(), LR_DISC, BETA1, BETA2, EPS)
    inputs, targets, references = make_windows(pairs, unpaired, cfg)
    idx = rng_shuffle.permutation(len(inputs))
    assert len(idx) <= cfg.batch
    pred = ref_gen.forward(np.stack([inputs[i] for i in idx]), train=True, rng=rng_dropout)
    sv_value, dpred = loss_sv_grad(pred, np.stack([targets[i] for i in idx]))
    d_fake = ref_disc.forward(pred)
    adv_value, ddfake = loss_adv_grad(d_fake)
    ref_disc.zero_grad()
    dpred = dpred + ref_disc.backward(ddfake)
    ref_gen.zero_grad()
    ref_gen.backward(dpred)
    assert cfg.decay_boundary() == 1  # the only epoch runs at the decayed rate
    adam_gen.step(DECAY)
    pick = rng_unpaired.integers(0, len(references), size=len(idx))
    disc_value = discriminator_grads(ref_disc, d_fake, np.stack([references[i] for i in pick]))
    adam_disc.step(DECAY)

    for model, ref in ((gen, ref_gen), (disc, ref_disc)):
        np.testing.assert_allclose(params_blob(model), params_blob(ref), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        [history["loss_sv"][0], history["loss_adv"][0], history["loss_disc"][0]],
        [sv_value, adv_value, disc_value], rtol=0, atol=1e-12)


def test_one_discriminator_gru_backward_per_batch(monkeypatch):
    # 3 windows in batches of 2: two batches per epoch
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=3, t=16)
    cfg = TrainConfig(epochs=2, batch=2, window=16, stride=16, seed=9,
                      adversarial=True, **SMALL_NET)
    calls = []
    backward = GRU.backward
    monkeypatch.setattr(GRU, "backward", lambda self, dout, **kw: calls.append(self)
                        or backward(self, dout, **kw))
    gen, disc, _ = train(pairs, unpaired, skeleton, cfg)
    assert sum(gru is disc.gru for gru in calls) == 4
    assert sum(gru is gen.gru for gru in calls) == 4


def test_training_takes_parameter_only_generator_backward(monkeypatch):
    # every training backward gives the parameter gradients of the full
    # backward, which also forms the input gradient, bit for bit
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=3, t=16)
    cfg = TrainConfig(epochs=2, batch=2, window=16, stride=16, seed=9,
                      adversarial=True, **SMALL_NET)
    backward = Generator.backward
    calls = []

    def checked(self, dy, input_grad=True):
        start = [layer.grads[k].copy() for _, layer in self.layers() for k in layer.grads]
        backward(self, dy)
        full = params_blob(self, "grads")
        for g, g0 in zip((layer.grads[k] for _, layer in self.layers() for k in layer.grads),
                         start):
            g[...] = g0
        result = backward(self, dy, input_grad)
        assert np.array_equal(params_blob(self, "grads"), full)
        calls.append(input_grad)
        return result

    monkeypatch.setattr(Generator, "backward", checked)
    train(pairs, unpaired, skeleton, cfg)
    assert calls == [False] * 4


def test_adam_matches_dict_oracle_bitwise():
    # default widths, so that several arrays span more than one chunk and
    # some end in a partial one
    skeleton = make_toy_skeleton()
    cfg = TrainConfig()
    widths = dict(conv_width=cfg.conv_width, local_width=cfg.local_width,
                  hidden=cfg.hidden, kernel=cfg.kernel, dropout=cfg.dropout)
    gen = Generator(skeleton, np.random.default_rng(41), **widths)
    ref = Generator(skeleton, np.random.default_rng(41), **widths)
    assert any(p.size > Adam.CHUNK and p.size % Adam.CHUNK
               for _, layer in gen.layers() for p in layer.params.values())
    adam = Adam(gen.layers(), 1e-3, 0.9, 0.999, 1e-8)
    oracle = AdamDicts(ref.layers(), 1e-3, 0.9, 0.999, 1e-8)
    rng = np.random.default_rng(42)
    for step in range(6):
        for (_, layer), (_, ref_layer) in zip(gen.layers(), ref.layers()):
            for name, g in layer.grads.items():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=g.shape)
                ref_layer.grads[name][...] = g
        lr_scale = 0.1 if step >= 4 else 1.0
        adam.step(lr_scale)
        oracle.step(lr_scale)
        assert np.array_equal(params_blob(gen), params_blob(ref))


def test_supervised_training_halves_the_data_loss():
    skeleton = make_toy_skeleton()
    pairs, _ = toy_dataset(skeleton, n_seqs=8, t=32)
    cfg = TrainConfig(epochs=200, batch=8, window=32, stride=32, seed=42,
                      adversarial=False, **SMALL_NET)
    _, _, history = train(pairs, [], skeleton, cfg)
    assert len(history["loss_sv"]) == cfg.epochs
    assert history["loss_sv"][-1] <= 0.5 * history["loss_sv"][0]
    assert all(v == 0.0 for v in history["loss_adv"])
    assert all(v == 0.0 for v in history["loss_disc"])


def test_history_lengths_match_epochs():
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=2, t=16)
    cfg = TrainConfig(epochs=4, batch=4, window=16, stride=16, seed=0,
                      adversarial=True, **SMALL_NET)
    _, _, history = train(pairs, unpaired, skeleton, cfg)
    assert sorted(history) == ["loss_adv", "loss_disc", "loss_sv"]
    for series in history.values():
        assert len(series) == 4
        assert all(np.isfinite(v) for v in series)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidInputError):
        TrainConfig(batch=0)
    for width in ("conv_width", "local_width", "hidden", "disc_hidden"):
        for bad in (0, -3):
            with pytest.raises(InvalidInputError):
                TrainConfig(**{width: bad})
    for kernel in (4, 0, -1):
        with pytest.raises(InvalidInputError, match="kernel width"):
            TrainConfig(kernel=kernel)
    for dropout in (1.0, -0.1, 1.5):
        with pytest.raises(InvalidInputError, match="dropout"):
            TrainConfig(dropout=dropout)
    for decay_epoch in (0, -5):
        with pytest.raises(InvalidInputError, match="decay_epoch"):
            TrainConfig(decay_epoch=decay_epoch)
    TrainConfig(kernel=1, dropout=0.0, decay_epoch=1)


def test_decay_boundary_arithmetic():
    assert TrainConfig(epochs=500).decay_boundary() == 401
    assert TrainConfig(epochs=50).decay_boundary() == 1
    assert TrainConfig(epochs=300, decay_epoch=10).decay_boundary() == 10


def test_empty_dataset_rejected():
    skeleton = make_toy_skeleton()
    cfg = TrainConfig(epochs=1, adversarial=False, **SMALL_NET)
    with pytest.raises(InvalidInputError):
        train([], [], skeleton, cfg)


def test_adversarial_requires_unpaired_references():
    skeleton = make_toy_skeleton()
    pairs, _ = toy_dataset(skeleton, n_seqs=2, t=16)
    cfg = TrainConfig(epochs=1, window=16, adversarial=True, **SMALL_NET)
    with pytest.raises(InvalidInputError):
        train(pairs, [], skeleton, cfg)


def test_unpaired_references_of_another_joint_count_rejected():
    skeleton = make_toy_skeleton()
    pairs, unpaired = toy_dataset(skeleton, n_seqs=2, t=16)
    ref = unpaired[0]
    fewer = MotionMap(ref.quats[:, :-4], ref.conf[:, :-1], ref.translations)
    cfg = TrainConfig(epochs=1, window=16, adversarial=True, **SMALL_NET)
    with pytest.raises(InvalidInputError, match="joint count"):
        train(pairs, unpaired + [fewer], skeleton, cfg)


def test_sequences_below_receptive_width_rejected():
    skeleton = make_toy_skeleton()
    short = smooth_motion(skeleton, 5, seed=7)
    noisy = noisy_copy(short, seed=8)
    cfg = TrainConfig(epochs=1, window=16, adversarial=False, **SMALL_NET)
    with pytest.raises(SequenceTooShortError):
        train([(noisy, short)], [], skeleton, cfg)


def test_paired_shape_mismatch_rejected():
    skeleton = make_toy_skeleton()
    ref = smooth_motion(skeleton, 16, seed=9)
    noisy = noisy_copy(smooth_motion(skeleton, 12, seed=10), seed=11)
    cfg = TrainConfig(epochs=1, window=8, adversarial=False, **SMALL_NET)
    with pytest.raises(InvalidInputError):
        train([(noisy, ref)], [], skeleton, cfg)


def test_window_cutting_covers_tails():
    skeleton = make_toy_skeleton()
    ref = smooth_motion(skeleton, 20, seed=12)
    noisy = noisy_copy(ref, seed=13)
    cfg = TrainConfig(epochs=1, window=8, stride=8, adversarial=False,
                      **SMALL_NET)
    inputs, targets, references = make_windows([(noisy, ref)], [], cfg)
    # Starts 0, 8 and a tail window anchored at 12.
    assert len(inputs) == len(targets) == 3
    assert all(x.shape[0] == 8 for x in inputs)
    assert np.array_equal(targets[-1], ref.quats[12:20])
    assert references == []
