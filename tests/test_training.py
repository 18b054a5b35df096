import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from neural_couplings import training
from neural_couplings.linalg import make_rng
from neural_couplings.models import (
    FAMILIES,
    ModelParams,
    backward,
    forward,
    init_params,
    model_output,
)
from neural_couplings.spectral import (
    Dataset,
    Spectrogram,
    StftConfig,
    normalized_pair_rows,
)
from neural_couplings.synth import make_synthetic_dataset
from neural_couplings.training import (
    CHUNK,
    INITIAL_LR,
    STOP_PATIENCE,
    Adam,
    TrainingError,
    train_stack,
)

CFG6 = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=10)


def make_rows(mix_mags, tgt_mags):
    pair = (Spectrogram(mix_mags), Spectrogram(tgt_mags))
    return normalized_pair_rows(Dataset(CFG6, ["t0"], [pair], np.ones(6)))


def halving_rows():
    """Frames are all identical, so the loss plateaus once Adam converges."""
    col = np.linspace(0.5, 1.5, 6)[:, None]
    mix = np.tile(col, (1, 40))
    return make_rows(mix, 0.5 * mix)


def learnable_rows():
    rng = np.random.default_rng(7)
    mix = np.abs(rng.normal(size=(6, 40))) + 0.2
    return make_rows(mix, 0.5 * mix)


class TestAdam:
    def test_first_step_hand_value(self):
        # after one step m_hat = g and v_hat = g*g, so the update is
        # lr * g / (|g| + eps) regardless of the betas
        adam = Adam(lr=0.1)
        p = np.array([[1.0, -1.0]])
        g = np.array([[2.0, -0.5]])
        want = p - 0.1 * g / (np.abs(g) + 1e-8)
        adam.step(p, g)
        assert np.allclose(p, want, atol=1e-15)
        assert adam.t == 1

    def test_step_updates_param_in_place_and_leaves_grad_untouched(self):
        adam = Adam(lr=0.1)
        p = np.ones((2, 2))
        g = np.full((2, 2), 0.5)
        assert adam.step(p, g) is None
        assert np.allclose(p, 0.9, atol=1e-7)
        assert np.array_equal(g, np.full((2, 2), 0.5))

    def test_lr_attribute_controls_step_size(self):
        a, b = Adam(lr=0.1), Adam(lr=0.2)
        pa, pb, g = np.array([[4.0]]), np.array([[4.0]]), np.array([[1.0]])
        a.step(pa, g)
        b.step(pb, g)
        assert np.isclose(4.0 - pb[0, 0], 2 * (4.0 - pa[0, 0]), atol=1e-12)

    def test_zero_gradient_leaves_params_and_decays_moments(self):
        adam = Adam(lr=0.1)
        p = np.array([[3.0]])
        adam.step(p, np.zeros((1, 1)))
        assert p[0, 0] == 3.0
        assert adam.m[0, 0] == 0.0 and adam.v[0, 0] == 0.0
        # moments built from a real gradient shrink geometrically once
        # gradients go quiet
        adam.step(p, np.ones((1, 1)))
        m_before = adam.m[0, 0]
        adam.step(p, np.zeros((1, 1)))
        assert adam.m[0, 0] == 0.9 * m_before

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TrainingError, match="shape"):
            Adam(0.1).step(np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_non_finite_grad(self):
        p = np.ones(1)
        with pytest.raises(TrainingError, match="non-finite"):
            Adam(0.1).step(p, np.array([np.nan]))
        assert p[0] == 1.0

    @pytest.mark.parametrize(
        "size, width", [(CHUNK, CHUNK), (66049, 16513), (2 * CHUNK + 3, 11095)]
    )
    def test_chunked_step_matches_whole_array_recipe(self, size, width):
        # the folded recipe written once over whole arrays, out of place; the
        # step runs it over equal chunks of at most CHUNK elements
        rng = np.random.default_rng(size)
        p = rng.normal(size=size)
        want, recipe = p.copy(), RecipeAdam(1e-3, folded=True)
        adam = Adam(lr=1e-3)
        for _ in range(5):
            g = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3], size=size)
            g_before = g.copy()
            adam.step(p, g)
            assert np.array_equal(g, g_before)
            recipe.step(want, g)
            assert np.array_equal(p, want)
        assert np.array_equal(adam.m, recipe.m) and np.array_equal(adam.v, recipe.v)
        # both moments and both scratch rows share one allocation
        assert adam._scratch.shape == (2, width)
        assert adam.m.base is adam.v.base is adam._scratch.base

    def test_float32_parameter_gets_float32_state(self):
        # the state takes the parameter's dtype, and the step rounds as the
        # folded recipe written in float32: after one step M = g and V = g g,
        # and k and eps' round to lr and eps
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 4)).astype(np.float32)
        g = rng.normal(size=(3, 4)).astype(np.float32)
        m, v = g, g * g
        want = p - 1e-3 * (m / (np.sqrt(v) + 1e-8))
        adam = Adam(lr=1e-3)
        adam.step(p, g)
        assert want.dtype == p.dtype == np.float32
        assert adam.m.dtype == adam.v.dtype == adam._scratch.dtype == np.float32
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        assert np.array_equal(p, want)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
    def test_folded_step_matches_the_textbook_step(self, scale):
        # the same update in exact arithmetic, with the moments scaled by
        # 1 / (1 - b1) and 1 / (1 - b2). p is zeroed before each step, which
        # the update does not read, so p afterwards is that step's update
        # alone. Each gradient entry keeps its sign and stays within a factor
        # of 3 of the scale, so no moment is a cancellation.
        rng = np.random.default_rng(9)
        sign = rng.choice([-1.0, 1.0], size=1000)
        adam, textbook = Adam(lr=1e-3), RecipeAdam(1e-3, folded=False)
        p, want = np.zeros(1000), np.zeros(1000)
        for _ in range(5):
            g = sign * rng.uniform(0.5, 1.5, size=1000) * scale
            p[:], want[:] = 0.0, 0.0
            adam.step(p, g)
            textbook.step(want, g)
            assert np.allclose(p, want, rtol=1e-12, atol=0.0)
        assert np.allclose(adam.m * (1.0 - 0.9), textbook.m, rtol=1e-12, atol=0.0)
        assert np.allclose(adam.v * (1.0 - 0.999), textbook.v, rtol=1e-12, atol=0.0)

    def test_folded_second_moment_overflows_above_5_8e17(self):
        # V holds 1000 v, and under a constant gradient g it tends to
        # 1000 g^2, so in float32 under the CLI's errstate(over="raise") a
        # gradient entry above sqrt(3.40e38 / 1000) = 5.83e17 overflows it
        # within about 3800 steps; the textbook v, which tends to g^2,
        # overflows only through g * g, above 1.84e19
        def steps(value):
            adam = Adam(lr=1e-3)
            p, g = np.zeros(1, np.float32), np.full(1, value, np.float32)
            with np.errstate(over="raise"):
                for _ in range(5000):
                    adam.step(p, g)
            return adam

        assert 0.99e3 * 5.8e17**2 < float(steps(5.8e17).v[0]) < 3.41e38
        with pytest.raises(FloatingPointError, match="overflow"):
            steps(5.9e17)

    def test_rejects_non_contiguous_param(self):
        # a strided p would be copied by the flattening and lose its update
        base = np.ones((4, 4))
        with pytest.raises(TrainingError, match="contiguous"):
            Adam(0.1).step(base[:, ::2], np.ones((4, 2)))
        assert np.array_equal(base, np.ones((4, 4)))

    def test_rejects_param_count_change_after_first_step(self):
        # the moments take the parameter shape on the first step
        adam = Adam(0.1)
        adam.step(np.ones(1), np.ones(1))
        with pytest.raises(TrainingError, match="shape"):
            adam.step(np.ones(2), np.ones(2))
        with pytest.raises(TrainingError, match="shape"):
            adam.step(np.ones((1, 1)), np.ones((1, 1)))


class TestTrain:
    def test_learns_a_scaling_task(self, monkeypatch):
        # at this width a few relu units die at init, so convergence stops
        # well short of zero; a 3x loss reduction still proves learning
        monkeypatch.setattr(training, "BATCH_SIZE", 8)
        res = train_stack("dae", learnable_rows(), [0], 200)[0]
        assert res.best_loss < 0.35 * res.history[0].mean_loss

    def test_identity_task_is_representable_and_improves(self, mse, monkeypatch):
        # target = mixture. Identity weights solve this exactly, so any
        # residual after training is pure optimization shortfall: glorot
        # init strands a few relu units and Adam cannot revive them (the
        # loss freezes near 0.1 even at a 400-epoch horizon), so assert a
        # strong reduction rather than convergence to zero.
        cfg16 = StftConfig(sample_rate=8000, window_len=30, hop=8, fft_size=30)
        mix_mags = np.abs(np.random.default_rng(11).normal(size=(16, 1024))) + 0.2
        mix = Spectrogram(mix_mags)
        ds = Dataset(cfg16, ["t0"], [(mix, mix)], np.ones(16))

        exact = ModelParams("dae", [(np.eye(16), np.zeros((16, 1))) for _ in range(2)])
        assert mse(forward(exact, mix_mags)[-1], mix_mags) == 0.0

        monkeypatch.setattr(training, "BATCH_SIZE", 16)
        monkeypatch.setattr(training, "INITIAL_LR", 1e-2)
        res = train_stack("dae", normalized_pair_rows(ds), [4], 50)[0]
        assert res.history[-1].mean_loss < 0.5 * res.history[0].mean_loss
        assert res.best_loss < 0.2

    def test_deterministic(self):
        rows = learnable_rows()
        a = train_stack("dae", rows, [3], 20)[0]
        b = train_stack("dae", rows, [3], 20)[0]
        assert a.history == b.history
        for (wa, ba), (wb, bb) in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_seed_changes_the_run(self):
        rows = learnable_rows()
        a = train_stack("dae", rows, [0], 5)[0]
        b = train_stack("dae", rows, [1], 5)[0]
        assert not np.array_equal(a.params.layers[0][0], b.params.layers[0][0])

    def test_best_loss_is_the_history_minimum(self):
        res = train_stack("dae", learnable_rows(), [0], 30)[0]
        assert np.isclose(res.best_loss, min(h.mean_loss for h in res.history), rtol=1e-8)

    def test_plateau_halves_lr_then_stops(self):
        res = train_stack("dae", halving_rows(), [0], 500)[0]
        lrs = [h.lr for h in res.history]
        assert res.epochs < 500
        assert lrs[0] == INITIAL_LR
        assert lrs[-1] < INITIAL_LR
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        # every drop is an exact halving
        levels = [lrs[0]] + [b for a, b in zip(lrs, lrs[1:]) if b != a]
        assert len(levels) >= 2
        assert all(b == 0.5 * a for a, b in zip(levels, levels[1:]))
        # the run ends on a streak of STOP_PATIENCE non-improving epochs
        tail = [h.mean_loss for h in res.history[-STOP_PATIENCE:]]
        assert all(t >= res.best_loss * (1 - training.IMPROVEMENT_REL) for t in tail)

    def test_stopped_by_names_the_ending_rule(self):
        budget = train_stack("dae", learnable_rows(), [0], 3)[0]
        assert (budget.stopped_by, budget.epochs) == ("max_epochs", 3)
        plateau = train_stack("dae", halving_rows(), [0], 500)[0]
        assert plateau.stopped_by == "patience"
        assert plateau.epochs < 500

    def test_rejects_rows_of_different_shapes(self):
        mix_rows, tgt_rows = learnable_rows()
        with pytest.raises(ValueError, match="differ"):
            train_stack("dae", (mix_rows, tgt_rows[1:]), [0], 1)[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, monkeypatch):
        monkeypatch.setattr(training, "INITIAL_LR", 1e200)
        with pytest.raises(TrainingError, match="diverged"):
            train_stack("dae", halving_rows(), [0], 3)[0]

    @pytest.mark.parametrize(
        "tag, n, frames, batch_size",
        [
            ("dae", 6, 40, 16),
            ("mss-dae", 6, 40, 16),
            ("sf", 6, 40, 16),
            # at 257 bins a product with its operand roles swapped gives other
            # bits (at 6 bins it still matches), so this case pins the roles
            ("mss-dae", 257, 300, 128),
        ],
        ids=["dae", "mss-dae", "sf", "mss-dae-257"],
    )
    def test_single_epoch_matches_recipe_transcription(self, tag, n, frames, batch_size,
                                                         monkeypatch):
        x_mix, x_tgt = recipe_columns(n, frames, 7)
        monkeypatch.setattr(training, "BATCH_SIZE", batch_size)
        res = train_stack(tag, rows_of(x_mix, x_tgt), [2], 1)[0]
        losses, layers = recipe_epochs(tag, x_mix, x_tgt, 2, 1, np.float32, batch_size,
                                       exact=True)
        assert res.history[0].mean_loss == losses[0]
        assert (res.params.tag, len(res.params.layers)) == (tag, FAMILIES[tag])
        for (wa, ba), (wb, bb) in zip(res.params.layers, layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tag", ["dae", "mss-dae", "sf"])
    def test_float32_training_tracks_a_float64_run(self, tag, seed, monkeypatch):
        # the same recipe in float64 on the unrounded rows and weights: over
        # ten epochs every epoch loss stays within 1e-6 relative (measured at
        # most 2.0e-7); the schedule keeps lr fixed, as the recipe does
        x_mix, x_tgt = recipe_columns(16, 300, 20 + seed)
        monkeypatch.setattr(training, "BATCH_SIZE", 32)
        res = train_stack(tag, rows_of(x_mix, x_tgt), [seed], 10)[0]
        want, _ = recipe_epochs(tag, x_mix, x_tgt, seed, 10, np.float64, 32)
        assert [h.lr for h in res.history] == [INITIAL_LR] * 10
        got = np.array([h.mean_loss for h in res.history])
        assert np.allclose(got, want, rtol=1e-6, atol=0.0)

    def test_returns_float64_params(self):
        # the .ncm format and every caller see float64, holding float32 values
        res = train_stack("mss-dae", learnable_rows(), [0], 3)[0]
        for w, b in res.params.layers:
            for a in (w, b):
                assert a.dtype == np.float64
                assert np.array_equal(a.astype(np.float32).astype(np.float64), a)

    @pytest.mark.parametrize("which", [0, 1], ids=["mixture", "target"])
    def test_rows_outside_float32_range_are_refused(self, which):
        # a float64 value past the float32 range would round to inf, which
        # forward would call a non-finite input batch
        rows = [r.astype(np.float64) for r in learnable_rows()]
        rows[which] = rows[which] * 1e40
        name = ("mixture", "target")[which]
        with pytest.raises(TrainingError,
                           match=rf"a {name} row holds .*float32 range \|v\| <= 3\.40282e\+38"):
            train_stack("dae", tuple(rows), [0], 1)[0]

    def test_nan_row_is_named_non_finite(self):
        # a NaN is not outside the float32 range, so the message says both
        rows = [r.astype(np.float64) for r in learnable_rows()]
        rows[0][3, 2] = np.nan
        with pytest.raises(TrainingError,
                           match=r"a mixture row holds values that are non-finite or outside"):
            train_stack("dae", tuple(rows), [0], 1)[0]

    @pytest.mark.parametrize("tag, n, pairs, epochs", [("mss-dae", 64, 2, 200),
                                                        ("sf", 257, 1, 20)],
                             ids=["mss-dae-64", "sf-257"])
    def test_improvement_threshold_sits_above_epoch_loss_rounding(self, tag, n, pairs, epochs,
                                                                   monkeypatch):
        # each batch's squared error taken again in float64, from the float64
        # values of the same float32 weights and frames, and summed per epoch
        # as train_stack sums its float32 batch losses: the two epoch losses
        # differ by rounding alone, at most 5.3e-8 relative over the 21 desk
        # runs (n=64, 200 epochs) and 4.1e-8 at n=257. A threshold 10x above
        # that lets the loss, not its rounding, decide whether an epoch
        # improves.
        sq_err = []

        def backward_and_float64_error(params, acts, target, grads):
            # a stack of one model
            p64 = ModelParams(tag, [(w[0].astype(np.float64), b[0].astype(np.float64))
                                    for w, b in params.layers])
            d = model_output(p64, forward(p64, acts[0][0])) - target[0]
            sq_err.append(float(np.sum(d * d)))
            return backward(params, acts, target, grads)

        monkeypatch.setattr(training, "backward", backward_and_float64_error)
        rows = normalized_pair_rows(make_synthetic_dataset(n, 720, pairs, 0))
        res = train_stack(tag, rows, [0], epochs)[0]
        want = np.array(sq_err).reshape(res.epochs, -1).sum(axis=1) / rows[1].size
        got = np.array([h.mean_loss for h in res.history])
        assert 10 * np.max(np.abs(got - want) / want) <= training.IMPROVEMENT_REL

    def test_peak_memory_is_bounded(self):
        # the 4-layer mss-dae at n=257 on 2000 frames: one float32 parameter vector P
        # is 1.0 MiB. The float32 rows (3.9 P) are the caller's, used without
        # a copy and not counted. A run holds 5 P (weights, gradient, best-
        # epoch snapshot, Adam's two moments) plus a batch's gathers and
        # activations and Adam's scratch; the float64 initial draw is made
        # while less of it is live, and the result holds the float32
        # snapshot, its float64 weights made only when asked for. Measured
        # 6.15 P; 7.24 P while the run's state outlived a float64 cast.
        n = 257
        rows = rows_of(*recipe_columns(n, 2000, 3))
        p_bytes = FAMILIES["mss-dae"] * (n * n + n) * 4
        tracemalloc.start()
        try:
            train_stack("mss-dae", rows, [0], 1)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * p_bytes


class TestTrainStack:
    def test_each_seed_gets_the_run_it_gets_alone(self):
        # seeds leave the stack at different epochs: 1 by patience at 98, 3
        # at 130 and 0 at 308 with two halvings, and 5 by the budget at 350;
        # the stack's rows move up each time, and every run keeps its bits
        seeds = [0, 1, 3, 5]
        results = train_stack("dae", halving_rows(), seeds, 350)
        assert [(r.epochs, r.stopped_by) for r in results] == [
            (308, "patience"), (98, "patience"), (130, "patience"), (350, "max_epochs")]
        assert results[0].history[-1].lr == INITIAL_LR / 4
        for seed, res in zip(seeds, results):
            alone = train_stack("dae", halving_rows(), [seed], 350)[0]
            assert res.history == alone.history and res.best_loss == alone.best_loss
            for (w, b), (w1, b1) in zip(res.weights.layers, alone.weights.layers):
                assert np.array_equal(w, w1) and np.array_equal(b, b1)

    def test_results_hold_float32_and_copy_float64_on_access(self):
        results = train_stack("sf", learnable_rows(), [0, 1], 2)
        w0, w1 = results[0].weights.layers[0][0], results[1].weights.layers[0][0]
        assert w0.dtype == np.float32 and w0.shape == (6, 6)
        # views of one snapshot, one row per seed
        assert w0.base is not None and np.shares_memory(w0.base, w1.base)
        a, b = results[0].params, results[0].params
        assert a is not b and a.layers[0][0] is not b.layers[0][0]
        assert np.array_equal(a.layers[0][0], w0.astype(np.float64))

    def test_no_seed_is_refused(self):
        with pytest.raises(ValueError, match="no seeds"):
            train_stack("dae", learnable_rows(), [], 3)

    def test_zero_epochs_are_refused(self):
        with pytest.raises(ValueError, match="max_epochs must be positive"):
            train_stack("dae", learnable_rows(), [0], 0)

    @pytest.mark.parametrize("errstate", ["raise", "warn"])
    def test_a_failing_seed_is_named(self, errstate, monkeypatch):
        # the second seed's Adam throws its weights past the float32 range
        # after its first step, which ends epoch 0 (40 frames are one
        # batch); under errstate "raise" the stack's next product
        # overflows, and each model run alone names the seed; under "warn"
        # its loss goes non-finite
        made = []

        class BlowingAdam(Adam):
            def step(self, p, g):
                super().step(p, g)
                if self is made[1]:
                    p *= np.float32(1e30)

        def adam(lr):
            made.append(BlowingAdam(lr))
            return made[-1]

        monkeypatch.setattr(training, "Adam", adam)
        with np.errstate(over=errstate, invalid=errstate), \
                pytest.warns(RuntimeWarning) if errstate == "warn" else contextlib.nullcontext():
            with pytest.raises(TrainingError) as info:
                train_stack("dae", learnable_rows(), [4, 9, 2], 3)
        want = ("seed 9: overflow encountered in matmul" if errstate == "raise" else
                "seed 9: training diverged: non-finite loss at epoch 1, batch 0")
        assert str(info.value) == want


def recipe_columns(n: int, frames: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture and target frames as (n, frames) columns, target = mixture / 2."""
    x_mix = np.abs(np.random.default_rng(seed).normal(size=(n, frames))) + 0.2
    return x_mix, 0.5 * x_mix


def rows_of(x_mix, x_tgt):
    """The rows normalized_pair_rows builds from one pair under a unit scale."""
    n = x_mix.shape[0]
    cfg_n = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=2 * (n - 1))
    pair = (Spectrogram(x_mix), Spectrogram(x_tgt))
    return normalized_pair_rows(Dataset(cfg_n, ["t0"], [pair], np.ones(n)))


class RecipeAdam:
    """Adam over whole arrays, each update computed out of place: the
    textbook form of Kingma & Ba (2015), or with folded=True the form
    training.Adam runs, which stores the moments as m / (1 - b1) and
    v / (1 - b2) and folds the bias corrections into the step size and eps."""

    def __init__(self, lr, folded):
        self.lr, self.folded, self.t, self.m, self.v = lr, folded, 0, 0.0, 0.0

    def step(self, p, g):
        self.t += 1
        b1, b2, eps, t = 0.9, 0.999, 1e-8, self.t
        if self.folded:
            self.m = b1 * self.m + g
            self.v = b2 * self.v + g * g
            c = math.sqrt((1.0 - b2**t) / (1.0 - b2))
            k = self.lr * c * (1.0 - b1) / (1.0 - b1**t)
            p[...] = p - k * (self.m / (np.sqrt(self.v) + eps * c))
        else:
            self.m = b1 * self.m + (1.0 - b1) * g
            self.v = b2 * self.v + (1.0 - b2) * (g * g)
            m_hat, v_hat = self.m / (1.0 - b1**t), self.v / (1.0 - b2**t)
            p[...] = p - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def recipe_epochs(tag, x_mix, x_tgt, seed, epochs, dtype, batch_size, exact=False):
    """The documented recipe transcribed in plain numpy, in (bins, frames)
    orientation, at the fixed learning rate INITIAL_LR: the columns and the
    float64 initial weights are rounded to dtype once, then each epoch
    shuffles all frames with rng [seed, epoch], batches the columns in order
    (batch_size each, last batch short), weights batch losses by frame count
    and steps Adam per batch on all weights flattened in the order W0, b0,
    W1, b1, .... Returns the epoch losses and the final (W, b) layers.

    The textbook forms are the mean loss, the summed bias gradient and
    Adam as Kingma & Ba state it; exact=True writes the ones train_stack runs
    instead, so that a run can be matched bit for bit: the loss as the dot
    of the residual with itself, the bias gradient as a product with a ones
    column and the folded Adam."""
    n, frames = x_mix.shape
    x_mix, x_tgt = x_mix.astype(dtype), x_tgt.astype(dtype)
    initial = init_params(tag, n, make_rng(seed)).layers
    flat_p = np.concatenate([a.ravel() for layer in initial for a in layer]).astype(dtype)
    # views of flat_p, which Adam steps in place: W is n * n values and b is
    # n, so layer i starts at (n * n + n) * i
    rows = flat_p.reshape(len(initial), n * n + n)
    layers = [(r[: n * n].reshape(n, n), r[n * n :].reshape(n, 1)) for r in rows]
    adam = RecipeAdam(INITIAL_LR, folded=exact)
    losses = []
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(frames)
        total_se = 0.0
        for k in range(0, frames, batch_size):
            cols = order[k : k + batch_size]
            xb, yb = x_mix[:, cols], x_tgt[:, cols]
            pre, post, a = [], [], xb
            for w, b in layers:
                pre.append(w @ a + b)
                a = np.maximum(pre[-1], 0.0)
                post.append(a)
            out = post[-1] * xb if tag == "sf" else post[-1]
            d = out - yb
            r = d.ravel()
            total_se += (float(r @ r) / r.size if exact else float(np.mean(d * d))) * yb.size
            d_post = (2.0 / yb.size) * d
            if tag == "sf":
                d_post = d_post * xb
            grads = [None] * len(layers)
            ones = np.ones((yb.shape[1], 1), dtype=dtype)
            for i in reversed(range(len(layers))):
                d_pre = d_post * (pre[i] > 0.0)
                a_prev = post[i - 1] if i > 0 else xb
                grads[i] = (d_pre @ a_prev.T, d_pre @ ones if exact else d_pre.sum(axis=1))
                d_post = layers[i][0].T @ d_pre
            adam.step(flat_p, np.concatenate([g.ravel() for layer in grads for g in layer]))
        losses.append(total_se / x_tgt.size)
    return losses, layers

