import numpy as np
import pytest

from neural_couplings.spectral import fit_scale
from neural_couplings.synth import make_synthetic_dataset


class TestSynthDataset:
    def test_shapes_and_ids(self):
        ds = make_synthetic_dataset(n_bins=32, frames=100, pairs=3, seed=1)
        assert len(ds.pairs) == 3
        assert ds.config.bins_kept == 32
        assert ds.config.fft_size == 62
        assert ds.ids == ["synth00", "synth01", "synth02"]
        for mix, tgt in ds.pairs:
            assert mix.mags.shape == (32, 100)
            assert tgt.mags.shape == (32, 100)

    def test_deterministic(self):
        a = make_synthetic_dataset(n_bins=32, frames=80, pairs=2, seed=5)
        b = make_synthetic_dataset(n_bins=32, frames=80, pairs=2, seed=5)
        for (ma, ta), (mb, tb) in zip(a.pairs, b.pairs):
            assert np.array_equal(ma.mags, mb.mags)
            assert np.array_equal(ta.mags, tb.mags)
        assert np.array_equal(a.scale, b.scale)

    def test_seed_changes_content(self):
        a = make_synthetic_dataset(n_bins=32, frames=80, pairs=1, seed=0)
        b = make_synthetic_dataset(n_bins=32, frames=80, pairs=1, seed=1)
        assert not np.array_equal(a.pairs[0][0].mags, b.pairs[0][0].mags)

    def test_pairs_are_mutually_independent(self):
        # pair idx seeds the stream, so a narrower run reproduces prefixes
        a = make_synthetic_dataset(n_bins=32, frames=80, pairs=1, seed=3)
        b = make_synthetic_dataset(n_bins=32, frames=80, pairs=2, seed=3)
        assert np.array_equal(a.pairs[0][0].mags, b.pairs[0][0].mags)

    def test_mixture_dominates_target(self):
        ds = make_synthetic_dataset(n_bins=32, frames=120, pairs=1, seed=2)
        mix, tgt = ds.pairs[0]
        assert (mix.mags >= tgt.mags).all()
        # the interference floor is strictly positive
        assert (mix.mags - tgt.mags > 0).all()

    def test_target_is_sparse_and_active(self):
        ds = make_synthetic_dataset(n_bins=64, frames=300, pairs=1, seed=0)
        tgt = ds.pairs[0][1].mags
        occupancy = (tgt > 0).mean(axis=0)
        assert occupancy.max() <= 0.25
        assert (tgt > 0).any(axis=0).mean() > 0.5  # most frames carry a note

    def test_scale_fitted_on_mixtures(self):
        ds = make_synthetic_dataset(n_bins=32, frames=100, pairs=2, seed=4)
        assert np.array_equal(ds.scale, fit_scale([mix for mix, _ in ds.pairs]))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_bins"):
            make_synthetic_dataset(n_bins=8)
        with pytest.raises(ValueError):
            make_synthetic_dataset(frames=1)
        with pytest.raises(ValueError):
            make_synthetic_dataset(pairs=0)

    def test_target_partials_move_between_frames(self):
        # vibrato must shift the occupied bins within a single note
        ds = make_synthetic_dataset(n_bins=64, frames=300, pairs=1, seed=0)
        tgt = ds.pairs[0][1].mags
        support = tgt > 0
        changed = 0
        for t in range(support.shape[1] - 1):
            if support[:, t].any() and support[:, t + 1].any():
                if not np.array_equal(support[:, t], support[:, t + 1]):
                    changed += 1
        assert changed > 20
