import tracemalloc

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.spectral import (
    BinScaler,
    Dataset,
    Spectrogram,
    StftConfig,
    WavError,
    fit_scaler,
    load_dataset,
    load_wav_mono,
    normalized_pair_rows,
    normalized_window,
    save_dataset,
    stft_mag,
)

TINY = StftConfig(sample_rate=4, window_len=2, hop=1, fft_size=2, bins_kept=2)


def spec(mags, cfg=TINY, source_id=""):
    return Spectrogram(cfg, np.asarray(mags, dtype=np.float64), source_id)


class TestStftConfig:
    def test_default_values(self):
        cfg = StftConfig.default()
        assert (cfg.sample_rate, cfg.window_len, cfg.hop) == (44100, 2048, 384)
        assert (cfg.fft_size, cfg.bins_kept) == (4096, 2049)
        assert cfg.window_kind == "hamming"

    def test_bins_must_match_fft(self):
        with pytest.raises(ValueError, match="bins_kept"):
            StftConfig(8000, 16, 4, 32, 16)

    def test_fft_shorter_than_window(self):
        with pytest.raises(ValueError, match="fft_size"):
            StftConfig(8000, 64, 4, 32, 17)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            StftConfig(8000, 16, 0, 32, 17)

    def test_unknown_window_kind(self):
        with pytest.raises(ValueError, match="window kind"):
            StftConfig(8000, 16, 4, 32, 17, window_kind="hann")


class TestSpectrogram:
    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError, match="non-negative"):
            spec([[1.0, -0.5], [0.0, 0.0]])

    def test_rejects_wrong_bin_count(self):
        with pytest.raises(ValueError, match="rows"):
            spec(np.ones((3, 4)))

    def test_frames_property(self):
        assert spec(np.ones((2, 5))).frames == 5


class TestBinScaler:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            BinScaler(np.array([1.0, 0.0]))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            BinScaler(np.array([]))

    def test_flattens_column_input(self):
        s = BinScaler(np.array([[1.0], [2.0]]))
        assert s.per_bin_std.shape == (2,)


class TestWav:
    def test_16_bit_mono_values(self, tmp_path, wav_builder):
        raw = np.array([[0], [16384], [-32768], [32767]])
        p = tmp_path / "m.wav"
        p.write_bytes(wav_builder(8000, raw, 16, 1))
        x = load_wav_mono(p)
        assert np.allclose(x, [0.0, 0.5, -1.0, 32767 / 32768], atol=1e-12)

    def test_24_bit_mono_values(self, tmp_path, wav_builder):
        raw = np.array([[0], [4194304], [-8388608]])  # 0, 2^22, -2^23
        p = tmp_path / "m24.wav"
        p.write_bytes(wav_builder(8000, raw, 24, 1))
        x = load_wav_mono(p)
        assert np.allclose(x, [0.0, 0.5, -1.0], atol=1e-12)

    def test_float32_mono(self, tmp_path, wav_builder):
        raw = np.array([[0.25], [-0.75]])
        p = tmp_path / "f.wav"
        p.write_bytes(wav_builder(8000, raw, 32, 3))
        assert np.allclose(load_wav_mono(p), [0.25, -0.75], atol=1e-7)

    def test_stereo_averages_channels(self, tmp_path, wav_builder):
        raw = np.array([[16384, -16384], [8192, 8192]])
        p = tmp_path / "s.wav"
        p.write_bytes(wav_builder(8000, raw, 16, 1))
        assert np.allclose(load_wav_mono(p), [0.0, 0.25], atol=1e-12)

    def test_rate_check(self, tmp_path, wav_builder):
        p = tmp_path / "r.wav"
        p.write_bytes(wav_builder(22050, np.zeros((4, 1)), 16, 1))
        assert load_wav_mono(p, expect_rate=22050).shape == (4,)
        with pytest.raises(WavError, match="sample rate"):
            load_wav_mono(p, expect_rate=44100)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavError, match="RIFF"):
            load_wav_mono(p)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(WavError, match="nope.wav"):
            load_wav_mono(tmp_path / "nope.wav")

    def test_unsupported_encoding(self, tmp_path, wav_builder):
        p = tmp_path / "u.wav"
        p.write_bytes(wav_builder(8000, np.zeros((4, 1)), 8, 1))
        with pytest.raises(WavError, match="unsupported encoding"):
            load_wav_mono(p)

    def test_missing_data_chunk(self, tmp_path, wav_builder):
        good = wav_builder(8000, np.zeros((4, 1)), 16, 1)
        broken = good.replace(b"data", b"junk")
        p = tmp_path / "d.wav"
        p.write_bytes(broken)
        with pytest.raises(WavError, match="missing fmt or data"):
            load_wav_mono(p)


class TestStft:
    CFG = StftConfig(sample_rate=8000, window_len=8, hop=4, fft_size=16, bins_kept=9)

    def test_frame_count_and_shape(self):
        # 20 samples, window 8, hop 4 -> 1 + (20-8)//4 = 4 frames
        s = stft_mag(np.ones(20), self.CFG)
        assert s.mags.shape == (9, 4)

    def test_trailing_samples_dropped(self):
        a = stft_mag(np.ones(20), self.CFG)
        b = stft_mag(np.ones(23), self.CFG)
        assert np.array_equal(a.mags, b.mags)

    def test_dc_bin_of_constant_signal_is_window_sum(self):
        s = stft_mag(np.ones(8), self.CFG)
        assert s.mags.shape == (9, 1)
        assert np.isclose(s.mags[0, 0], np.hamming(8).sum(), atol=1e-12)

    def test_each_frame_matches_direct_transform(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=24)
        s = stft_mag(sig, self.CFG)
        w = np.hamming(8)
        for t in range(s.frames):
            chunk = sig[t * 4 : t * 4 + 8] * w
            want = np.abs(np.fft.rfft(chunk, n=16))[:9]
            assert np.allclose(s.mags[:, t], want, atol=1e-12)

    def test_zero_signal_gives_zero_magnitudes(self):
        s = stft_mag(np.zeros(32), self.CFG)
        assert np.array_equal(s.mags, np.zeros((9, 7)))

    def test_sinusoid_peaks_at_its_own_bin(self):
        # fft 16 at 8000 Hz -> 500 Hz per bin; a 1500 Hz tone sits on bin 3
        t = np.arange(40) / 8000.0
        s = stft_mag(0.5 * np.sin(2 * np.pi * 1500.0 * t), self.CFG)
        assert np.array_equal(s.mags.argmax(axis=0), np.full(s.frames, 3))

    def test_magnitudes_scale_linearly(self):
        sig = np.random.default_rng(9).normal(size=28)
        one = stft_mag(sig, self.CFG)
        two = stft_mag(2.0 * sig, self.CFG)
        assert np.allclose(two.mags, 2.0 * one.mags, rtol=1e-12)

    def test_signal_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            stft_mag(np.ones(7), self.CFG)

    def test_rejects_2d_signal(self):
        with pytest.raises(ValueError):
            stft_mag(np.ones((4, 8)), self.CFG)


class TestScaler:
    def test_population_std_per_bin(self):
        s = spec([[1.0, 3.0], [5.0, 5.0]])
        scaler = fit_scaler([s])
        # row 0: mean 2, deviations +-1 -> std 1; row 1 constant -> floored
        assert scaler.per_bin_std[0] == 1.0
        assert scaler.per_bin_std[1] == 1e-8

    def test_pools_frames_across_spectrograms(self):
        a = spec([[0.0], [1.0]])
        b = spec([[2.0], [1.0]])
        scaler = fit_scaler([a, b])
        assert scaler.per_bin_std[0] == 1.0

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            fit_scaler([spec([[1.0], [1.0]])])

    def test_apply_divides_rows(self):
        s = spec([[2.0, 4.0], [3.0, 9.0]])
        ds = Dataset(TINY, [(s, s)], BinScaler(np.array([2.0, 3.0])))
        x_mix, x_tgt = normalized_pair_rows(ds)
        assert x_mix.tolist() == [[1.0, 1.0], [2.0, 3.0]]
        assert x_tgt.tolist() == x_mix.tolist()

    def test_apply_checks_length(self):
        s = spec(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scaler length"):
            Dataset(TINY, [(s, s)], BinScaler(np.ones(3)))

    def test_fit_then_apply_gives_unit_variance_rows(self):
        s = spec(np.random.default_rng(4).uniform(0.1, 5.0, size=(2, 50)))
        x_mix, _ = normalized_pair_rows(Dataset(TINY, [(s, s)], fit_scaler([s])))
        assert np.allclose(x_mix.std(axis=0), 1.0, atol=1e-12)


def tiny_dataset():
    mix = spec([[2.0, 4.0], [6.0, 6.0]], source_id="t0")
    tgt = spec([[1.0, 2.0], [3.0, 0.0]], source_id="t0")
    return Dataset(TINY, [(mix, tgt)], BinScaler(np.array([2.0, 3.0])))


class TestDataset:
    def test_pair_frame_mismatch(self):
        mix = spec(np.ones((2, 3)))
        tgt = spec(np.ones((2, 2)))
        with pytest.raises(ValueError, match="frames"):
            Dataset(TINY, [(mix, tgt)], BinScaler(np.ones(2)))

    def test_scaler_length_mismatch(self):
        mix = spec(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scaler"):
            Dataset(TINY, [(mix, mix)], BinScaler(np.ones(3)))

    def test_normalized_pair_rows(self):
        # one frame per row
        x, y = normalized_pair_rows(tiny_dataset())
        assert x.tolist() == [[1.0, 2.0], [2.0, 2.0]]
        assert y.tolist() == [[0.5, 1.0], [1.0, 0.0]]
        assert x.flags.c_contiguous and y.flags.c_contiguous

    def test_normalized_pair_rows_match_the_column_recipe(self):
        # each pair divided straight into its transposed rows gives the bits
        # of dividing every pair, concatenating the columns and transposing
        rng = np.random.default_rng(9)
        cfg = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=512, bins_kept=257)
        pairs = [
            tuple(spec(rng.uniform(0.1, 5.0, size=(257, frames)), cfg) for _ in range(2))
            for frames in (3, 40, 17)
        ]
        ds = Dataset(cfg, pairs, fit_scaler([m for m, _ in pairs]))
        scale = ds.scaler.per_bin_std[:, None]
        mix_rows, tgt_rows = normalized_pair_rows(ds)
        for got, k in ((mix_rows, 0), (tgt_rows, 1)):
            want = np.concatenate([pair[k].mags / scale for pair in pairs], axis=1).T
            assert got.shape == want.shape == (60, 257)
            assert np.array_equal(got, want)

    def test_normalized_window_slices(self):
        x, y = normalized_window(tiny_dataset(), 0, 1, 2)
        assert x.tolist() == [[2.0], [2.0]]
        assert y.tolist() == [[1.0], [0.0]]

    def test_normalized_window_bounds(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError, match="out of range"):
            normalized_window(ds, 0, 0, 3)
        with pytest.raises(ValueError, match="pair index"):
            normalized_window(ds, 1, 0, 1)


class TestDatasetCodec:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        p = tmp_path / "d.ncd"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert back.config == ds.config
        assert len(back.pairs) == 1
        assert back.pairs[0][0].source_id == "t0"
        assert np.array_equal(back.pairs[0][0].mags, ds.pairs[0][0].mags)
        assert np.array_equal(back.pairs[0][1].mags, ds.pairs[0][1].mags)
        assert np.array_equal(back.scaler.per_bin_std, ds.scaler.per_bin_std)
        assert back.scaler.epsilon == ds.scaler.epsilon

    def test_save_streams_without_a_dataset_sized_buffer(self, tmp_path):
        # 4 MiB of spectrograms at 1 MiB each; each matrix is written from
        # its own buffer, not collected into one in-memory file first
        rng = np.random.default_rng(3)
        cfg = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=512, bins_kept=257)
        pairs = [
            tuple(spec(rng.uniform(0.0, 2.0, size=(257, 500)), cfg, f"t{i}") for _ in range(2))
            for i in range(2)
        ]
        ds = Dataset(cfg, pairs, fit_scaler([m for m, _ in pairs]))
        p = tmp_path / "big.ncd"
        tracemalloc.start()
        try:
            save_dataset(ds, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18
        back = load_dataset(p)
        for (mix, tgt), (got_mix, got_tgt) in zip(ds.pairs, back.pairs):
            assert np.array_equal(got_mix.mags, mix.mags)
            assert np.array_equal(got_tgt.mags, tgt.mags)

    def test_load_reads_each_matrix_once(self, tmp_path):
        # four 1 MiB spectrograms, each read straight into its own array:
        # the load peaks at 4.13 matrices (the dataset and a bool finiteness
        # temporary), and at 5.0 while each was read as bytes and then copied
        rng = np.random.default_rng(4)
        cfg = StftConfig(sample_rate=8000, window_len=10, hop=5, fft_size=512, bins_kept=257)
        pairs = [
            tuple(spec(rng.uniform(0.0, 2.0, size=(257, 500)), cfg, f"t{i}") for _ in range(2))
            for i in range(2)
        ]
        p = tmp_path / "big.ncd"
        save_dataset(Dataset(cfg, pairs, fit_scaler([m for m, _ in pairs])), p)
        matrix = pairs[0][0].mags.nbytes
        tracemalloc.start()
        try:
            back = load_dataset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * matrix
        for (mix, tgt), (got_mix, got_tgt) in zip(pairs, back.pairs):
            assert np.array_equal(got_mix.mags, mix.mags)
            assert np.array_equal(got_tgt.mags, tgt.mags)

    def test_writes_are_byte_identical(self, tmp_path):
        ds = tiny_dataset()
        a, b = tmp_path / "a.ncd", tmp_path / "b.ncd"
        save_dataset(ds, a)
        save_dataset(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ncd"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(serial.FormatError, match="magic"):
            load_dataset(p)

    def test_newer_version_rejected(self, tmp_path):
        p = tmp_path / "v.ncd"
        save_dataset(tiny_dataset(), p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(serial.VersionError):
            load_dataset(p)

    def test_unknown_window_kind_byte(self, tmp_path):
        p = tmp_path / "w.ncd"
        save_dataset(tiny_dataset(), p)
        raw = bytearray(p.read_bytes())
        raw[28] = 7  # window-kind byte follows magic, version, and five u32 fields
        p.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="window kind"):
            load_dataset(p)

    # tiny_dataset layout: config ends at 29, pair count 29:33, id length
    # 33:37, mix header 39:47 and payload 47:79, target 79:119, bin count
    # 119:123, per-bin std 123:139, epsilon 139:147
    @pytest.mark.parametrize("at", [39, 119], ids=["mags", "bins"])
    def test_hostile_size(self, tmp_path, at):
        p = tmp_path / "h.ncd"
        save_dataset(tiny_dataset(), p)
        raw = bytearray(p.read_bytes())
        raw[at:at + 8] = b"\xff" * 8
        p.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="truncated"):
            load_dataset(p)

    @pytest.mark.parametrize("at", [47, 123, 139], ids=["mags", "scaler", "epsilon"])
    def test_non_finite_payload(self, tmp_path, at):
        p = tmp_path / "nan.ncd"
        save_dataset(tiny_dataset(), p)
        raw = bytearray(p.read_bytes())
        raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(serial.FormatError, match="non-finite"):
            load_dataset(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "t.ncd"
        save_dataset(tiny_dataset(), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(serial.FormatError, match="truncated"):
            load_dataset(p)
