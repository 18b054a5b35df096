import json
import math

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.analysis import (
    MetricsRecord,
    aggregate,
    couplings_estimate,
    evaluate_segment,
    export_heatmap,
    linear_composition,
    snr_db,
    tod_r,
    write_report_csv,
)
from neural_couplings.linalg import ShapeError, make_rng
from neural_couplings.models import ModelParams, forward
from neural_couplings.nca import NcaConfig, run_nca


def zero_bias_params(tag, mats):
    n = mats[0].shape[0]
    layers = [(np.asarray(w, dtype=np.float64), np.zeros((n, 1))) for w in mats]
    return ModelParams(tag, layers)


class TestTodR:
    def test_all_ones_4x4(self):
        # trace 4, off-diagonal mass 12, sqrt(4) = 2 -> 2 * 4 / 12
        assert math.isclose(tod_r(np.ones((4, 4))), 2.0 / 3.0, rel_tol=1e-12)

    def test_mixed_signs_2x2(self):
        # |diag| = 5, off mass = 5, sqrt(2) * 5 / 5 = sqrt(2)
        val = tod_r(np.array([[1.0, 2.0], [3.0, -4.0]]))
        assert math.isclose(val, math.sqrt(2.0), rel_tol=1e-12)

    def test_zero_diagonal(self):
        assert tod_r(np.array([[0.0, 1.0], [2.0, 0.0]])) == 0.0

    def test_diagonal_matrix_is_undefined(self):
        assert tod_r(np.eye(3)) is None
        assert tod_r(np.zeros((3, 3))) is None

    def test_scale_invariance(self):
        rng = make_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            c = rng.normal(size=(n, n))
            scale = float(rng.uniform(1e-6, 1e6))
            a, b = tod_r(c), tod_r(scale * c)
            assert a is not None and b is not None
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            tod_r(np.ones((2, 3)))


class TestSnr:
    def test_hand_value(self):
        # ref energy 25, err energy 1 -> 10 log10(25)
        val = snr_db(np.array([[3.0], [4.0]]), np.array([[3.0], [3.0]]))
        assert math.isclose(val, 10.0 * math.log10(25.0), rel_tol=1e-12)

    def test_exact_match_hits_cap(self):
        assert snr_db(np.ones((2, 2)), np.ones((2, 2))) == 300.0

    def test_cap_applies_to_tiny_errors(self):
        ref = np.ones((2, 2))
        est = ref + 1e-200
        assert snr_db(ref, est) == 300.0

    def test_zero_estimate_scores_zero_db(self):
        ref = np.array([[3.0], [4.0]])
        assert snr_db(ref, np.zeros((2, 1))) == 0.0

    def test_error_energy_equal_to_reference_energy(self):
        assert snr_db(np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])) == 0.0

    def test_zero_reference_is_undefined(self):
        # a silent target or a dead model output has no energy to compare with
        assert snr_db(np.zeros((2, 2)), np.ones((2, 2))) is None
        assert snr_db(np.zeros((2, 2)), np.zeros((2, 2))) is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            snr_db(np.ones((2, 2)), np.ones((2, 3)))


class TestLinearComposition:
    def test_encoder_applied_first(self):
        w1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        w2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = zero_bias_params("dae", [w1, w2])
        # W2 @ W1, not W1 @ W2
        assert linear_composition(p).tolist() == (w2 @ w1).tolist()

    def test_ignores_biases(self):
        w = np.eye(2)
        p = ModelParams("dae", [(w, np.ones((2, 1))), (w, np.ones((2, 1)))])
        assert linear_composition(p).tolist() == np.eye(2).tolist()


class TestCouplingsEstimate:
    def test_clips_at_zero(self):
        p = zero_bias_params("dae", [np.eye(2), np.eye(2)])
        c = np.array([[1.0, 0.0], [0.0, -1.0]])
        x = np.array([[1.0], [1.0]])
        assert couplings_estimate(p, c, x).tolist() == [[1.0], [0.0]]

    def test_sf_multiplies_input(self):
        p = zero_bias_params("sf", [np.eye(2), np.eye(2)])
        c = np.eye(2)
        x = np.array([[2.0], [3.0]])
        # mask estimate C x = x, times input -> x * x
        assert couplings_estimate(p, c, x).tolist() == [[4.0], [9.0]]


class TestEvaluateSegment:
    def setup_method(self):
        self.params = zero_bias_params("dae", [np.eye(2) * 0.5, np.eye(2)])
        self.x = np.array([[2.0, 4.0], [2.0, 2.0]])
        self.truth = 0.5 * self.x

    def test_couplings_method_scores_c_estimate(self):
        c = 0.5 * np.eye(2)
        [rec] = evaluate_segment(self.params, self.x, self.truth, [("student", c)], "0:2")
        # model output is exactly 0.5 x and C x matches it
        assert rec.snr_model_db == 300.0
        assert rec.snr_truth_db == 300.0
        assert rec.tod_r is None
        assert (rec.arch, rec.method, rec.segment) == ("dae", "student", "0:2")

    def test_identity_method_scores_raw_mixture(self):
        [rec] = evaluate_segment(self.params, self.x, self.truth, [("identity", None)], "0:2")
        assert rec.tod_r is None
        model_out = forward(self.params, self.x)[-1]
        assert math.isclose(
            rec.snr_model_db,
            10 * math.log10(np.sum(model_out**2) / np.sum((model_out - self.x) ** 2)),
            rel_tol=1e-12,
        )

    def test_a_matrix_is_scored_alike_whatever_its_label(self):
        # only C = None scores the raw mixture; a given C is a couplings estimate
        c = np.array([[1.0, 2.0], [3.0, -4.0]])
        a, b = evaluate_segment(self.params, self.x, self.truth,
                                [("identity", c), ("student", c)], "0:2")
        assert (a.tod_r, a.snr_model_db, a.snr_truth_db) == \
            (b.tod_r, b.snr_model_db, b.snr_truth_db)
        assert math.isclose(a.tod_r, math.sqrt(2.0), rel_tol=1e-12)

    def test_zero_couplings_score_zero_db_against_model(self):
        [rec] = evaluate_segment(
            self.params, self.x, self.truth, [("student", np.zeros((2, 2)))], "0:2"
        )
        # the estimate collapses to zero, so the error is the output itself
        assert rec.snr_model_db == 0.0
        assert rec.snr_truth_db == 0.0

    def test_well_fit_student_couplings_reach_high_snr(self):
        # free-C fit on an effectively linear model: the estimate lands
        # within rounding noise of the model output (measured 61.7 dB)
        rng = make_rng([777, 0])
        layers = [(rng.uniform(0.05, 0.3, (8, 8)), np.zeros((8, 1))) for _ in range(2)]
        params = ModelParams("dae", layers)
        x = np.abs(rng.normal(size=(8, 64))) + 0.1
        state = run_nca(params, x, NcaConfig("student", iterations=2000, lr=2.5e-3))
        [rec] = evaluate_segment(params, x, x, [("student", state.c)], "0:64")
        assert rec.snr_model_db >= 60.0


class TestAggregate:
    def rec(self, arch, method, tod, snr_m, snr_t=1.0):
        return MetricsRecord(arch, method, "0:2", tod, snr_m, snr_t)

    def test_groups_and_stats(self):
        records = [
            self.rec("dae", "student", 1.0, 10.0),
            self.rec("dae", "student", 3.0, 30.0),
            self.rec("dae", "linear", None, 5.0),
            self.rec("sf", "student", 2.0, 8.0),
        ]
        out = aggregate(records)
        assert out["record_count"] == 4
        cell = out["cells"]["dae"]["student"]
        assert cell["n"] == 2
        assert cell["snr_model_db"] == {"mean": 20.0, "std": 10.0}
        assert cell["tod_r"]["defined"] == 2
        assert cell["tod_r"]["excluded"] == 0
        assert cell["tod_r"]["mean"] == 2.0
        assert cell["tod_r"]["std"] == 1.0

    def test_all_undefined_cell_warns_and_omits_stats(self, caplog):
        records = [self.rec("dae", "linear", None, 5.0)]
        with caplog.at_level("WARNING"):
            out = aggregate(records)
        cell = out["cells"]["dae"]["linear"]
        assert cell["tod_r"] == {"defined": 0, "excluded": 1}
        assert cell["snr_model_db"] == {"mean": 5.0, "std": 0.0}
        assert "TOD-R undefined" in caplog.text

    def test_undefined_tod_r_warns_for_every_method_but_identity(self, caplog):
        # the identity baseline has no off-diagonal mass by construction
        with caplog.at_level("WARNING"):
            aggregate([self.rec("dae", "identity", None, 5.0)])
        assert caplog.text == ""
        with caplog.at_level("WARNING"):
            aggregate([self.rec("dae", "student", None, 5.0), self.rec("dae", "student", None, 6.0)])
        assert "TOD-R undefined for every record in cell (dae, student)" in caplog.text

    def test_snr_stats_skip_undefined_values(self, caplog):
        records = [
            self.rec("dae", "student", 1.0, 10.0, None),
            self.rec("dae", "student", 1.0, 30.0, 4.0),
            self.rec("dae", "linear", 1.0, None, None),
        ]
        with caplog.at_level("WARNING"):
            out = aggregate(records)
        student, linear = out["cells"]["dae"]["student"], out["cells"]["dae"]["linear"]
        assert student["n"] == 2
        assert student["snr_model_db"] == {"mean": 20.0, "std": 10.0}
        assert student["snr_truth_db"] == {"mean": 4.0, "std": 0.0}
        assert linear["snr_model_db"] == linear["snr_truth_db"] == {"mean": None, "std": None}
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == ["SNR undefined for 2 of 3 records: their reference is all zero"]

    def test_defined_snr_gives_no_warning(self, caplog):
        with caplog.at_level("WARNING"):
            aggregate([self.rec("dae", "student", 1.0, 10.0)])
        assert caplog.text == ""

    def test_empty_input(self):
        assert aggregate([]) == {"cells": {}, "record_count": 0}


class TestReports:
    def test_json_report_is_stable_text(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        report = {"cells": {"dae": {"student": {"n": 1}}}, "record_count": 1}
        serial.write_json(p1, report)
        serial.write_json(p2, report)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == report

    def test_csv_rows_sorted_with_blank_for_undefined(self, tmp_path):
        records = [
            MetricsRecord("sf", "student", "0:2", 2.0, 8.0, 7.0),
            MetricsRecord("dae", "student", "2:4", None, 10.0, 9.0),
            MetricsRecord("dae", "linear", "0:2", 1.5, 5.0, 4.0),
        ]
        path = tmp_path / "r.csv"
        write_report_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "arch,method,segment,tod_r,snr_model_db,snr_truth_db"
        assert lines[1] == "dae,linear,0:2,1.5,5.0,4.0"
        assert lines[2] == "dae,student,2:4,,10.0,9.0"
        assert lines[3] == "sf,student,0:2,2.0,8.0,7.0"

    def test_csv_blank_for_undefined_snr(self, tmp_path):
        records = [MetricsRecord("dae", "student", "0:2", 1.5, None, 3.0),
                   MetricsRecord("dae", "student", "2:4", 1.5, 5.0, None)]
        path = tmp_path / "r.csv"
        write_report_csv(records, path)
        assert path.read_text().splitlines()[1:] == ["dae,student,0:2,1.5,,3.0",
                                                     "dae,student,2:4,1.5,5.0,"]


class TestHeatmap:
    C2 = np.array([[1.0, -0.5], [0.0, 0.25]])

    def test_png_pixels(self, tmp_path, parse_png):
        path = tmp_path / "c.png"
        export_heatmap(self.C2, path)
        pixels = parse_png(path.read_bytes())
        # |C| / max -> [[1, .5], [0, .25]] -> rint * 255
        assert pixels.tolist() == [[255, 128], [0, 64]]

    def test_row_normalize(self, tmp_path, parse_png):
        path = tmp_path / "r.png"
        export_heatmap(np.array([[2.0, 1.0], [0.0, 0.0]]), path, row_normalize=True)
        # zero rows stay zero instead of dividing by zero
        assert parse_png(path.read_bytes()).tolist() == [[255, 128], [0, 0]]

    def test_unknown_format_rejected(self, tmp_path):
        # heatmaps are PNG only, named by an exact .png suffix
        for name in ("c.pgm", "c.jpg", "c.PNG", "c"):
            with pytest.raises(ValueError, match=r"must end in \.png$"):
                export_heatmap(np.eye(4), tmp_path / name)
        assert list(tmp_path.iterdir()) == []

    def test_all_zero_matrix_renders_black(self, tmp_path, parse_png):
        path = tmp_path / "0.png"
        export_heatmap(np.zeros((2, 2)), path)
        assert parse_png(path.read_bytes()).tolist() == [[0, 0], [0, 0]]
