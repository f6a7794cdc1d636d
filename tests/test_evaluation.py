"""Tests of the evaluation harness: metrics, Table I and Fig. 2 reports."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.evaluation import (
    PAPER_FIG2,
    PAPER_TABLE1,
    accuracy_drop,
    compare_row_with_paper,
    format_fig2,
    format_table1,
    generate_fig2,
    generate_table1,
    paper_row_for_depth,
    prediction_agreement,
    tensor_error,
    top1_accuracy,
    top_k_accuracy,
)
from repro.evaluation.cli import main_fig2, main_table1
from repro.models import PAPER_DEPTHS


class TestAccuracyMetrics:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        labels = np.array([1, 0, 0])
        assert top1_accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_top_k(self):
        logits = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
        labels = np.array([1, 0])
        assert top_k_accuracy(logits, labels, k=1) == 0.0
        assert top_k_accuracy(logits, labels, k=2) == pytest.approx(0.5)
        assert top_k_accuracy(logits, labels, k=3) == 1.0

    def test_agreement_and_drop(self):
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        b = np.array([[0.1, 0.9], [0.3, 0.7]])
        labels = np.array([0, 1])
        assert prediction_agreement(a, b) == pytest.approx(0.5)
        assert accuracy_drop(a, b, labels) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ShapeError):
            top1_accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=9)
        with pytest.raises(ShapeError):
            prediction_agreement(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTensorError:
    def test_identical_tensors(self):
        x = np.ones((3, 3))
        report = tensor_error(x, x)
        assert report.mean_absolute_error == 0.0
        assert report.signal_to_noise_db == float("inf")
        assert "MAE=0" in report.summary()

    def test_known_error(self):
        ref = np.zeros(4)
        approx = np.array([1.0, -1.0, 1.0, -1.0])
        report = tensor_error(ref, approx)
        assert report.mean_absolute_error == 1.0
        assert report.max_absolute_error == 1.0
        assert report.signal_to_noise_db == float("-inf")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tensor_error(np.zeros(3), np.zeros(4))


class TestPaperReference:
    def test_table_has_ten_rows(self):
        assert len(PAPER_TABLE1) == 10
        assert [row.depth for row in PAPER_TABLE1] == list(PAPER_DEPTHS)

    def test_lookup_by_depth(self):
        row = paper_row_for_depth(62)
        assert row.speedup_approximate == pytest.approx(213.2)
        with pytest.raises(KeyError):
            paper_row_for_depth(100)

    def test_fig2_fractions_roughly_sum_to_one(self):
        for shares in PAPER_FIG2.values():
            assert sum(shares.values()) == pytest.approx(1.0, abs=0.05)


class TestTable1Generation:
    def test_row_count_and_monotone_macs(self):
        rows = generate_table1()
        assert len(rows) == len(PAPER_DEPTHS)
        macs = [row.macs_per_image for row in rows]
        assert macs == sorted(macs)

    def test_compute_time_linear_in_macs(self):
        rows = generate_table1(depths=(8, 62))
        ratio_macs = rows[1].macs_per_image / rows[0].macs_per_image
        ratio_time = rows[1].gpu_approximate.compute / rows[0].gpu_approximate.compute
        assert ratio_time == pytest.approx(ratio_macs, rel=0.15)

    def test_speedups_match_paper_shape(self):
        """The headline claims of Table I hold for the regenerated table."""
        rows = {row.depth: row for row in generate_table1()}
        # GPU emulation is roughly 200x faster than the CPU emulation for the
        # deepest networks (paper: 213x at ResNet-62).
        assert 150 < rows[62].speedup_approximate < 280
        # The speed-up grows monotonically with network depth.
        speedups = [rows[d].speedup_approximate for d in PAPER_DEPTHS]
        assert speedups == sorted(speedups)
        # Accurate (native) speed-up is an order of magnitude smaller.
        assert rows[62].speedup_accurate < 15
        # The approximate overhead dwarfs the accurate runtime on the CPU...
        assert rows[62].overhead_cpu > 50 * rows[62].cpu_accurate.total
        # ...but stays moderate on the GPU.
        assert rows[62].overhead_gpu < 20 * rows[62].gpu_accurate.total

    def test_emulation_slowdown_two_to_three_orders_on_cpu(self):
        rows = {row.depth: row for row in generate_table1(depths=(62,))}
        slowdown = rows[62].cpu_approximate.compute / rows[62].cpu_accurate.compute
        assert 50 < slowdown < 1000

    def test_row_as_dict_and_paper_comparison(self):
        row = generate_table1(depths=(32,))[0]
        d = dataclasses.asdict(row)
        assert d["model"] == "ResNet-32"
        cmp = compare_row_with_paper(row)
        assert cmp["speedup_approximate_paper"] == pytest.approx(191.0)
        assert cmp["L_paper"] == cmp["L_ours"] == 31

    def test_format_table1_contains_all_models(self):
        rows = generate_table1(depths=(8, 62))
        text = format_table1(rows)
        assert "ResNet-8" in text and "ResNet-62" in text
        assert "Paper" in text
        assert "ResNet-8" in format_table1(rows, include_paper=False)

    def test_invalid_images(self):
        with pytest.raises(ConfigurationError):
            generate_table1(images=0)

    def test_fewer_images_scale_compute_down(self):
        full = generate_table1(depths=(20,), images=10_000)[0]
        tenth = generate_table1(depths=(20,), images=1_000)[0]
        assert tenth.gpu_approximate.compute == pytest.approx(
            full.gpu_approximate.compute / 10, rel=0.05)


class TestFig2Generation:
    def test_breakdown_shape_matches_paper(self):
        breakdown = generate_fig2()
        assert set(breakdown) == set(PAPER_FIG2)
        for shares in breakdown.values():
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_gpu_resnet62_shares_close_to_paper(self):
        breakdown = generate_fig2()
        ours = breakdown[("gpu", "ResNet-62")]
        paper = PAPER_FIG2[("gpu", "ResNet-62")]
        for phase in ("initialization", "quantization", "lut_lookups"):
            assert ours[phase] == pytest.approx(paper[phase], abs=0.08)

    def test_cpu_dominated_by_loop_remaining(self):
        breakdown = generate_fig2()
        cpu = breakdown[("cpu", "ResNet-62")]
        assert cpu["remaining"] > 0.5
        assert cpu["initialization"] < 0.02

    def test_gpu_init_share_shrinks_with_depth(self):
        breakdown = generate_fig2()
        assert breakdown[("gpu", "ResNet-8")]["initialization"] > \
            breakdown[("gpu", "ResNet-62")]["initialization"]

    def test_format_fig2(self):
        text = format_fig2(generate_fig2(models=("ResNet-8",)))
        assert "gpu" in text and "cpu" in text and "%" in text


class TestCLI:
    def test_main_table1_runs(self, capsys):
        assert main_table1(["--images", "1000", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-62" in out and "speedup" in out

    def test_main_fig2_runs(self, capsys):
        assert main_fig2(["--images", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Paper (Fig. 2)" in out
