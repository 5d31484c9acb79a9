import numpy as np
import pytest

from groundedqa import datamodel
from groundedqa.datamodel import BoundingBox, QARecord
from groundedqa.evalkit import (HeatMap, accuracy_by_frequency_bin,
                                attention_heatmap, evaluate,
                                export_heatmap_image,
                                peak_in_box_rate)


def _record(qa_id, category="what", kind="telling"):
    if kind == "pointing":
        from groundedqa.datamodel import ObjectGrounding
        box = BoundingBox(0, 0, 5, 5)
        gs = [ObjectGrounding(f"{qa_id}g{k}", "thing", box) for k in range(4)]
        return QARecord(qa_id=qa_id, image_id="im", kind="pointing",
                        category="which", question="which one ?",
                        answer=f"{qa_id}g0",
                        distractors=[f"{qa_id}g{k}" for k in (1, 2, 3)],
                        groundings=gs)
    return QARecord(qa_id=qa_id, image_id="im", kind=kind, category=category,
                    question="what is it ?", answer="a",
                    distractors=["b", "c", "d"])


class TestEvaluate:
    def _records(self):
        return ([_record(f"t{i}", category=c)
                 for i, c in enumerate(["what", "what", "where", "who"])]
                + [_record(f"p{i}", kind="pointing") for i in range(4)])

    def test_gold_predictor(self):
        records = self._records()
        gold = lambda rec, pack: datamodel.mc_candidates(rec)[1]
        report = evaluate(gold, records, {"im": None})
        assert report.overall == 1.0
        assert report.telling == 1.0 and report.pointing == 1.0
        assert all(v == 1.0 for v in report.per_category.values())

    def test_scripted_predictor_hand_count(self):
        records = self._records()
        # correct on exactly t0, t2, p0, p1
        right = {"t0", "t2", "p0", "p1"}
        def predict(rec, pack):
            target = datamodel.mc_candidates(rec)[1]
            return target if rec.qa_id in right else (target + 1) % 4
        report = evaluate(predict, records, {"im": None})
        assert report.overall == 0.5
        assert report.per_category["what"] == 0.5
        assert report.per_category["where"] == 1.0
        assert report.per_category["who"] == 0.0
        assert report.per_category["which"] == 0.5
        assert report.telling == 0.5 and report.pointing == 0.5
        assert sum(report.counts.values()) == report.total == 8

    def test_permutation_invariant(self):
        records = self._records()
        predict = lambda rec, pack: hash(rec.qa_id) % 4
        a = evaluate(predict, records, {"im": None})
        b = evaluate(predict, list(reversed(records)), {"im": None})
        assert a.overall == b.overall
        assert a.per_category == b.per_category

    def test_failures_counted_not_skipped(self):
        records = self._records()
        def predict(rec, pack):
            if rec.qa_id == "t0":
                raise RuntimeError("boom")
            return datamodel.mc_candidates(rec)[1]
        report = evaluate(predict, records, {"im": None})
        assert report.overall == 7 / 8
        assert len(report.errors) == 1 and report.errors[0][0] == "t0"

    @pytest.mark.parametrize("kind", ["telling", "pointing"])
    def test_absent_kind_reads_zero(self, kind):
        records = [r for r in self._records() if r.kind == kind]
        failed = records[0].qa_id
        def predict(rec, pack):
            if rec.qa_id == failed:
                raise RuntimeError("boom")
            return datamodel.mc_candidates(rec)[1]
        report = evaluate(predict, records, {"im": None})
        present = (len(records) - 1) / len(records)
        absent = "pointing" if kind == "telling" else "telling"
        assert getattr(report, kind) == present
        assert getattr(report, absent) == 0.0
        assert report.overall == present
        rows = [line.split("\t")[0] for line in report.lines()]
        assert "telling" in rows and "pointing" in rows
        assert report.errors[0][0] == failed


class TestAttentionHeatmap:
    def test_single_step(self):
        a = np.arange(196.0) / np.arange(196.0).sum()
        hm = attention_heatmap([a])
        assert np.array_equal(hm.grid, a.reshape(14, 14))

    def test_uniform_trace(self):
        hm = attention_heatmap([np.full(196, 1 / 196)] * 3)
        assert np.allclose(hm.grid, 1 / 196)

    def test_two_step_hand_max(self):
        a1 = np.array([0.7, 0.1, 0.1, 0.1])
        a2 = np.array([0.1, 0.5, 0.2, 0.2])
        hm = attention_heatmap([a1, a2])
        assert np.array_equal(hm.grid, [[0.7, 0.5], [0.2, 0.2]])

    def test_brute_force_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            steps = rng.integers(1, 8)
            trace = [rng.dirichlet(np.ones(196)) for _ in range(steps)]
            hm = attention_heatmap(trace)
            for j in range(196):
                assert hm.grid[j // 14, j % 14] == max(a[j] for a in trace)

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            attention_heatmap([])

    def test_a_trace_that_is_not_a_square_grid(self):
        with pytest.raises(ValueError,
                           match="trace length 5 is not a square grid"):
            attention_heatmap([np.full(5, 0.2)])


class TestPeakInBox:
    def _map_with_peak(self, row, col, width=140, height=140):
        grid = np.zeros((14, 14))
        grid[row, col] = 1.0
        return HeatMap(grid=grid, image_width=width, image_height=height)

    def test_peak_center_inside_box(self):
        hm = self._map_with_peak(0, 0)  # center at (5, 5)
        rate, _ = peak_in_box_rate([(hm, [BoundingBox(0, 0, 10, 10)])])
        assert rate == 1.0

    def test_full_image_box(self):
        entries = [(self._map_with_peak(r, c),
                    [BoundingBox(0, 0, 140, 140)])
                   for r, c in [(0, 0), (13, 13), (7, 3)]]
        rate, area = peak_in_box_rate(entries)
        assert rate == 1.0
        assert area == 1.0

    def test_planted_six_of_ten(self):
        entries = []
        box = BoundingBox(0, 0, 30, 30)  # covers cell centers (5,5)..(25,25)
        for i in range(10):
            if i < 6:
                hm = self._map_with_peak(1, 1)  # center (15, 15): inside
            else:
                hm = self._map_with_peak(10, 10)  # center (105, 105): outside
            entries.append((hm, [box]))
        rate, _ = peak_in_box_rate(entries)
        assert rate == 0.6

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(5)
        entries, bigger = [], []
        for _ in range(30):
            grid = rng.dirichlet(np.ones(196)).reshape(14, 14)
            hm = HeatMap(grid=grid, image_width=140, image_height=140)
            box = BoundingBox(*rng.uniform(0, 60, 2), *rng.uniform(5, 50, 2))
            big = BoundingBox(box.x, box.y, box.w + 30, box.h + 30)
            entries.append((hm, [box]))
            bigger.append((hm, [big]))
        assert peak_in_box_rate(bigger)[0] >= peak_in_box_rate(entries)[0]

    @pytest.mark.parametrize("size", [(0, 0), (140, 0), (0, 140)])
    @pytest.mark.parametrize("boxes", [[], [BoundingBox(0, 0, 10, 10)]])
    def test_a_map_without_its_image_size_is_rejected(self, size, boxes):
        """`attention_heatmap` gives no image size: no peak is scored at
        pixel (0, 0) and no box is divided by an area of 0."""
        grid = np.zeros((14, 14))
        grid[7, 7] = 1.0
        hm = HeatMap(grid=grid, image_width=size[0], image_height=size[1])
        with pytest.raises(ValueError, match="image size"):
            peak_in_box_rate([(self._map_with_peak(0, 0), []), (hm, boxes)])
        with pytest.raises(ValueError, match="image size"):
            peak_in_box_rate([(attention_heatmap([grid.ravel()]), boxes)])

    def test_peak_tie_break_lowest_row_major(self):
        grid = np.zeros((14, 14))
        grid[2, 3] = 0.5
        grid[5, 1] = 0.5
        hm = HeatMap(grid=grid, image_width=140, image_height=140)
        assert hm.peak_cell() == (2, 3)


class TestFrequencyBinAccuracy:
    BINS = {2: {"sky"}, 4: {"cat"}, 8: {"dog"}}

    def test_all_correct(self):
        outcomes = [("sky", True), ("cat", True), ("dog", True)]
        acc = accuracy_by_frequency_bin(outcomes, self.BINS)
        assert acc == {2: 1.0, 4: 1.0, 8: 1.0}

    def test_empty_bin_absent(self):
        acc = accuracy_by_frequency_bin([("cat", False)], self.BINS)
        assert acc == {4: 0.0}
        assert 2 not in acc and 8 not in acc

    def test_hand_mixture(self):
        outcomes = [("cat", True), ("cat", False), ("cat", True),
                    ("dog", False), ("sky", True)]
        acc = accuracy_by_frequency_bin(outcomes, self.BINS)
        assert acc == {4: 2 / 3, 8: 0.0, 2: 1.0}


def _read_pgm(path):
    with open(path, "rb") as f:
        assert f.readline().strip() == b"P5"
        w, h = map(int, f.readline().split())
        assert f.readline().strip() == b"255"
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(h, w)


class TestExportHeatmap:
    def test_constant_grid_all_zero(self, tmp_path):
        hm = HeatMap(grid=np.full((14, 14), 0.3))
        path = tmp_path / "c.pgm"
        export_heatmap_image(hm, path)
        assert np.all(_read_pgm(path) == 0)

    def test_single_hot_cell_block(self, tmp_path):
        grid = np.zeros((14, 14))
        grid[3, 4] = 1.0
        path = tmp_path / "h.pgm"
        export_heatmap_image(HeatMap(grid=grid), path)
        img = _read_pgm(path)
        assert img.shape == (224, 224)
        block = img[3 * 16:4 * 16, 4 * 16:5 * 16]
        assert np.all(block == 255)
        assert img.sum() == 255 * 256
