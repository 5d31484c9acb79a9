"""
Multiple-choice evaluation with per-category breakdown, and the attention
heat-map / grounding analyses.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import datamodel
from .datamodel import CATEGORIES


@dataclass
class EvalReport:
    per_category: dict  # category -> accuracy (absent if no records)
    counts: dict  # category -> record count
    telling: float
    pointing: float
    overall: float
    total: int
    errors: list = field(default_factory=list)  # (qa_id, message)

    def to_text(self, header_lines=()) -> str:
        lines = [f"# {h}" for h in header_lines]
        lines.append("category\tcount\taccuracy")
        for cat in CATEGORIES:
            if cat in self.per_category:
                lines.append(f"{cat}\t{self.counts[cat]}\t"
                             f"{self.per_category[cat]:.4f}")
        lines.append(f"telling\t-\t{self.telling:.4f}")
        lines.append(f"pointing\t-\t{self.pointing:.4f}")
        lines.append(f"overall\t{self.total}\t{self.overall:.4f}")
        for qa_id, msg in self.errors:
            lines.append(f"# error\t{qa_id}\t{msg}")
        return "\n".join(lines) + "\n"


def evaluate(predict_fn, records, packs) -> EvalReport:
    """
    Accuracy of predict_fn(record, pack) -> candidate index against the
    correct candidate position, one record at a time (see `tally`).
    """
    outcomes = []
    for rec in records:
        try:
            outcomes.append(predict_fn(rec, packs[rec.image_id]))
        except Exception as e:  # predictor failure -> counted as error
            outcomes.append(e)
    return tally(records, outcomes)


def tally(records, outcomes) -> EvalReport:
    """
    The report of `outcomes[i]`, the candidate index chosen for
    `records[i]` or the exception that failed it. Failures count as wrong
    and are reported, never silently skipped.
    """
    correct = Counter()
    counts = Counter()
    kind_correct = Counter()
    kind_counts = Counter()
    errors = []
    for rec, chosen in zip(records, outcomes, strict=True):
        _, target = datamodel.mc_candidates(rec)
        counts[rec.category] += 1
        kind_counts[rec.kind] += 1
        if isinstance(chosen, Exception):
            errors.append((rec.qa_id, f"{type(chosen).__name__}: {chosen}"))
            continue
        if chosen == target:
            correct[rec.category] += 1
            kind_correct[rec.kind] += 1
    total = sum(counts.values())
    per_category = {c: correct[c] / counts[c] for c in counts}
    def _rate(kind):
        return kind_correct[kind] / kind_counts[kind] if kind_counts[kind] \
            else 0.0
    return EvalReport(
        per_category=per_category, counts=dict(counts),
        telling=_rate("telling"), pointing=_rate("pointing"),
        overall=(sum(correct.values()) / total) if total else 0.0,
        total=total, errors=errors)


@dataclass
class HeatMap:
    grid: np.ndarray  # (side, side)
    image_width: int = 0
    image_height: int = 0

    @property
    def side(self) -> int:
        return self.grid.shape[0]

    def peak_cell(self):
        """(row, col) of the max weight; ties to lowest row-major index."""
        flat = int(self.grid.argmax())
        return divmod(flat, self.grid.shape[1])

    def cell_center(self, row, col):
        """Image-plane center point of a grid cell."""
        side = self.side
        return ((col + 0.5) / side * self.image_width,
                (row + 0.5) / side * self.image_height)


def attention_heatmap(trace, image_width=0, image_height=0) -> HeatMap:
    """Max-pool the attention trace over time onto the square grid."""
    if not trace:
        raise ValueError("empty attention trace")
    stacked = np.stack(trace)
    pooled = stacked.max(axis=0)
    side = int(round(np.sqrt(pooled.size)))
    if side * side != pooled.size:
        raise ValueError(f"trace length {pooled.size} is not a square grid")
    return HeatMap(grid=pooled.reshape(side, side),
                   image_width=image_width, image_height=image_height)


def _point_in_box(px, py, box) -> bool:
    return box.x <= px <= box.x + box.w and box.y <= py <= box.y + box.h


def peak_in_box_rate(entries):
    """
    Fraction of records whose heat-map peak cell center lies inside any of
    that record's boxes. Entries are (HeatMap, list of BoundingBox); the map
    must carry its image dims. Also reports the mean box-area fraction.
    """
    hits = 0
    area_fracs = []
    for heatmap, boxes in entries:
        row, col = heatmap.peak_cell()
        px, py = heatmap.cell_center(row, col)
        if any(_point_in_box(px, py, b) for b in boxes):
            hits += 1
        image_area = heatmap.image_width * heatmap.image_height
        for b in boxes:
            area_fracs.append(b.area / image_area)
    rate = hits / len(entries) if entries else 0.0
    mean_area = float(np.mean(area_fracs)) if area_fracs else 0.0
    return rate, mean_area


def accuracy_by_frequency_bin(outcomes, bins) -> dict:
    """
    Mean accuracy per frequency bin. Outcomes are (category, correct) pairs;
    bins map upper-bound -> set of categories. Empty bins are absent.
    """
    cat_bin = {}
    for ub, cats in bins.items():
        for c in cats:
            cat_bin[c] = ub
    totals = Counter()
    correct = Counter()
    for category, ok in outcomes:
        ub = cat_bin.get(category)
        if ub is None:
            continue
        totals[ub] += 1
        correct[ub] += int(ok)
    return {ub: correct[ub] / totals[ub] for ub in totals}


_BLUR_KERNEL = np.outer([1, 2, 1], [1, 2, 1]) / 16.0


def _blur_clamped(grid: np.ndarray) -> np.ndarray:
    padded = np.pad(grid, 1, mode="edge")
    out = np.zeros_like(grid)
    for di in range(3):
        for dj in range(3):
            out += _BLUR_KERNEL[di, dj] * padded[
                di:di + grid.shape[0], dj:dj + grid.shape[1]]
    return out


def export_heatmap_image(heatmap: HeatMap, path, blur: bool = False,
                         scale: int = 16) -> None:
    """
    Write a binary portable graymap, min-max normalized to 0..255 (a
    constant grid maps to all zeros). Blur applies a clamped 3x3 binomial
    kernel before normalization; quantitative analyses always use the raw
    grid, never this output.
    """
    grid = heatmap.grid.astype(np.float64)
    if blur:
        grid = _blur_clamped(grid)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        pixels = np.round((grid - lo) / (hi - lo) * 255).astype(np.uint8)
    else:
        pixels = np.zeros_like(grid, dtype=np.uint8)
    if scale > 1:
        pixels = np.repeat(np.repeat(pixels, scale, axis=0), scale, axis=1)
    with open(path, "wb") as f:
        f.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n"
                .encode("ascii"))
        f.write(pixels.tobytes())
