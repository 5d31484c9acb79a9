"""
Grounded-QA corpus model: records, boxes, tokenization, vocabulary,
deterministic splits, and corpus statistics.

Corpus files are JSON with top-level arrays `images` and `qa_pairs`;
boxes are serialized as [x, y, w, h] integers.
"""

import json
import math
import random
import re
import zlib
from collections import Counter
from dataclasses import dataclass, field

CATEGORIES = ("what", "where", "when", "who", "why", "how", "which")
TELLING_CATEGORIES = ("what", "where", "when", "who", "why", "how")

UNK = "<unk>"
END_ANSWER = "<end>"

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


class CorpusError(ValueError):
    """Malformed or invariant-violating corpus data."""


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise CorpusError(f"degenerate box w={self.w} h={self.h}")
        if self.x < 0 or self.y < 0:
            raise CorpusError(f"box origin out of image: ({self.x}, {self.y})")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class ObjectGrounding:
    grounding_id: str
    name: str
    box: BoundingBox

    def __post_init__(self):
        if not self.name:
            raise CorpusError(f"grounding {self.grounding_id} has empty name")


@dataclass
class QARecord:
    qa_id: str
    image_id: str
    kind: str  # "telling" | "pointing"
    category: str
    question: str
    answer: str  # text (telling) or grounding_id (pointing)
    distractors: list  # 3 texts or 3 grounding_ids
    groundings: list = field(default_factory=list)

    def validate(self):
        if self.kind not in ("telling", "pointing"):
            raise CorpusError(f"{self.qa_id}: unknown kind {self.kind!r}")
        if self.category not in CATEGORIES:
            raise CorpusError(f"{self.qa_id}: unknown category {self.category!r}")
        if (self.kind == "pointing") != (self.category == "which"):
            raise CorpusError(
                f"{self.qa_id}: kind {self.kind} inconsistent with "
                f"category {self.category}")
        if not self.question.endswith("?"):
            raise CorpusError(f"{self.qa_id}: question must end with '?'")
        cands = [self.answer] + list(self.distractors)
        if len(self.distractors) != 3 or len(set(cands)) != 4:
            raise CorpusError(f"{self.qa_id}: need exactly 4 distinct candidates")
        if self.kind == "telling" and not all(map(tokenize, cands)):
            raise CorpusError(f"{self.qa_id}: a telling candidate has no word")
        ids = Counter(g.grounding_id for g in self.groundings)
        repeated = [i for i, n in ids.items() if n > 1]
        if repeated:
            raise CorpusError(
                f"{self.qa_id}: duplicate grounding id {repeated[0]!r}")
        if self.kind == "pointing":
            missing = [c for c in cands if c not in ids]
            if missing:
                raise CorpusError(
                    f"{self.qa_id}: pointing candidates {missing} do not "
                    f"resolve to groundings")


def check_file_name(name: str, what: str) -> None:
    """Raise unless `name` is a plain file name: no directory, no `..`."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise CorpusError(f"{what} {name!r} is not a plain file name")


@dataclass
class Corpus:
    images: list  # (image_id, width, height)
    records: list

    def validate(self):
        image_ids = set()
        for image_id, w, h in self.images:
            if w <= 0 or h <= 0:
                raise CorpusError(f"image {image_id}: bad dims {w}x{h}")
            if image_id in image_ids:
                raise CorpusError(f"duplicate image_id {image_id}")
            image_ids.add(image_id)
        seen = set()
        for rec in self.records:
            rec.validate()
            check_file_name(rec.qa_id, "qa_id")  # heatmap names files by it
            if rec.qa_id in seen:
                raise CorpusError(f"duplicate qa_id {rec.qa_id}")
            seen.add(rec.qa_id)
            if rec.image_id not in image_ids:
                raise CorpusError(f"{rec.qa_id}: unknown image {rec.image_id}")


_JSON_TYPES = {"string": (str,), "number": (int, float), "array": (list,),
               "object": (dict,)}


def _typed(value, kind, what, key):
    """`value`, or CorpusError naming `what` and its field `key` unless it
    has the JSON type `kind`, a key of _JSON_TYPES; a number must be finite
    (Python's json reads NaN and Infinity)."""
    if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])
            or isinstance(value, float) and not math.isfinite(value)):
        raise CorpusError(f"{what}: {key} must be a JSON {kind}, "
                          f"got {value!r}")
    return value


def _field(entry, key, kind, what):
    """`_typed(entry[key], ...)`, or CorpusError naming `what`, the entry,
    when it has no `key`."""
    if key not in entry:
        raise CorpusError(f"{what}: missing field {key!r}")
    return _typed(entry[key], kind, what, key)


def _named(entry, key, noun):
    """The suffix that names an entry by its id `entry[key]`, or "" if it
    has none."""
    return f", {noun} {entry[key]!r}" if key in entry else ""


def _box(grounding, what) -> BoundingBox:
    """The box of a grounding, a JSON array of exactly 4 numbers."""
    box = _field(grounding, "box", "array", what)
    if len(box) != 4:
        raise CorpusError(f"{what}: box must hold 4 numbers, got {box!r}")
    numbers = [_typed(v, "number", what, "box") for v in box]
    try:
        return BoundingBox(*numbers)
    except CorpusError as e:
        raise CorpusError(f"{what}: {e}") from e


def parse_corpus(path) -> Corpus:
    """Load and fully validate a corpus JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{path}: not valid JSON: {e}") from e
    _typed(doc, "object", path, "top level")
    images = []
    for i, im in enumerate(_field(doc, "images", "array", path)):
        _typed(im, "object", path, f"images[{i}]")
        what = f"{path}: images[{i}]" + _named(im, "image_id", "image")
        images.append((_field(im, "image_id", "string", what),
                       _field(im, "width", "number", what),
                       _field(im, "height", "number", what)))
    records = []
    for i, raw in enumerate(_field(doc, "qa_pairs", "array", path)):
        _typed(raw, "object", path, f"qa_pairs[{i}]")
        name = _named(raw, "qa_id", "record")
        what = f"{path}: qa_pairs[{i}]{name}"
        text = {key: _field(raw, key, "string", what)
                for key in ("qa_id", "image_id", "kind", "category",
                            "question", "answer")}
        distractors = [_typed(d, "string", what, "distractors")
                       for d in _field(raw, "distractors", "array", what)]
        groundings = []
        for j, g in enumerate(_typed(raw.get("groundings", []), "array",
                                     what, "groundings")):
            _typed(g, "object", what, f"groundings[{j}]")
            at = f"{path}: qa_pairs[{i}].groundings[{j}]{name}"
            groundings.append(ObjectGrounding(
                grounding_id=_field(g, "grounding_id", "string", at),
                name=_field(g, "name", "string", at),
                box=_box(g, at)))
        records.append(QARecord(**text, distractors=distractors,
                                groundings=groundings))
    corpus = Corpus(images=images, records=records)
    corpus.validate()
    return corpus


def write_corpus(corpus: Corpus, path) -> None:
    doc = {
        "images": [{"image_id": i, "width": w, "height": h}
                   for i, w, h in corpus.images],
        "qa_pairs": [{
            "qa_id": r.qa_id, "image_id": r.image_id, "kind": r.kind,
            "category": r.category, "question": r.question,
            "answer": r.answer, "distractors": r.distractors,
            "groundings": [{
                "grounding_id": g.grounding_id, "name": g.name,
                "box": [g.box.x, g.box.y, g.box.w, g.box.h],
            } for g in r.groundings],
        } for r in corpus.records],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def dedup_groundings(groundings: list) -> list:
    """
    Greedy pass in input order: drop a grounding iff an earlier kept one has
    the same name and IoU strictly above 0.5.
    """
    kept = []
    for g in groundings:
        dup = any(k.name == g.name and iou(k.box, g.box) > 0.5 for k in kept)
        if not dup:
            kept.append(g)
    return kept


@dataclass
class SplitAssignment:
    assignment: dict  # qa_id -> "train" | "val" | "test"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_splits(corpus: Corpus, seed: int) -> SplitAssignment:
    """50/20/30 split, shuffled by random.Random(seed), half-up rounding."""
    if not corpus.records:
        raise CorpusError("cannot split an empty corpus")
    qa_ids = [r.qa_id for r in corpus.records]
    random.Random(seed).shuffle(qa_ids)
    n = len(qa_ids)
    n_train = _round_half_up(0.5 * n)
    n_val = _round_half_up(0.2 * n)
    assignment = {}
    for i, qa_id in enumerate(qa_ids):
        if i < n_train:
            assignment[qa_id] = "train"
        elif i < n_train + n_val:
            assignment[qa_id] = "val"
        else:
            assignment[qa_id] = "test"
    return SplitAssignment(assignment=assignment)


def write_splits(splits: SplitAssignment, path, header_lines=()) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        for qa_id in sorted(splits.assignment):
            f.write(f"{qa_id}\t{splits.assignment[qa_id]}\n")


def read_splits(path) -> SplitAssignment:
    assignment = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields, at = line.split("\t"), f"{path}:{lineno}"
            if len(fields) != 2:
                raise CorpusError(
                    f"{at}: expected qa_id<TAB>split, got {line!r}")
            qa_id, split = fields
            if split not in ("train", "val", "test"):
                raise CorpusError(
                    f"{at}: bad split label {split!r} for {qa_id}")
            if qa_id in assignment:
                raise CorpusError(f"{at}: duplicate qa_id {qa_id}")
            assignment[qa_id] = split
    return SplitAssignment(assignment=assignment)


def tokenize(text: str) -> list:
    """Lowercase, split on whitespace, punctuation as separate tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_index: dict
    index_to_token: list

    @classmethod
    def from_tokens(cls, tokens: list) -> "Vocabulary":
        return cls({t: i for i, t in enumerate(tokens)}, tokens)

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    @property
    def unk_index(self) -> int:
        return self.token_to_index[UNK]

    def encode(self, tokens) -> list:
        unk = self.unk_index
        return [self.token_to_index.get(t, unk) for t in tokens]


def build_vocab(records) -> Vocabulary:
    """
    Vocabulary of every token of the training questions and telling
    answers, ordered by (frequency desc, token asc) after the reserved UNK
    and END_ANSWER slots.
    """
    counts = Counter()
    for rec in records:
        counts.update(tokenize(rec.question))
        if rec.kind == "telling":
            counts.update(tokenize(rec.answer))
    tokens = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary.from_tokens([UNK, END_ANSWER] + tokens)


@dataclass
class CorpusStats:
    avg_q_len: float
    sd_q_len: float
    avg_a_len: float
    sd_a_len: float
    long_answer_frac: float  # telling answers with > 2 tokens
    top_1000_coverage: float
    answer_len_hist: dict  # word count 1/2/3 -> fraction of telling answers
    n_telling: int
    n_pointing: int


def _mean_sd(values):
    if not values:
        return 0.0, 0.0
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Question/answer length statistics and top-1000-answer coverage."""
    q_lens = [len(tokenize(r.question)) for r in corpus.records]
    telling = [r for r in corpus.records if r.kind == "telling"]
    a_lens = [len(tokenize(r.answer)) for r in telling]
    avg_q, sd_q = _mean_sd(q_lens)
    avg_a, sd_a = _mean_sd(a_lens)
    n_t = len(telling)
    long_frac = (sum(1 for n in a_lens if n > 2) / n_t) if n_t else 0.0
    counts = sorted(Counter(r.answer for r in telling).values())
    coverage = sum(counts[-1000:]) / n_t if n_t else 0.0
    hist = {k: (sum(1 for n in a_lens if n == k) / n_t if n_t else 0.0)
            for k in (1, 2, 3)}
    return CorpusStats(
        avg_q_len=avg_q, sd_q_len=sd_q, avg_a_len=avg_a, sd_a_len=sd_a,
        long_answer_frac=long_frac, top_1000_coverage=coverage,
        answer_len_hist=hist, n_telling=n_t,
        n_pointing=len(corpus.records) - n_t)


def object_frequency_bins(records) -> dict:
    """
    Bin grounded object categories by their frequency in `records` into
    power-of-two bins: frequency f with 2^b <= f < 2^(b+1) lands in the bin
    keyed by its upper bound 2^(b+1).
    """
    counts = Counter()
    for rec in records:
        counts.update(g.name for g in rec.groundings)
    bins = {}
    for name, f in counts.items():
        b = int(math.floor(math.log2(f)))
        bins.setdefault(2 ** (b + 1), set()).add(name)
    return bins


def mc_candidates(record: QARecord):
    """
    The record's 4 candidates in a deterministic per-record presentation
    order (permutation seeded by crc32 of qa_id), plus the correct index.
    Keeps correct indices ~uniform across a corpus while staying reproducible.
    """
    cands = [record.answer] + list(record.distractors)
    rng = random.Random(zlib.crc32(record.qa_id.encode("utf-8")))
    order = list(range(4))
    rng.shuffle(order)
    shuffled = [cands[i] for i in order]
    return shuffled, order.index(0)
