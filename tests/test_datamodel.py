import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from groundedqa import datamodel
from groundedqa.datamodel import (END_ANSWER, UNK, BoundingBox, Corpus,
                                  CorpusError, ObjectGrounding, QARecord,
                                  build_vocab, corpus_stats, dedup_groundings,
                                  iou, make_splits, mc_candidates,
                                  object_frequency_bins, parse_corpus,
                                  read_splits, tokenize, write_corpus,
                                  write_splits)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "corpus6.json")


def _box(x, y, w, h):
    return BoundingBox(x, y, w, h)


def _telling(qa_id="t0", image_id="im", answer="cat sat",
             question="what is it ?", category="what"):
    return QARecord(qa_id=qa_id, image_id=image_id, kind="telling",
                    category=category, question=question, answer=answer,
                    distractors=["dog", "bird", "fish"])


class TestTokenize:
    def test_simple_question(self):
        assert tokenize("What is this?") == ["what", "is", "this", "?"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("red, white bus?") == ["red", ",", "white", "bus", "?"]

    def test_idempotent_on_rejoin(self):
        for text in ["What is this?", "red, white bus?", "a b's c!"]:
            toks = tokenize(text)
            assert tokenize(" ".join(toks)) == toks


class TestIoU:
    def test_identical(self):
        b = _box(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(_box(0, 0, 10, 10), _box(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        val = iou(_box(0, 0, 10, 10), _box(5, 0, 10, 10))
        assert abs(val - 50.0 / 150.0) < 1e-12

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = _box(*rng.uniform(0, 50, 2), *rng.uniform(1, 60, 2))
            b = _box(*rng.uniform(0, 50, 2), *rng.uniform(1, 60, 2))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0


class TestDedup:
    def test_drops_same_name_high_iou(self):
        # iou = 60*100 / (100*100 + 100*100 - 60*100) = 6000/14000... use
        # boxes with iou 0.6: (0,0,10,10) vs (0,0,10,7.5) -> inter 75,
        # union 100+75-75 = 100 -> not 0.6. Use nested: (0,0,10,10) and
        # (0,0,10,6): inter 60, union 100 -> 0.6.
        g1 = ObjectGrounding("a", "cat", _box(0, 0, 10, 10))
        g2 = ObjectGrounding("b", "cat", _box(0, 0, 10, 6))
        assert abs(iou(g1.box, g2.box) - 0.6) < 1e-12
        assert dedup_groundings([g1, g2]) == [g1]

    def test_keeps_different_names(self):
        g1 = ObjectGrounding("a", "cat", _box(0, 0, 10, 10))
        g2 = ObjectGrounding("b", "dog", _box(0, 0, 10, 10))
        assert dedup_groundings([g1, g2]) == [g1, g2]

    def test_boundary_exact_half_kept(self):
        # nested boxes: inter 50, union 100 -> exactly 0.5
        g1 = ObjectGrounding("a", "cat", _box(0, 0, 10, 10))
        g2 = ObjectGrounding("b", "cat", _box(0, 0, 10, 5))
        assert iou(g1.box, g2.box) == 0.5
        assert dedup_groundings([g1, g2]) == [g1, g2]

    def test_no_surviving_duplicates_brute_force(self):
        rng = np.random.default_rng(5)
        names = ["cat", "dog", "sky"]
        for _ in range(100):
            gs = [ObjectGrounding(str(i), names[rng.integers(3)],
                                  _box(*rng.uniform(0, 20, 2),
                                       *rng.uniform(5, 30, 2)))
                  for i in range(rng.integers(2, 12))]
            kept = dedup_groundings(gs)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    if kept[i].name == kept[j].name:
                        assert iou(kept[i].box, kept[j].box) <= 0.5


def _corpus_of(n):
    images = [(f"im{i}", 100, 100) for i in range(n)]
    records = [_telling(qa_id=f"t{i}", image_id=f"im{i}") for i in range(n)]
    return Corpus(images=images, records=records)


def _split_sizes(splits):
    counts = Counter(splits.assignment.values())
    return counts["train"], counts["val"], counts["test"]


class TestSplits:
    def test_sizes_10(self):
        assert _split_sizes(make_splits(_corpus_of(10), seed=0)) == (5, 2, 3)

    def test_sizes_7(self):
        assert _split_sizes(make_splits(_corpus_of(7), seed=1)) == (4, 1, 2)

    def test_deterministic(self):
        c = _corpus_of(23)
        assert make_splits(c, 9).assignment == make_splits(c, 9).assignment
        assert make_splits(c, 9).assignment != make_splits(c, 10).assignment

    def test_partition(self):
        c = _corpus_of(37)
        s = make_splits(c, 3)
        all_ids = {r.qa_id for r in c.records}
        assert set(s.assignment) == all_ids  # one label per id: disjoint
        assert set(s.assignment.values()) == {"train", "val", "test"}

    def test_file_round_trip(self, tmp_path):
        s = make_splits(_corpus_of(11), 4)
        path = tmp_path / "splits.tsv"
        write_splits(s, path)
        assert read_splits(path).assignment == s.assignment

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("t0\ttrain\nt1\tval\nt0\ttest\n")
        with pytest.raises(CorpusError) as err:
            read_splits(path)
        assert str(err.value) == f"{path}:3: duplicate qa_id t0"

    def test_bad_label_names_its_line(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("# header\nt0\ttrain\nt1\tdev\n")
        with pytest.raises(CorpusError) as err:
            read_splits(path)
        assert str(err.value) == f"{path}:3: bad split label 'dev' for t1"

    @pytest.mark.parametrize("line", ["t1 val", "t1\tval\tx"])
    def test_line_without_exactly_one_tab_rejected(self, tmp_path, line):
        path = tmp_path / "splits.tsv"
        path.write_text(f"# header\nt0\ttrain\n{line}\n")
        with pytest.raises(CorpusError) as err:
            read_splits(path)
        assert str(err.value) == (f"{path}:3: expected qa_id<TAB>split, "
                                  f"got {line!r}")


class TestVocabulary:
    def test_empty_training_set(self):
        v = build_vocab([])
        assert v.index_to_token == [UNK, END_ANSWER]

    def test_keeps_every_token(self):
        recs = [_telling()]
        v = build_vocab(recs)
        for tok in tokenize(recs[0].question) + tokenize(recs[0].answer):
            assert tok in v.token_to_index
        assert "dog" not in v.token_to_index
        assert v.encode(["dog"]) == [v.unk_index]

    def test_round_trip(self):
        v = build_vocab([_telling()])
        for tok, idx in v.token_to_index.items():
            assert v.index_to_token[idx] == tok


class TestCorpusStats:
    def test_single_record(self):
        c = Corpus(images=[("im", 10, 10)],
                   records=[_telling(question="what is it ?", answer="cat")])
        st = corpus_stats(c)
        assert (st.avg_q_len, st.sd_q_len) == (4.0, 0.0)
        assert (st.avg_a_len, st.sd_a_len) == (1.0, 0.0)
        assert st.long_answer_frac == 0.0

    def test_three_record_hand_computation(self):
        # q lengths 4, 6, 5; a lengths 1, 2, 3
        recs = [
            _telling(qa_id="a", question="what is it ?", answer="cat"),
            _telling(qa_id="b", question="where is the red ball ?",
                     answer="on mars", category="where"),
            _telling(qa_id="c", question="who is standing there ?",
                     answer="the tall man", category="who"),
        ]
        c = Corpus(images=[("im", 10, 10)], records=recs)
        st = corpus_stats(c)
        assert abs(st.avg_q_len - 5.0) < 1e-12
        assert abs(st.sd_q_len - math.sqrt(2.0 / 3.0)) < 1e-12
        assert abs(st.avg_a_len - 2.0) < 1e-12
        assert abs(st.sd_a_len - math.sqrt(2.0 / 3.0)) < 1e-12
        assert abs(st.long_answer_frac - 1.0 / 3.0) < 1e-12
        assert st.answer_len_hist == {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}
        assert st.top_1000_coverage == 1.0

    def test_top_1000_coverage_cuts_at_1000_answers(self):
        # 1,001 distinct answers, one of them twice: the top 1000 hold the
        # repeated one and 999 others
        recs = [_telling(qa_id=f"t{i}", answer=f"w{i}") for i in range(1001)]
        recs.append(_telling(qa_id="again", answer="w500"))
        st = corpus_stats(Corpus(images=[("im", 10, 10)], records=recs))
        assert st.top_1000_coverage == 1001 / 1002

    def test_invariant_under_duplication(self):
        base = parse_corpus(FIXTURE)
        doubled = Corpus(
            images=base.images + [(f"{i}_copy", w, h)
                                  for i, w, h in base.images],
            records=base.records + [
                QARecord(qa_id=r.qa_id + "_copy", image_id=r.image_id,
                         kind=r.kind, category=r.category,
                         question=r.question, answer=r.answer,
                         distractors=r.distractors, groundings=r.groundings)
                for r in base.records])
        a, b = corpus_stats(base), corpus_stats(doubled)
        for attr in ("avg_q_len", "sd_q_len", "avg_a_len", "sd_a_len",
                     "long_answer_frac", "top_1000_coverage"):
            assert abs(getattr(a, attr) - getattr(b, attr)) < 1e-12


class TestFrequencyBins:
    def _records_with_names(self, counts):
        gs = []
        i = 0
        for name, f in counts.items():
            for _ in range(f):
                gs.append(ObjectGrounding(f"g{i}", name, _box(0, 0, 5, 5)))
                i += 1
        rec = _telling()
        rec.groundings = gs
        return [rec]

    def test_single_occurrence(self):
        bins = object_frequency_bins(self._records_with_names({"sky": 1}))
        assert bins == {2: {"sky"}}

    def test_power_boundary(self):
        bins = object_frequency_bins(self._records_with_names({"cat": 8}))
        assert bins == {16: {"cat"}}

    def test_hand_binning(self):
        bins = object_frequency_bins(
            self._records_with_names({"cat": 3, "dog": 5, "sky": 1}))
        assert bins == {2: {"sky"}, 4: {"cat"}, 8: {"dog"}}


class TestValidate:
    @pytest.mark.parametrize("key,blank", [
        ("distractors", ["dog", " ", "fish"]), ("answer", "")])
    def test_telling_candidate_needs_a_word(self, key, blank):
        rec = _telling(qa_id="t7")
        setattr(rec, key, blank)
        with pytest.raises(CorpusError,
                           match="t7: a telling candidate has no word"):
            rec.validate()

    def test_pointing_candidates_are_region_ids(self):
        ids = ["g0", " ", "g2", "g3"]
        QARecord(qa_id="p0", image_id="im", kind="pointing",
                 category="which", question="which one ?", answer=ids[0],
                 distractors=ids[1:],
                 groundings=[ObjectGrounding(i, "mug", _box(0, 0, 5, 5))
                             for i in ids]).validate()

    def test_duplicate_grounding_id_in_pointing_record(self):
        """A candidate whose id names two boxes is ambiguous."""
        ids = ["g0", "g1", "g2", "g3"]
        groundings = [ObjectGrounding(i, "mug", _box(0, 0, 5, 5))
                      for i in ids]
        groundings.append(ObjectGrounding("g0", "cup", _box(6, 6, 2, 2)))
        rec = QARecord(qa_id="p0", image_id="im", kind="pointing",
                       category="which", question="which one ?",
                       answer=ids[0], distractors=ids[1:],
                       groundings=groundings)
        with pytest.raises(CorpusError,
                           match="p0: duplicate grounding id 'g0'"):
            rec.validate()

    def test_duplicate_grounding_id_in_telling_record(self):
        rec = _telling(qa_id="t7")
        rec.groundings = [ObjectGrounding("g1", name, _box(0, 0, 5, 5))
                          for name in ("cat", "dog")]
        with pytest.raises(CorpusError,
                           match="t7: duplicate grounding id 'g1'"):
            rec.validate()


class TestParseCorpus:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"images": [], "qa_pairs": []}))
        assert parse_corpus(path).records == []

    def test_pointing_needs_three_distractors(self, tmp_path):
        doc = {
            "images": [{"image_id": "im", "width": 10, "height": 10}],
            "qa_pairs": [{
                "qa_id": "bad1", "image_id": "im", "kind": "pointing",
                "category": "which", "question": "which one ?",
                "answer": "g0", "distractors": ["g1", "g2"],
                "groundings": [
                    {"grounding_id": f"g{k}", "name": "mug",
                     "box": [0, 0, 5, 5]} for k in range(3)],
            }],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="bad1"):
            parse_corpus(path)

    def test_duplicate_image_id_rejected(self, tmp_path):
        with open(FIXTURE) as f:
            doc = json.load(f)
        doc["images"].append(dict(doc["images"][0], width=9))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="duplicate image_id im1"):
            parse_corpus(path)

    def test_fixture_manifest(self):
        c = parse_corpus(FIXTURE)
        assert len(c.records) == 6
        assert len(c.images) == 3
        assert sum(r.kind == "telling" for r in c.records) == 4
        assert sum(r.kind == "pointing" for r in c.records) == 2
        assert {r.category for r in c.records} \
            == {"what", "where", "who", "how", "which"}

    def test_round_trip(self, tmp_path):
        c = parse_corpus(FIXTURE)
        path = tmp_path / "copy.json"
        write_corpus(c, path)
        c2 = parse_corpus(path)
        assert [r.qa_id for r in c2.records] == [r.qa_id for r in c.records]
        assert c2.records[4].groundings == c.records[4].groundings


class TestMcCandidates:
    def test_deterministic_and_complete(self):
        rec = _telling()
        cands1, idx1 = mc_candidates(rec)
        cands2, idx2 = mc_candidates(rec)
        assert cands1 == cands2 and idx1 == idx2
        assert sorted(cands1) == sorted([rec.answer] + rec.distractors)
        assert cands1[idx1] == rec.answer

    def test_orders_vary_across_records(self):
        indices = {mc_candidates(_telling(qa_id=f"t{i}"))[1]
                   for i in range(40)}
        assert indices == {0, 1, 2, 3}
