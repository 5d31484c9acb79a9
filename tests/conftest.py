import numpy as np
import pytest

from groundedqa import datamodel, featurestore, qamodel, synthdata
from groundedqa.datamodel import (END_ANSWER, UNK, BoundingBox, ObjectGrounding,
                                  QARecord, Vocabulary)

MICRO_DIMS = dict(global_dim=12, conv_cells=4, conv_channels=6)


@pytest.fixture(scope="session")
def micro_world():
    """Small planted corpus + packs + vocab + freshly initialized params."""
    corpus, packs = synthdata.synth_corpus(8, 8, seed=5, **MICRO_DIMS)
    vocab = datamodel.build_vocab(corpus.records)
    cfg = qamodel.ModelConfig.micro(vocab.size)
    params = qamodel.init_params(cfg, seed=1)
    return corpus, packs, vocab, cfg, params


def vocab20():
    """Exactly 20 tokens, covering the tiny QA fixtures below."""
    tokens = [UNK, END_ANSWER, "what", "color", "is", "it", "?",
              "red", "green", "blue", "yellow", "which", "one"]
    tokens += [f"pad{i}" for i in range(20 - len(tokens))]
    return Vocabulary.from_tokens(tokens)


def tiny_telling_record():
    return QARecord(qa_id="tt0", image_id="im_t", kind="telling",
                    category="what", question="what color is it ?",
                    answer="red", distractors=["green", "blue", "yellow"])


def tiny_repeat_record():
    """A telling record that repeats tokens within and across its texts."""
    return QARecord(qa_id="tt1", image_id="im_t", kind="telling",
                    category="what", question="what color is it ? is it red ?",
                    answer="red red", distractors=["green", "blue", "yellow"])


def tiny_pointing_record():
    box = BoundingBox(10, 10, 50, 50)
    groundings = [ObjectGrounding(f"g{k}", "thing", box) for k in range(4)]
    return QARecord(qa_id="tp0", image_id="im_p", kind="pointing",
                    category="which", question="which one ?",
                    answer="g0", distractors=["g1", "g2", "g3"],
                    groundings=groundings)


def tiny_packs(dims=MICRO_DIMS):
    pack_t = featurestore.synth_feature_pack("im_t", seed=2, planted_signal=0,
                                             **dims)
    pack_p = featurestore.synth_feature_pack(
        "im_p", seed=2, planted_signal=0, region_ids=[f"g{k}" for k in range(4)],
        correct_region="g0", **dims)
    return {"im_t": pack_t, "im_p": pack_p}


def random_micro_pack(rng, image_id="im", n_regions=0):
    pack = featurestore.FeaturePack(
        image_id=image_id,
        global_feature=rng.normal(size=MICRO_DIMS["global_dim"]),
        conv_map=rng.normal(size=(MICRO_DIMS["conv_cells"],
                                  MICRO_DIMS["conv_channels"])),
        region_features={f"g{k}": rng.normal(size=MICRO_DIMS["global_dim"])
                         for k in range(n_regions)})
    return pack
