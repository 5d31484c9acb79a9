import numpy as np
import pytest

from groundedqa import datamodel
from groundedqa.baselines import (EMBED_DIM, LogRegConfig,
                                  WordEmbeddingTable,
                                  fallback_embedding_table, kmeans_fit,
                                  load_embedding_table, logreg_predict,
                                  logreg_train, question_feature)
from groundedqa.datamodel import QARecord
from groundedqa.featurestore import FeaturePack
from groundedqa.numkit import NumericsError


def _table(vectors):
    return WordEmbeddingTable(vectors=vectors, source="file")


class TestQuestionFeature:
    def test_all_unknown(self):
        assert np.all(question_feature(["foo", "bar"], _table({})) == 0.0)

    def test_single_known_token(self):
        v = np.arange(EMBED_DIM, dtype=float)
        out = question_feature(["cat"], _table({"cat": v}))
        assert np.array_equal(out, v)

    def test_mean_of_two(self):
        va = np.full(EMBED_DIM, 2.0)
        vb = np.full(EMBED_DIM, 4.0)
        out = question_feature(["a", "b"], _table({"a": va, "b": vb}))
        assert np.allclose(out, 3.0)

    def test_empty(self):
        assert np.all(question_feature([], _table({})) == 0.0)

    def test_fallback_deterministic(self):
        t1 = fallback_embedding_table(seed=5)
        t2 = fallback_embedding_table(seed=5)
        assert np.array_equal(t1.lookup("zebra"), t2.lookup("zebra"))
        assert not np.array_equal(t1.lookup("zebra"), t1.lookup("horse"))


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vecs = {"cat": rng.normal(size=EMBED_DIM),
                "dog": rng.normal(size=EMBED_DIM)}
        path = tmp_path / "emb.txt"
        with open(path, "w") as f:
            for tok, v in vecs.items():
                f.write(tok + " " + " ".join(f"{x:.17g}" for x in v) + "\n")
        table = load_embedding_table(path)
        for tok in vecs:
            assert np.allclose(table.lookup(tok), vecs[tok])

    def test_bad_width_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\n")
        with pytest.raises(ValueError, match="200"):
            load_embedding_table(path)


class TestKMeans:
    def test_each_point_its_own_centroid(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        model = kmeans_fit(pts, k=4, seed=0)
        d = ((pts[:, None] - model.centroids[None]) ** 2).sum(-1)
        assert d.min(axis=1).sum() == 0.0

    def test_k1_is_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 3))
        model = kmeans_fit(pts, k=1, seed=0)
        assert np.max(np.abs(model.centroids[0] - pts.mean(axis=0))) < 1e-12

    def test_two_visible_groups(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5],
                        [10.0, 10.0], [10.0, 11.0], [11.0, 10.5]])
        model = kmeans_fit(pts, k=2, iterations=20, seed=3)
        expected = {(1.0 / 3.0, 0.5), (31.0 / 3.0, 10.5)}
        got = {tuple(np.round(c, 9)) for c in model.centroids}
        assert got == {tuple(np.round(e, 9)) for e in expected}

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 4))
        a = kmeans_fit(pts, 5, seed=7)
        b = kmeans_fit(pts, 5, seed=7)
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_non_increasing_on_random_instances(self):
        # the fit itself checks per-round monotonicity
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(8, 40), 3))
            kmeans_fit(pts, int(rng.integers(1, 6)), iterations=15,
                       seed=int(rng.integers(100)))

    def test_nan_inertia_is_numerics_error(self):
        pts = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]])
        with pytest.raises(NumericsError, match="inertia"):
            kmeans_fit(pts, k=2, seed=0)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((3, 2)), k=4)


def _micro_pack(image_id, global_feature, regions=None):
    return FeaturePack(image_id=image_id,
                       global_feature=np.asarray(global_feature, float),
                       conv_map=np.zeros((4, 6)),
                       region_features=regions or {})


def _telling_record(qa_id, image_id, answer, question="what is it ?"):
    others = [w for w in ("alpha", "beta", "gamma", "delta") if w != answer][:3]
    return QARecord(qa_id=qa_id, image_id=image_id, kind="telling",
                    category="what", question=question, answer=answer,
                    distractors=others)


class TestLogRegTelling:
    def _toy(self, n=16):
        # class "alpha" iff first feature coordinate positive; separable
        records, packs = [], {}
        for i in range(n):
            answer = "alpha" if i % 2 == 0 else "beta"
            g = np.zeros(8)
            g[0] = 3.0 if answer == "alpha" else -3.0
            image_id = f"im{i}"
            records.append(_telling_record(f"q{i}", image_id, answer))
            packs[image_id] = _micro_pack(image_id, g)
        return records, packs

    def test_zero_lr_keeps_zero_weights(self):
        records, packs = self._toy()
        table = _table({})
        model = logreg_train(records, packs, table, "telling",
                             LogRegConfig(epochs=5, learning_rate=0.0))
        assert np.all(model.weights == 0.0) and np.all(model.biases == 0.0)

    def test_separable_reaches_full_accuracy(self):
        records, packs = self._toy()
        table = _table({})
        model = logreg_train(records, packs, table, "telling",
                             LogRegConfig(epochs=200, learning_rate=0.05))
        correct = 0
        for rec in records:
            cands, target = datamodel.mc_candidates(rec)
            correct += logreg_predict(rec, packs[rec.image_id], model,
                                      table) == target
        assert correct == len(records)

    def test_question_ablation_equals_zeroed_image_slice(self):
        records, packs = self._toy()
        table = fallback_embedding_table(seed=1)
        zeroed = {i: _micro_pack(i, np.zeros(8)) for i in packs}
        cfg_q = LogRegConfig(epochs=30, learning_rate=0.05,
                             variant="question")
        cfg_full = LogRegConfig(epochs=30, learning_rate=0.05)
        m1 = logreg_train(records, packs, table, "telling", cfg_q)
        m2 = logreg_train(records, zeroed, table, "telling", cfg_full)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_all_candidates_out_of_label_set(self):
        records, packs = self._toy()
        table = _table({})
        model = logreg_train(records, packs, table, "telling",
                             LogRegConfig(epochs=1, learning_rate=0.01))
        rec = QARecord(qa_id="zz", image_id="im0", kind="telling",
                       category="what", question="what is it ?",
                       answer="nope", distractors=["nah", "never", "no"])
        assert logreg_predict(rec, packs["im0"], model, table) == 0

    def test_softmax_scores_sum_to_one(self):
        records, packs = self._toy()
        table = _table({})
        model = logreg_train(records, packs, table, "telling",
                             LogRegConfig(epochs=10, learning_rate=0.05))
        for rec in records[:4]:
            feature = np.concatenate(
                [packs[rec.image_id].global_feature, np.zeros(EMBED_DIM)])
            assert abs(model.scores(feature).sum() - 1.0) < 1e-12


class TestLogRegPointing:
    def _toy(self, n=12):
        rng = np.random.default_rng(0)
        records, packs = [], {}
        for i in range(n):
            image_id = f"im{i}"
            slot = i % 2
            regions = {}
            for k in range(4):
                f = 0.1 * rng.normal(size=8)
                if k == slot:
                    # correct regions form two well-separated clusters
                    f[0] += 10.0 if slot == 0 else -10.0
                regions[f"im{i}_g{k}"] = f
            answer = f"im{i}_g{slot}"
            records.append(QARecord(
                qa_id=f"p{i}", image_id=image_id, kind="pointing",
                category="which", question="which one ?", answer=answer,
                distractors=[r for r in regions if r != answer],
                groundings=[]))
            g = np.zeros(8)
            g[0] = 3.0 if slot == 0 else -3.0
            packs[image_id] = _micro_pack(image_id, g, regions=regions)
        return records, packs

    def test_candidate_at_centroid_wins(self):
        records, packs = self._toy()
        table = _table({})
        model = logreg_train(records, packs, table, "pointing",
                             LogRegConfig(epochs=50, learning_rate=0.05,
                                          n_clusters=2))
        # force the predicted cluster and plant a candidate on its centroid
        rec = records[0]
        pack = packs[rec.image_id]
        centroid = model.kmeans.centroids[0]
        cands, _ = datamodel.mc_candidates(rec)
        pack.region_features[cands[2]] = centroid.copy()
        probs = np.zeros(model.kmeans.k)
        model_weights = model.weights
        try:
            model.weights = np.zeros_like(model.weights)
            model.biases = np.zeros_like(model.biases)
            model.biases[0] = 10.0  # predicted cluster 0
            assert logreg_predict(rec, pack, model, table) == 2
        finally:
            model.weights = model_weights

    def test_two_cluster_hand_distances(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        from groundedqa.baselines import KMeansModel, LogRegModel
        model = LogRegModel(weights=np.zeros((2, 2 + EMBED_DIM)),
                            biases=np.array([0.0, 5.0]),  # cluster 1 wins
                            class_labels=[0, 1], task="pointing",
                            variant="question+image", image_dim=2,
                            kmeans=KMeansModel(centroids=centroids))
        regions = {"g0": np.array([1.0, 1.0]), "g1": np.array([8.0, 9.0]),
                   "g2": np.array([20.0, 20.0]), "g3": np.array([0.0, 5.0])}
        rec = QARecord(qa_id="hp", image_id="im", kind="pointing",
                       category="which", question="which one ?",
                       answer="g0", distractors=["g1", "g2", "g3"],
                       groundings=[])
        pack = _micro_pack("im", np.zeros(2), regions=regions)
        cands, _ = datamodel.mc_candidates(rec)
        # hand distances to centroid (10, 10)
        dists = [((regions[c][:2] - centroids[1]) ** 2).sum() for c in cands]
        expected = int(np.argmin(dists))
        assert logreg_predict(rec, pack, model, _table({})) == expected
