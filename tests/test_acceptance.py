"""
End-to-end acceptance criteria. Each test prints exactly one summary line
of the form "[NN] <criterion>: PASS (<evidence>)"; tolerances appear inline.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from conftest import (MICRO_DIMS, random_micro_pack, tiny_packs,
                      tiny_pointing_record, tiny_telling_record, vocab20)
from groundedqa import (baselines, cli, datamodel, evalkit, featurestore,
                        qamodel, synthdata)
from groundedqa.datamodel import BoundingBox, Corpus, ObjectGrounding, QARecord
from groundedqa.numkit import AdamState, adam_step, finite_diff_grad_check


def _line(num, name, evidence):
    print(f"[{num:>2}] {name}: PASS ({evidence})")


class TestAcceptance:

    def test_01_gradient_fidelity(self):
        # max relative error < 1e-4 for both losses, micro model, < 60 s
        t0 = time.monotonic()
        vocab = vocab20()
        cfg = qamodel.ModelConfig.micro(vocab.size)
        packs = tiny_packs()
        worst = {}
        for rec in (tiny_telling_record(), tiny_pointing_record()):
            loss_fn, grad_fn = qamodel.gradcheck_fns(
                cfg, rec, packs[rec.image_id], vocab)
            params = qamodel.init_params(cfg, seed=4)
            res = finite_diff_grad_check(loss_fn, grad_fn, params)
            worst[rec.kind] = res.max_rel_error
        elapsed = time.monotonic() - t0
        assert worst["telling"] < 1e-4
        assert worst["pointing"] < 1e-4
        assert elapsed < 60.0
        _line(1, "gradient fidelity",
              f"telling {worst['telling']:.2e}, pointing "
              f"{worst['pointing']:.2e} < 1e-4, {elapsed:.1f}s")

    def _overfit(self, kind):
        n_t, n_p = (64, 0) if kind == "telling" else (0, 64)
        corpus, packs = synthdata.synth_corpus(n_t, n_p, seed=7, **MICRO_DIMS)
        records = corpus.records
        vocab = datamodel.build_vocab(records)
        assert vocab.size <= 50
        cfg = qamodel.ModelConfig.micro(vocab.size)
        params = qamodel.init_params(cfg, seed=0)
        epochs, acc = 0, 0.0
        while epochs < 300:
            tc = qamodel.TrainConfig(epochs=25, batch_size=8,
                                     learning_rate=1e-3, seed=1000 + epochs)
            params, _ = qamodel.train(records, packs, vocab, params, cfg, tc)
            epochs += 25
            acc = qamodel.training_accuracy(records, packs, vocab, params,
                                            cfg)
            if acc >= 0.95:
                break
        return acc, epochs

    def test_02_overfit_telling(self):
        # >= 95% training accuracy within 300 epochs at lr 1e-3, < 5 min
        t0 = time.monotonic()
        acc, epochs = self._overfit("telling")
        elapsed = time.monotonic() - t0
        assert acc >= 0.95
        assert elapsed < 300.0
        _line(2, "overfit telling",
              f"{acc:.0%} at epoch {epochs} <= 300, {elapsed:.0f}s")

    def test_03_overfit_pointing(self):
        # >= 95% training accuracy within 300 epochs at lr 1e-3, < 5 min
        t0 = time.monotonic()
        acc, epochs = self._overfit("pointing")
        elapsed = time.monotonic() - t0
        assert acc >= 0.95
        assert elapsed < 300.0
        _line(3, "overfit pointing",
              f"{acc:.0%} at epoch {epochs} <= 300, {elapsed:.0f}s")

    def test_04_chance_floor(self):
        # fresh init on 1000 balanced unplanted records: 0.25 +/- 0.05
        corpus, packs = synthdata.synth_corpus(500, 500, seed=13,
                                               planted=False, **MICRO_DIMS)
        vocab = datamodel.build_vocab(corpus.records)
        cfg = qamodel.ModelConfig.micro(vocab.size)
        params = qamodel.init_params(cfg, seed=21)

        def predict(rec, pack):
            chosen, _ = qamodel.predict_mc(rec, pack, params, vocab, cfg)
            return chosen

        report = evalkit.evaluate(predict, corpus.records, packs)
        assert not report.errors
        assert 0.20 <= report.overall <= 0.30
        _line(4, "chance floor",
              f"overall {report.overall:.3f} in 0.25 +/- 0.05 on "
              f"{report.total} records")

    def test_05_uniform_attention_equivalence(self):
        # w_a = 0 learned forward == uniform forward within 1e-12;
        # uniform r_t is the exact conv-map column mean
        vocab = vocab20()
        cfg = qamodel.ModelConfig.micro(vocab.size)
        params = qamodel.init_params(cfg, seed=8)
        params["w_a"][:] = 0.0
        rng = np.random.default_rng(30)
        worst = 0.0
        for i in range(100):
            pack = random_micro_pack(rng, image_id=f"im{i}")
            tokens = list(rng.integers(0, vocab.size, size=5))
            sl = qamodel.encode(pack, tokens, params,
                                replace(cfg, mode=qamodel.LEARNED))
            su = qamodel.encode(pack, tokens, params,
                                replace(cfg, mode=qamodel.UNIFORM))
            worst = max(worst,
                        float(np.max(np.abs(sl.h - su.h))),
                        float(np.max(np.abs(sl.c - su.c))),
                        max(float(np.max(np.abs(al - au)))
                            for al, au in zip(sl.trace, su.trace)))
            conv = pack.conv_map[:, :cfg.conv_channels]
            a, r = qamodel.attention_step(sl.h, conv, params,
                                          qamodel.UNIFORM)
            assert np.array_equal(r, conv.mean(axis=0))
            assert np.all(a == 1.0 / cfg.conv_cells)
        assert worst < 1e-12
        _line(5, "uniform-attention equivalence",
              f"max forward deviation {worst:.2e} < 1e-12 over 100 inputs; "
              f"uniform r_t == column mean")

    def test_06_attention_normalization(self):
        # every recorded a_t sums to 1 +/- 1e-9 with all entries >= 0
        vocab = vocab20()
        cfg = qamodel.ModelConfig.micro(vocab.size)
        rng = np.random.default_rng(31)
        checked, worst = 0, 0.0
        for i in range(50):
            params = qamodel.init_params(cfg, seed=100 + i)
            pack = random_micro_pack(rng, image_id=f"im{i}")
            tokens = list(rng.integers(0, vocab.size, size=6))
            for mode in (qamodel.LEARNED, qamodel.UNIFORM):
                state = qamodel.encode(pack, tokens, params,
                                       replace(cfg, mode=mode))
                for a in state.trace:
                    assert np.all(a >= 0.0)
                    worst = max(worst, abs(float(a.sum()) - 1.0))
                    checked += 1
        assert worst < 1e-9
        _line(6, "attention normalization",
              f"{checked} weight vectors, max |sum-1| {worst:.2e} < 1e-9, "
              f"all entries >= 0")

    def test_07_adam_oracle(self):
        # 10 steps on f(x)=x^2 from x=1 match a scalar oracle within 1e-12
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        p = np.array([1.0])
        st = AdamState.for_param(p, learning_rate=lr)
        worst = 0.0
        for t in range(1, 11):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1 ** t)) / (
                math.sqrt(v / (1 - b2 ** t)) + eps)
            p = adam_step(p, 2.0 * p, st)
            worst = max(worst, abs(float(p[0]) - x))
        assert worst < 1e-12
        _line(7, "adam oracle",
              f"10 steps on x^2, max |step diff| {worst:.2e} < 1e-12")

    def _random_box(self, rng):
        return BoundingBox(x=float(rng.uniform(0, 80)),
                           y=float(rng.uniform(0, 80)),
                           w=float(rng.uniform(1, 60)),
                           h=float(rng.uniform(1, 60)))

    def test_08_iou_dedup(self):
        # dedup leaves no same-name pair with iou > 0.5 (1000 random sets);
        # iou matches a rectangle-arithmetic oracle within 1e-12 (1000 pairs)
        rng = np.random.default_rng(40)
        names = ["car", "dog", "sky"]
        for s in range(1000):
            gs = [ObjectGrounding(f"g{s}_{j}",
                                  names[int(rng.integers(len(names)))],
                                  self._random_box(rng))
                  for j in range(int(rng.integers(1, 9)))]
            kept = datamodel.dedup_groundings(gs)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    if kept[i].name == kept[j].name:
                        assert datamodel.iou(kept[i].box, kept[j].box) <= 0.5
            # every dropped grounding has an earlier kept duplicate
            kept_ids = {g.grounding_id for g in kept}
            for g in gs:
                if g.grounding_id not in kept_ids:
                    assert any(k.name == g.name
                               and datamodel.iou(k.box, g.box) > 0.5
                               for k in kept)

        def oracle(a, b):
            ox = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
            oy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
            if ox <= 0 or oy <= 0:
                return 0.0
            inter = ox * oy
            union = a.w * a.h + b.w * b.h - inter
            return inter / union

        worst = 0.0
        for _ in range(1000):
            a, b = self._random_box(rng), self._random_box(rng)
            worst = max(worst, abs(datamodel.iou(a, b) - oracle(a, b)))
        assert worst < 1e-12
        _line(8, "iou/dedup",
              f"1000 deduped sets clean; 1000 iou pairs, max oracle "
              f"deviation {worst:.2e} < 1e-12")

    def test_09_split_protocol(self):
        # exact 50/20/30 half-up sizes for n in {7, 10, 100, 12345};
        # deterministic by seed
        expected = {7: (4, 1, 2), 10: (5, 2, 3), 100: (50, 20, 30),
                    12345: (6173, 2469, 3703)}
        for n, (tr, va, te) in expected.items():
            records = [QARecord(qa_id=f"q{i}", image_id="im", kind="telling",
                                category="what", question="q ?", answer="a",
                                distractors=["b", "c", "d"])
                       for i in range(n)]
            corpus = Corpus(images=[("im", 10, 10)], records=records)
            splits = datamodel.make_splits(corpus, seed=3)
            from collections import Counter
            got = Counter(splits.assignment.values())
            assert (got["train"], got["val"], got["test"]) == (tr, va, te)
            again = datamodel.make_splits(corpus, seed=3)
            assert again.assignment == splits.assignment
            other = datamodel.make_splits(corpus, seed=4)
            if n > 1:
                assert other.assignment != splits.assignment
        _line(9, "split protocol",
              "exact sizes for n in {7, 10, 100, 12345}; deterministic "
              "by seed")

    def test_10_heatmap_semantics(self):
        # attention_heatmap == brute-force max on 100 random traces;
        # 6-of-10 planted peaks -> rate exactly 0.6
        rng = np.random.default_rng(41)
        for _ in range(100):
            steps = int(rng.integers(1, 9))
            trace = [rng.dirichlet(np.ones(196)) for _ in range(steps)]
            hm = evalkit.attention_heatmap(trace)
            brute = np.maximum.reduce(trace).reshape(14, 14)
            assert np.array_equal(hm.grid, brute)

        entries = []
        box = BoundingBox(0, 0, 30, 30)
        for i in range(10):
            grid = np.zeros((14, 14))
            if i < 6:
                grid[1, 1] = 1.0  # center (15, 15): in box
            else:
                grid[10, 10] = 1.0  # center (105, 105): out of box
            entries.append((evalkit.HeatMap(grid=grid, image_width=140,
                                            image_height=140), [box]))
        rate, _ = evalkit.peak_in_box_rate(entries)
        assert rate == 0.6
        _line(10, "heatmap semantics",
              "100 traces match brute-force max; planted 6/10 rate "
              f"exactly {rate}")

    def test_11_kmeans(self):
        # inertia non-increasing every iteration on 100 random instances;
        # K=1 centroid equals the mean within 1e-12
        rng = np.random.default_rng(42)
        rounds = 0
        for _ in range(100):
            pts = rng.normal(size=(int(rng.integers(5, 40)), 3))
            k = int(rng.integers(1, min(6, len(pts))))
            model = baselines.kmeans_fit(pts, k, iterations=25,
                                         seed=int(rng.integers(1000)))
            hist = model.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            rounds += len(hist)
        pts = rng.normal(size=(20, 4))
        model = baselines.kmeans_fit(pts, k=1, seed=0)
        dev = float(np.max(np.abs(model.centroids[0] - pts.mean(axis=0))))
        assert dev < 1e-12
        _line(11, "k-means",
              f"inertia non-increasing over {rounds} rounds / 100 "
              f"instances; K=1 mean deviation {dev:.2e} < 1e-12")

    def test_12_format_round_trips(self, tmp_path):
        # packs and checkpoints survive write-read cycles bitwise;
        # corrupted headers rejected
        pack = featurestore.synth_feature_pack("img0", seed=6,
                                               planted_signal=2,
                                               region_ids=["r0", "r1"],
                                               correct_region="r0")
        p1, p2 = tmp_path / "a.fpk", tmp_path / "b.fpk"
        featurestore.write_feature_pack(pack, p1)
        featurestore.write_feature_pack(featurestore.read_feature_pack(p1),
                                        p2)
        assert p1.read_bytes() == p2.read_bytes()

        cfg = qamodel.ModelConfig.micro(20)
        params = qamodel.init_params(cfg, seed=9)
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        qamodel.save_checkpoint(params, cfg, vocab20(), c1)
        qamodel.save_checkpoint(*qamodel.load_checkpoint(c1), c2)
        assert c1.read_bytes() == c2.read_bytes()

        rejected = 0
        for path, reader in ((p1, featurestore.read_feature_pack),
                             (c1, qamodel.load_checkpoint)):
            clean = path.read_bytes()
            for offset in range(6):  # magic + version
                data = bytearray(clean)
                data[offset] ^= 0xFF
                path.write_bytes(bytes(data))
                try:
                    reader(path)
                except featurestore.FormatError:
                    rejected += 1
                else:
                    raise AssertionError(
                        f"corrupt header byte {offset} accepted: {path}")
            path.write_bytes(clean)
        _line(12, "format round trips",
              f"pack and checkpoint bitwise stable; {rejected}/12 header "
              f"corruptions rejected")

    def test_13_table_shaped_report(self, tmp_path):
        # `eval` emits the per-category / telling / pointing / overall
        # report from corpus + packs + checkpoint alone
        data = tmp_path / "data"
        run = tmp_path / "run"
        rep = tmp_path / "rep"
        assert cli.main(["synth", "--n-telling", "8", "--n-pointing", "4",
                         "--seed", "6", "--out", str(data)]) == 0
        assert cli.main(["train", "--corpus", str(data / "corpus.json"),
                         "--features", str(data / "packs"),
                         "--epochs", "1", "--batch", "4",
                         "--out", str(run)]) == 0
        assert cli.main(["eval", "--corpus", str(data / "corpus.json"),
                         "--features", str(data / "packs"),
                         "--checkpoint", str(run / "model.ckpt"),
                         "--out", str(rep)]) == 0
        lines = [l for l in (rep / "report.txt").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "category\tcount\taccuracy"
        body = {l.split("\t")[0] for l in lines[1:]}
        assert {"telling", "pointing", "overall"} <= body
        assert body & set(datamodel.CATEGORIES)
        for l in lines[1:]:
            cat, count, acc = l.split("\t")
            assert count == "-" or int(count) >= 0
            assert 0.0 <= float(acc) <= 1.0
        _line(13, "table-shaped report",
              f"eval report has {len(lines) - 1} rows incl. per-category "
              f"and telling/pointing/overall")
