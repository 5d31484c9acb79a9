import math
import os
import random
import tempfile
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundedqa import datamodel, featurestore, qamodel, synthdata
from groundedqa.binfmt import FormatError
from groundedqa.numkit import NumericsError, finite_diff_grad_check
from groundedqa.qamodel import (LEARNED, UNIFORM, ModelConfig, attention_step,
                                encode, init_params, load_checkpoint,
                                param_shapes, predict_mc, save_checkpoint,
                                telling_answer_loglik, zero_grads)

import lstm_reference
from conftest import (MICRO_DIMS, tiny_packs, tiny_pointing_record,
                      tiny_repeat_record, tiny_telling_record, vocab20)

_ROW_ORDER = "ifog"  # gate order of the rows of the stacked weights


def _rows(gate, hidden):
    k = _ROW_ORDER.index(gate)
    return slice(k * hidden, (k + 1) * hidden)


# a mid shape, every width distinct, beside the micro one
MID = ModelConfig(hidden=16, d_a=12, vocab_size=20, conv_cells=9,
                  conv_channels=10, feat_dim=14)


def _world(shape):
    vocab = vocab20()
    if shape == "micro":
        return vocab, ModelConfig.micro(vocab.size), tiny_packs()
    return vocab, MID, tiny_packs(dict(global_dim=MID.feat_dim,
                                       conv_cells=MID.conv_cells,
                                       conv_channels=MID.conv_channels))


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig.micro(20)
        a = init_params(cfg, 3)
        b = init_params(cfg, 3)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_biases_zero(self):
        params = init_params(ModelConfig.micro(20), 3)
        for name, arr in params.items():
            if name.startswith("b"):
                assert np.all(arr == 0.0)

    @pytest.mark.parametrize("shape", ["micro", "mid"])
    def test_bitwise_equal_to_per_gate_init(self, shape):
        _, cfg, _ = _world(shape)
        for seed in (0, 3):
            expected = lstm_reference.stack_gates(
                lstm_reference.per_gate_init(cfg, seed))
            params = init_params(cfg, seed)
            assert set(params) == set(expected)
            for name in params:
                assert np.array_equal(params[name], expected[name]), name

    def test_float32_is_the_float64_draw_rounded(self):
        cfg = ModelConfig.micro(20)
        wide, narrow = init_params(cfg, 3), init_params(cfg, 3, np.float32)
        for name in wide:
            assert narrow[name].dtype == np.float32, name
            assert np.array_equal(narrow[name],
                                  wide[name].astype(np.float32)), name

    def test_weight_sd_matches_uniform_moments(self):
        cfg = ModelConfig(hidden=512, d_a=512, vocab_size=40)
        params = init_params(cfg, 0)
        w = params["Wh"][_rows("i", 512)]
        s = 1.0 / math.sqrt(512)
        expected_sd = s / math.sqrt(3.0)
        assert abs(w.std() - expected_sd) / expected_sd < 0.05

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", ["micro", "mid"])
    def test_a_tiny_odd_scratch_changes_no_bit(self, monkeypatch, shape,
                                               dtype):
        _, cfg, _ = _world(shape)
        whole = init_params(cfg, 5, dtype)
        monkeypatch.setattr(qamodel, "BLOCK_BYTES", 3 * 8)  # 3 draws at once
        for name, arr in init_params(cfg, 5, dtype).items():
            assert np.array_equal(arr, whole[name]), name


class TestBlockedProducts:
    """`_by_t` (x @ W.T) and `_by` (x @ W) against plain numpy: 2 to
    FEW_ROWS rows read a weight larger than BLOCK_BYTES in blocks, and more
    than FEW_ROWS keep the plain product's bits. One row is, bitwise, row 0
    of `_by_t`'s two-row product, never a GEMV; `_by` keeps the plain
    product at one row. A pass reads `Wh`, `Wr`, `W_he` and `W_img` so; the
    pointing head's `W_ptr` is one plain GEMM at any row count, however
    many blocks it spans."""

    # 300 rows: not a multiple of the block in float64 or float32
    SHAPE = (300, 300)
    BOUNDS = {np.float64: 1e-12, np.float32: 1e-6}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [1, 2, 8, 9])
    def test_match_numpy(self, rows, dtype):
        rng = np.random.default_rng(rows)
        W = rng.standard_normal(self.SHAPE).astype(dtype)
        assert W.nbytes > qamodel.BLOCK_BYTES
        assert len(W) % (qamodel.BLOCK_BYTES // W[0].nbytes)
        by_t, by = qamodel._by_t(W, rows), qamodel._by(W, rows)
        out = np.empty((len(W), rows), dtype)
        into = qamodel._by_t(W, rows, out)
        blocked = 1 < rows <= qamodel.FEW_ROWS
        two = qamodel._by_t(W, 2)
        for x, dz in [(rng.standard_normal((rows, W.shape[1])).astype(dtype),
                       rng.standard_normal((rows, len(W))).astype(dtype))
                      for _ in range(2)]:
            want_t = (W @ x.T).T
            if rows == 1:  # row 0 of two, whatever the other row holds
                want_t = two(np.concatenate([x, dz[:, :W.shape[1]]]))[:1]
            for got, want in ((by_t(x), want_t), (into(x), want_t),
                              (by(dz), dz @ W)):
                assert got.dtype == dtype and got.shape == want.shape
                if blocked:
                    bound = self.BOUNDS[dtype] * np.abs(want).max()
                    assert np.abs(got - want).max() <= bound
                else:
                    assert np.array_equal(got, want)
            assert np.shares_memory(into(x), out)
        # a blocked or one-row x @ W.T is written to one buffer that each
        # call reuses
        assert (np.shares_memory(by_t(x), by_t(dz[:, :W.shape[1]]))
                == (rows <= qamodel.FEW_ROWS))

    def test_a_weight_of_one_block_keeps_the_plain_product(self):
        W = np.ones((4, qamodel.BLOCK_BYTES // 32))  # exactly BLOCK_BYTES
        x = np.ones((2, W.shape[1]))
        product = qamodel._by_t(W, 2)
        assert not np.shares_memory(product(x), product(x))
        W = np.ones((5, W.shape[1]))  # one row more: blocked
        product = qamodel._by_t(W, 2)
        assert np.shares_memory(product(x), product(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_a_pass_in_blocks_tracks_the_plain_pass(self, monkeypatch, mode,
                                                    dtype):
        vocab, cfg, records, packs = _mixed_world()
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 7, dtype)

        def run():
            grads = qamodel.param_views(
                np.zeros(qamodel.param_count(cfg), dtype), cfg)
            losses = qamodel.batch_loss_and_grads(params, cfg, records,
                                                  packs, vocab, grads)
            return (qamodel.predict_batch(records, packs, params, vocab,
                                          cfg), losses, grads)

        outcomes, losses, grads = run()
        block = params["W_img"].nbytes // 3
        monkeypatch.setattr(qamodel, "BLOCK_BYTES", block)
        for name in ("Wh", "Wr", "W_img", "W_he", "W_ptr"):
            W = params[name]
            assert -(-len(W) // (block // W[0].nbytes)) >= 3, name
        blocked_outcomes, blocked_losses, blocked_grads = run()
        bound = self.BOUNDS[dtype]
        for got, want in zip(blocked_outcomes, outcomes):
            assert got[0] == want[0]
            assert (np.abs(np.subtract(got[1], want[1])).max()
                    <= bound * np.abs(want[1]).max())
        assert (np.abs(blocked_losses - losses).max()
                <= bound * np.abs(losses).max())
        # the gradients of b_a and b_ptr are 0 but for round-off (a softmax
        # ignores a shift), so they are held to the whole gradient's scale
        scale = max(np.abs(g).max() for g in grads.values())
        for name in grads:
            ref = (scale if name in ("b_a", "b_ptr")
                   else np.abs(grads[name]).max())
            assert (np.abs(blocked_grads[name] - grads[name]).max()
                    <= bound * ref), name


class TestAttentionStep:
    def test_uniform_mode(self):
        rng = np.random.default_rng(0)
        conv = rng.normal(size=(4, 6))
        a, r = attention_step(np.zeros(8), conv, {}, mode=UNIFORM)
        assert np.allclose(a, 0.25, atol=1e-15)
        assert np.allclose(r, conv.mean(axis=0), atol=1e-15)

    def test_zero_scorer_gives_uniform(self):
        cfg = ModelConfig.micro(20)
        params = init_params(cfg, 1)
        params["w_a"] = np.zeros_like(params["w_a"])
        rng = np.random.default_rng(1)
        a, _ = attention_step(rng.normal(size=8), rng.normal(size=(4, 6)),
                              params, mode=LEARNED)
        assert np.allclose(a, 0.25, atol=1e-15)

    def test_hand_oracle_4_cells_2_channels(self):
        # hand-evaluated attention with explicit scalar arithmetic
        W_he = np.array([[0.5, -0.2], [0.1, 0.3]])
        W_ce = np.array([[0.4, 0.1], [-0.3, 0.2]])
        w_a = np.array([1.0, -0.5])
        b_a = np.array([0.1])
        h_prev = np.array([0.2, -0.4])
        conv = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 2.0]])
        params = {"W_he": W_he, "W_ce": W_ce, "w_a": w_a, "b_a": b_a}
        a, r = attention_step(h_prev, conv, params, mode=LEARNED)

        e = []
        for j in range(4):
            u = [math.tanh(W_he[i, 0] * h_prev[0] + W_he[i, 1] * h_prev[1]
                           + W_ce[i, 0] * conv[j, 0] + W_ce[i, 1] * conv[j, 1])
                 for i in range(2)]
            e.append(w_a[0] * u[0] + w_a[1] * u[1] + b_a[0])
        exps = [math.exp(x - max(e)) for x in e]
        a_hand = [x / sum(exps) for x in exps]
        r_hand = [sum(a_hand[j] * conv[j, k] for j in range(4))
                  for k in range(2)]
        assert np.max(np.abs(a - a_hand)) < 1e-12
        assert np.max(np.abs(r - r_hand)) < 1e-12


def _lstm_step(v, h_prev, c_prev, r, params):
    """`qamodel._cell` at the pre-activations of the stacked weights."""
    pre = (params["Wv"] @ v + params["Wh"] @ h_prev + params["Wr"] @ r
           + params["b_gates"])
    h, c = np.empty_like(c_prev), np.empty_like(c_prev)
    qamodel._cell(pre, c_prev, h, c, np.empty_like(pre))
    return h, c


class TestLstmStep:
    def _zero_params(self, hidden=2, channels=2):
        cfg = ModelConfig(hidden=hidden, d_a=hidden, vocab_size=3,
                          conv_cells=4, conv_channels=channels, feat_dim=2)
        return zero_grads(cfg)

    def test_all_zero(self):
        params = self._zero_params()
        h, c = _lstm_step(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2),
                          params)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_memory_passthrough(self):
        params = self._zero_params()
        params["b_gates"][_rows("f", 2)] = 20.0   # f-gate ~ 1
        params["b_gates"][_rows("i", 2)] = -20.0  # i-gate ~ 0
        c_prev = np.array([0.7, -1.2])
        _, c = _lstm_step(np.zeros(2), np.zeros(2), c_prev, np.zeros(2),
                          params)
        assert np.max(np.abs(c - c_prev)) < 1e-6

    def test_hand_oracle_two_units(self):
        params = self._zero_params()
        rng = np.random.default_rng(8)
        for name in params:
            params[name] = rng.uniform(-0.5, 0.5, size=params[name].shape)
        v = np.array([0.3, -0.1])
        h_prev = np.array([0.2, 0.4])
        c_prev = np.array([-0.3, 0.1])
        r = np.array([0.5, -0.5])
        h, c = _lstm_step(v, h_prev, c_prev, r, params)

        for unit in range(2):
            pre = {}
            for x in ("i", "f", "o", "g"):
                row = _rows(x, 2).start + unit
                pre[x] = params["b_gates"][row]
                for k in range(2):
                    pre[x] += (params["Wv"][row, k] * v[k]
                               + params["Wh"][row, k] * h_prev[k]
                               + params["Wr"][row, k] * r[k])
            gi, gf, go = (_sigmoid(pre[x]) for x in ("i", "f", "o"))
            gg = math.tanh(pre["g"])
            c_hand = gf * c_prev[unit] + gi * gg
            h_hand = go * math.tanh(c_hand)
            assert abs(c[unit] - c_hand) < 1e-12
            assert abs(h[unit] - h_hand) < 1e-12


class TestSlicePack:
    @pytest.mark.parametrize("cfg", [ModelConfig.micro(), ModelConfig()])
    def test_a_pack_read_from_disk_gives_aligned_arrays(self, tmp_path, cfg):
        """A read pack's arrays are views at its header's offset, which can
        be odd; the slices come back as owned, aligned arrays."""
        _, packs = synthdata.synth_corpus(1, 0, 0)
        (image_id, pack), = packs.items()
        path = featurestore.pack_path(str(tmp_path), image_id)
        featurestore.write_feature_pack(pack, path)
        read = featurestore.read_feature_pack(path)
        for dtype in (np.float32, np.float64):
            for arr in qamodel.slice_pack(read, cfg, dtype):
                assert arr.dtype == dtype
                assert arr.flags.aligned and arr.flags.owndata


class TestEncode:
    def test_zero_params_zero_state(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = zero_grads(cfg)
        pack = tiny_packs()["im_t"]
        state = encode(pack, vocab.encode(["what", "is", "it", "?"]), params,
                       cfg)
        assert np.all(state.h == 0.0) and np.all(state.c == 0.0)

    def test_trace_length(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 2)
        pack = tiny_packs()["im_t"]
        tokens = vocab.encode(["what", "color", "is", "it", "?"])
        state = encode(pack, tokens, params, cfg)
        assert len(state.trace) == 1 + len(tokens)

    def test_matches_step_composition(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 2)
        pack = tiny_packs()["im_t"]
        tokens = vocab.encode(["what", "color", "is", "it", "?"])
        state = encode(pack, tokens, params, cfg)

        feat = pack.global_feature[:cfg.feat_dim]
        conv = pack.conv_map[:cfg.conv_cells, :cfg.conv_channels]
        h = np.zeros(cfg.hidden)
        c = np.zeros(cfg.hidden)
        vs = [params["W_img"] @ feat + params["b_img"]] \
            + [params["W_word"][:, t] for t in tokens]
        per_gate = lstm_reference.split_gates(params)
        for v in vs:
            _, r = attention_step(h, conv, params, mode=LEARNED)
            h, c, _ = lstm_reference._lstm_fwd(v, h, c, r, per_gate)
        assert np.max(np.abs(state.h - h)) < 1e-12
        assert np.max(np.abs(state.c - c)) < 1e-12

    def test_deterministic_bitwise(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 2)
        pack = tiny_packs()["im_t"]
        tokens = vocab.encode(["what", "?"])
        s1 = encode(pack, tokens, params, cfg)
        s2 = encode(pack, tokens, params, cfg)
        assert np.array_equal(s1.h, s2.h)

    def test_bad_token_index(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 2)
        with pytest.raises(IndexError):
            encode(tiny_packs()["im_t"], [99], params, cfg)

    def test_trace_normalized_both_modes(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 2)
        tokens = vocab.encode(["what", "color", "is", "it", "?"])
        for mode in (LEARNED, UNIFORM):
            state = encode(tiny_packs()["im_t"], tokens, params,
                           replace(cfg, mode=mode))
            for a in state.trace:
                assert abs(a.sum() - 1.0) < 1e-9
                assert np.all(a >= 0.0)


class TestTelling:
    def _setup(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 4)
        pack = tiny_packs()["im_t"]
        state = encode(pack, vocab.encode(["what", "color", "is", "it", "?"]),
                       params, cfg)
        return vocab, cfg, params, state

    def test_uniform_decoder(self):
        vocab, cfg, params, state = self._setup()
        params["W_out"] = np.zeros_like(params["W_out"])
        params["b_out"] = np.zeros_like(params["b_out"])
        # prior state was built with nonzero W_out but the head only affects
        # scoring, not the recurrence
        for n_tokens in (1, 2, 3):
            ll = telling_answer_loglik(state, vocab.encode(["red"] * n_tokens),
                                       params)
            assert abs(ll - (-(n_tokens + 1) * math.log(vocab.size))) < 1e-12

    def test_identical_candidates_identical_loglik(self):
        vocab, cfg, params, state = self._setup()
        tokens = vocab.encode(["blue"])
        assert telling_answer_loglik(state, tokens, params) \
            == telling_answer_loglik(state, tokens, params)

    def test_empty_answer_rejected(self):
        vocab, cfg, params, state = self._setup()
        with pytest.raises(ValueError):
            telling_answer_loglik(state, [], params)

    def test_one_token_answer_hand_chain(self):
        vocab, cfg, params, state = self._setup()
        tok = vocab.token_to_index["red"]
        ll = telling_answer_loglik(state, [tok], params)

        # hand-evaluated softmax chain from the verified step ops
        conv = state.conv
        p1 = np.exp(params["W_out"] @ state.h + params["b_out"])
        p1 /= p1.sum()
        _, r = attention_step(state.h, conv, params, mode=LEARNED)
        h2, _, _ = lstm_reference._lstm_fwd(
            params["W_word"][:, tok], state.h, state.c, r,
            lstm_reference.split_gates(params))
        p2 = np.exp(params["W_out"] @ h2 + params["b_out"])
        p2 /= p2.sum()
        expected = math.log(p1[tok]) + math.log(p2[qamodel.END_INDEX])
        assert abs(ll - expected) < 1e-12

    def test_invariant_under_inert_vocab_tail(self):
        vocab, cfg, params, state = self._setup()
        tokens = vocab.encode(["green"])
        base = telling_answer_loglik(state, tokens, params)

        # extend the vocabulary with tokens whose decoder rows can never
        # fire (-1e9 bias); existing indices are unchanged
        extra = 3
        params2 = dict(params)
        rng = np.random.default_rng(9)
        params2["W_word"] = np.hstack(
            [params["W_word"], rng.normal(size=(cfg.hidden, extra))])
        params2["W_out"] = np.vstack(
            [params["W_out"], rng.normal(size=(extra, cfg.hidden))])
        params2["b_out"] = np.concatenate(
            [params["b_out"], np.full(extra, -1e9)])
        cfg2 = ModelConfig.micro(cfg.vocab_size + extra)
        pack = tiny_packs()["im_t"]
        state2 = encode(pack,
                        vocab.encode(["what", "color", "is", "it", "?"]),
                        params2, cfg2)
        extended = telling_answer_loglik(state2, tokens, params2)
        assert abs(base - extended) < 1e-12


class TestAnswerHead:
    @pytest.mark.parametrize("vocab_size", [31, 3000])
    def test_a_row_gets_one_bit_pattern_at_any_position(self, vocab_size):
        """Float32, hidden 512: one fixed row, at sampled positions of 1 to
        64 rows, gets bitwise the same probabilities every time."""
        rng = np.random.default_rng(vocab_size)
        params = {"W_out": rng.standard_normal((vocab_size, 512),
                                               np.float32) / 16,
                  "b_out": rng.standard_normal(vocab_size, np.float32)}
        row = rng.standard_normal(512, np.float32)
        patterns = set()
        for n in range(1, 65):
            hs = rng.standard_normal((n, 512), np.float32)
            for pos in {0, n - 1, int(rng.integers(n))}:
                hs[pos] = row
                probs, _ = qamodel._answer_head(params, hs, np.zeros(n, int))
                patterns.add(probs[pos].tobytes())
                hs[pos] = rng.standard_normal(512, np.float32)
        assert len(patterns) == 1


class TestPointing:
    """The pointing head that training and prediction share."""

    @staticmethod
    def _scores(params, h, regions):
        _, scores = qamodel._pointing_head(params, np.array([regions]),
                                           np.array([h]))
        return scores[0]

    def test_zero_hidden_zero_scores(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 3)
        scores = self._scores(params, np.zeros(cfg.hidden),
                              np.ones((4, cfg.feat_dim)))
        assert np.array_equal(scores, np.zeros(4))

    def test_linearity_in_region(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 3)
        params["b_ptr"] = np.zeros_like(params["b_ptr"])
        rng = np.random.default_rng(2)
        h = rng.normal(size=cfg.hidden)
        f = rng.normal(size=cfg.feat_dim)
        s1, s2 = self._scores(params, h, [f, 2.0 * f, f, f])[:2]
        assert abs(s2 - 2.0 * s1) < 1e-9 * max(1.0, abs(s1))

    def test_hand_arithmetic(self):
        params = {"W_ptr": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                  "b_ptr": np.array([1.0, -1.0])}
        # W f = [6, 3]; + b = [7, 2]; dot h = 7 + 4 = 11
        scores = self._scores(params, np.array([1.0, 2.0]),
                              [[2.0, 3.0, 4.0], [0.0, 0.0, 0.0],
                               [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # b dot h = -1; the last two have W f = [1, 0] and [0, 1], which
        # add h's 1 and 2 to it
        assert scores.tolist() == [11.0, -1.0, 0.0, 1.0]


class TestPredictMc:
    def test_zero_params_tie_break(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = zero_grads(cfg)
        rec = tiny_pointing_record()
        chosen, scores = predict_mc(rec, tiny_packs()["im_p"], params, vocab,
                                    cfg)
        assert chosen == 0
        assert scores == [0.0] * 4

    def test_candidate_permutation_equivariance(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 6)
        rec1 = tiny_pointing_record()
        rec2 = tiny_pointing_record()
        rec2.distractors = [rec1.distractors[2], rec1.distractors[0],
                            rec1.distractors[1]]
        pack = tiny_packs()["im_p"]
        c1, _ = datamodel.mc_candidates(rec1)
        c2, _ = datamodel.mc_candidates(rec2)
        i1, s1 = predict_mc(rec1, pack, params, vocab, cfg)
        i2, s2 = predict_mc(rec2, pack, params, vocab, cfg)
        assert c1[i1] == c2[i2]  # same winning candidate string
        assert sorted(s1) == pytest.approx(sorted(s2), abs=1e-12)

    def test_shift_invariance_of_argmax(self):
        scores = [0.3, -0.1, 0.25, 0.05]
        shifted = [s + 7.7 for s in scores]
        assert int(np.argmax(scores)) == int(np.argmax(shifted))


def _mixed_world(n=11):
    """
    `n` records at the mid shape, each on its own image: every third one
    pointing, the rest telling, with questions of 1 to 9 tokens and
    candidate answers of 1 to 3.
    """
    vocab, cfg, _ = _world("mid")
    dims = dict(global_dim=cfg.feat_dim, conv_cells=cfg.conv_cells,
                conv_channels=cfg.conv_channels)
    words = ["what", "color", "is", "it", "?", "red", "which", "one", "blue"]
    colors = ["red", "green", "blue", "yellow"]
    records, packs = [], {}
    for k in range(n):
        image_id = f"im{k}"
        question = " ".join(words[:1 + (4 * k) % len(words)])
        if k % 3 == 2:
            rec = replace(tiny_pointing_record(), qa_id=f"p{k}",
                          image_id=image_id, question=question)
            regions = [g.grounding_id for g in rec.groundings]
        else:
            answer, *distractors = [
                " ".join([colors[(k + j) % 4]] * (1 + (k + j) % 3))
                for j in range(4)]
            rec = replace(tiny_telling_record(), qa_id=f"t{k}",
                          image_id=image_id, question=question,
                          answer=answer, distractors=distractors)
            regions = []
        records.append(rec)
        packs[image_id] = featurestore.synth_feature_pack(
            image_id, seed=k, region_ids=regions, **dims)
    return vocab, cfg, records, packs


class _CountingPacks:
    """
    Image id -> a new copy of its pack at each lookup, like a loader that
    reads files. A pack is live while any of its arrays is; `live()`
    counts them and keeps the peak.
    """

    def __init__(self, packs):
        self.packs, self.refs, self.peak = packs, [], 0

    def live(self):
        n = sum(any(ref() is not None for ref in refs) for refs in self.refs)
        self.peak = max(self.peak, n)
        return n

    def __getitem__(self, image_id):
        src = self.packs[image_id]
        pack = featurestore.FeaturePack(
            image_id, src.global_feature.copy(), src.conv_map.copy(),
            {rid: f.copy() for rid, f in src.region_features.items()})
        self.refs.append([weakref.ref(a) for a in (
            pack.global_feature, pack.conv_map,
            *pack.region_features.values())])
        self.live()
        return pack


class TestPredictBatch:
    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_matches_one_record_at_a_time_and_the_reference(self, mode):
        vocab, cfg, records, packs = _mixed_world()
        assert qamodel.PASS_RECORDS < len(records) < 2 * qamodel.PASS_RECORDS
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 7)
        outcomes = qamodel.predict_batch(records, packs, params, vocab, cfg)
        assert len(outcomes) == len(records)
        for rec, (chosen, scores) in zip(records, outcomes):
            pack = packs[rec.image_id]
            one_chosen, one_scores = predict_mc(rec, pack, params, vocab,
                                                cfg)
            assert (chosen, scores) == (one_chosen, one_scores), rec.qa_id
            if rec.kind != "telling":
                continue
            # minus (answer tokens + 1) times the reference's mean
            # cross-entropy
            q_tokens = vocab.encode(datamodel.tokenize(rec.question))
            cands, _ = datamodel.mc_candidates(rec)
            for cand, score in zip(cands, scores):
                a_tokens = vocab.encode(datamodel.tokenize(cand))
                ref, _ = lstm_reference.telling_loss_and_grads(
                    lstm_reference.split_gates(params), cfg, pack, q_tokens,
                    a_tokens, mode)
                expected = -(len(a_tokens) + 1) * ref
                assert abs(score - expected) <= 1e-9 * abs(expected)

    @pytest.mark.parametrize("victim", [4, 5, 9])
    def test_a_failed_record_fails_alone(self, victim):
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        clean = qamodel.predict_batch(records, packs, params, vocab, cfg)
        image_id = records[victim].image_id
        packs = dict(packs)
        if victim == 9:  # its pack is gone
            del packs[image_id]
        else:  # a non-finite feature (a pack read from a file is finite)
            packs[image_id] = replace(
                packs[image_id], global_feature=np.full(cfg.feat_dim, np.nan))
        outcomes = qamodel.predict_batch(records, packs, params, vocab, cfg)
        expected = KeyError if victim == 9 else NumericsError
        assert isinstance(outcomes[victim], expected)
        for i, (got, want) in enumerate(zip(outcomes, clean)):
            if i != victim:
                assert got == want, records[i].qa_id

    def test_a_failed_record_fails_alone_at_paper_scale(self):
        """Float32 at paper scale, one pass of 5 telling and 3 pointing
        records. The pass runs an unread record's rows as zeros, so its
        pointing head keeps its shape, and every other record its bits."""
        corpus, packs = synthdata.synth_corpus(8, 8, seed=5)
        records = corpus.records[:5] + corpus.records[8:11]
        packs = TestFloat32._as_read(packs)
        vocab = datamodel.build_vocab(corpus.records)
        cfg = ModelConfig(vocab_size=vocab.size)
        params = init_params(cfg, 7, np.float32)
        clean = qamodel.predict_batch(records, packs, params, vocab, cfg)
        for victim in (0, 5, 6, 7):  # a telling record, then each pointing
            some = dict(packs)
            del some[records[victim].image_id]
            outcomes = qamodel.predict_batch(records, some, params, vocab,
                                             cfg)
            assert isinstance(outcomes[victim], KeyError)
            for i, (got, want) in enumerate(zip(outcomes, clean)):
                if i != victim:
                    assert got == want, (victim, records[i].qa_id)

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    @pytest.mark.parametrize("world", ["paper", "mixed"])
    def test_a_record_scores_the_same_in_any_pass(self, world, mode):
        """
        Each record's `predict_batch` outcome, `predict_mc` outcome,
        `attention_traces` trace and `batch_loss_and_grads` loss are bitwise
        its values in the whole list's run, over random subsets and orders
        of 1 to PASS_RECORDS records: among them one-record passes, passes
        with exactly one telling record, and passes of exactly 5 and 6
        telling records (in the paper world their one-token answers take
        40 and 48 rows of the vocabulary head, just over one block of 32).
        Worlds: synth 8+8 at paper scale in float32, and `_mixed_world`
        (11 records) in float64.
        """
        if world == "paper":
            corpus, packs = synthdata.synth_corpus(8, 8, seed=5)
            records, packs = corpus.records, TestFloat32._as_read(packs)
            vocab = datamodel.build_vocab(records)
            cfg, dtype = ModelConfig(vocab_size=vocab.size), np.float32
        else:
            (vocab, cfg, records, packs), dtype = _mixed_world(), np.float64
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 7, dtype)

        def run(batch):
            """Per record: (outcome, trace bytes, loss bytes)."""
            traces = qamodel.attention_traces(batch, packs, params, vocab,
                                              cfg)
            losses = qamodel.batch_loss_and_grads(params, cfg, batch, packs,
                                                  vocab, None)
            return [(outcome, np.array(trace).tobytes(), loss.tobytes())
                    for outcome, trace, loss in zip(qamodel.predict_batch(
                        batch, packs, params, vocab, cfg), traces, losses)]

        whole = dict(zip((r.qa_id for r in records), run(records)))
        tell = [r for r in records if r.kind == "telling"]
        point = [r for r in records if r.kind != "telling"]
        rng = random.Random(3)
        passes = [rng.sample(records, rng.randint(1, qamodel.PASS_RECORDS))
                  for _ in range(8)]
        passes += [[rng.choice(records)], [rng.choice(point)],
                   rng.sample(point, 3) + [rng.choice(tell)],
                   rng.sample(tell, 5), rng.sample(tell, 6)]
        for batch in passes:
            for rec, got in zip(batch, run(batch)):
                assert got == whole[rec.qa_id], (rec.qa_id, len(batch))
        for rec in records:
            assert predict_mc(rec, packs[rec.image_id], params, vocab,
                              cfg) == whole[rec.qa_id][0], rec.qa_id

    def test_a_missing_pack_fails_each_of_its_records(self):
        """No record is scored on the pack read before its own."""
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        # in the first pass: t0 on im0, then t1 and t3 on im1
        records = list(records)
        records[3] = replace(records[3], image_id=records[1].image_id)
        clean = qamodel.predict_batch(records, packs, params, vocab, cfg)
        packs = dict(packs)
        del packs[records[1].image_id]
        outcomes = qamodel.predict_batch(records, packs, params, vocab, cfg)
        for i, (got, want) in enumerate(zip(outcomes, clean)):
            if i in (1, 3):
                assert isinstance(got, KeyError), records[i].qa_id
            else:
                assert got == want, records[i].qa_id

    def test_a_missing_region_fails_its_record_alone(self):
        """A pack that lacks one of a pointing record's candidate regions
        still serves a telling record on the same image."""
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        records = list(records)  # t3 moves onto p2's image
        records[3] = replace(records[3], image_id=records[2].image_id)
        clean = qamodel.predict_batch(records, packs, params, vocab, cfg)
        pack = packs[records[2].image_id]
        packs = dict(packs)
        packs[pack.image_id] = replace(pack, region_features={
            rid: f for rid, f in pack.region_features.items()
            if rid != records[2].distractors[0]})
        outcomes = qamodel.predict_batch(records, packs, params, vocab, cfg)
        assert isinstance(outcomes[2], KeyError)
        for i, (got, want) in enumerate(zip(outcomes, clean)):
            if i != 2:
                assert got == want, records[i].qa_id

    def test_a_failed_pass_fails_each_of_its_records(self, monkeypatch):
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        clean = qamodel.predict_batch(records, packs, params, vocab, cfg)
        real, calls = qamodel._forward, []

        def fail_the_first_pass(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("no room")
            return real(*args, **kwargs)

        monkeypatch.setattr(qamodel, "_forward", fail_the_first_pass)
        outcomes = qamodel.predict_batch(records, packs, params, vocab, cfg)
        first = qamodel.PASS_RECORDS
        assert all(isinstance(o, MemoryError) for o in outcomes[:first])
        assert outcomes[first:] == clean[first:]

    def test_empty_candidate_raises(self):
        """A record no corpus can hold is a caller's error, not an
        outcome: `datamodel` rejects a telling candidate with no word."""
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        records = list(records)
        records[1] = replace(records[1], distractors=["green", " ", "blue"])
        with pytest.raises(ValueError, match="empty answer sequence in t1"):
            qamodel.predict_batch(records, packs, params, vocab, cfg)

    def test_holds_at_most_a_pass_of_packs(self, micro_world, monkeypatch):
        """Prediction and training, over two passes each."""
        corpus, packs, vocab, cfg, params = micro_world
        records = corpus.records
        assert len(records) == 2 * qamodel.PASS_RECORDS
        real = qamodel._forward
        loader = None

        def counting_forward(*args, **kwargs):
            loader.live()
            return real(*args, **kwargs)

        monkeypatch.setattr(qamodel, "_forward", counting_forward)
        loader = _CountingPacks(packs)
        qamodel.predict_batch(records, loader, params, vocab, cfg)
        assert len(loader.refs) == len(records)  # one lookup per image
        # each pack is dropped once its features are copied into the pass
        assert loader.peak <= 2
        loader = _CountingPacks(packs)
        qamodel.train(records, loader, vocab, params, cfg,
                      qamodel.TrainConfig(epochs=1, batch_size=len(records)))
        assert loader.peak <= 2
        assert loader.live() == 0

    def test_outcomes_land_on_their_records(self):
        """A pass decodes its telling records first; each outcome still
        lands on its own record, in input order, beside a missing pack."""
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 7)
        # one pass: pointing p2 and p5 lead, telling t3 has no pack
        batch = [records[i] for i in (2, 5, 0, 1, 3, 4, 6, 7)]
        assert len(batch) == qamodel.PASS_RECORDS
        assert [r.kind for r in batch[:3]] == ["pointing"] * 2 + ["telling"]
        packs = dict(packs)
        del packs[records[3].image_id]
        outcomes = qamodel.predict_batch(batch, packs, params, vocab, cfg)
        assert len(outcomes) == len(batch)
        for rec, got in zip(batch, outcomes):
            if rec is records[3]:
                assert isinstance(got, KeyError)
                continue
            assert got == predict_mc(rec, packs[rec.image_id], params,
                                     vocab, cfg), rec.qa_id


class TestAttentionBlocks:
    """`_attention` builds its tanh one block of maps at a time, in a
    scratch of at most ATTEND_BYTES."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_one_map_per_block_changes_no_bit(self, monkeypatch, mode,
                                              dtype):
        vocab, cfg, records, packs = _mixed_world()
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 7, dtype)
        one_map = cfg.conv_cells * cfg.d_a * np.dtype(dtype).itemsize
        # by default one block holds every map of a pass, 4 rows each
        assert 4 * qamodel.PASS_RECORDS * one_map <= qamodel.ATTEND_BYTES

        def run():
            grads = qamodel.param_views(
                np.zeros(qamodel.param_count(cfg), dtype), cfg)
            losses = qamodel.batch_loss_and_grads(params, cfg, records,
                                                  packs, vocab, grads)
            return (qamodel.predict_batch(records, packs, params, vocab,
                                          cfg), losses, grads)

        outcomes, losses, grads = run()
        monkeypatch.setattr(qamodel, "ATTEND_BYTES", one_map)
        one_outcomes, one_losses, one_grads = run()
        assert one_outcomes == outcomes
        assert np.array_equal(one_losses, losses)
        for name in grads:
            assert np.array_equal(one_grads[name], grads[name]), name


class TestModes:
    def test_uniform_equals_zeroed_scorer(self, micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        params = {k: v.copy() for k, v in params.items()}
        params["w_a"] = np.zeros_like(params["w_a"])
        rec = corpus.records[0]
        tokens = vocab.encode(datamodel.tokenize(rec.question))
        pack = packs[rec.image_id]
        s_learned = encode(pack, tokens, params, replace(cfg, mode=LEARNED))
        s_uniform = encode(pack, tokens, params, replace(cfg, mode=UNIFORM))
        assert np.max(np.abs(s_learned.h - s_uniform.h)) < 1e-12
        assert np.max(np.abs(s_learned.c - s_uniform.c)) < 1e-12
        for a, b in zip(s_learned.trace, s_uniform.trace):
            assert np.max(np.abs(a - b)) < 1e-12


class TestGradients:
    def test_telling_micro_grad_check(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 11)
        rec = tiny_telling_record()
        pack = tiny_packs()["im_t"]
        loss_fn, grad_fn = qamodel.gradcheck_fns(cfg, rec, pack, vocab)
        res = finite_diff_grad_check(loss_fn, grad_fn, params)
        assert res.max_rel_error < 1e-4, res.worst_param

    def test_pointing_micro_grad_check(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 12)
        rec = tiny_pointing_record()
        pack = tiny_packs()["im_p"]
        loss_fn, grad_fn = qamodel.gradcheck_fns(cfg, rec, pack, vocab)
        res = finite_diff_grad_check(loss_fn, grad_fn, params)
        assert res.max_rel_error < 1e-4, res.worst_param


    def test_repeated_tokens_micro_grad_check(self):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 13)
        rec = tiny_repeat_record()
        pack = tiny_packs()["im_t"]
        loss_fn, grad_fn = qamodel.gradcheck_fns(cfg, rec, pack, vocab)
        res = finite_diff_grad_check(loss_fn, grad_fn, params)
        assert res.max_rel_error < 1e-4, res.worst_param

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="longdouble is no wider than float64 here")
    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_loss_fn_runs_in_extended_precision(self, mode):
        # a float64 buffer anywhere in the pass costs far more than 10 ulps
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 12)
        wide = {k: v.astype(np.longdouble) for k, v in
                lstm_reference.split_gates(params).items()}
        packs = tiny_packs()
        for rec in (tiny_telling_record(), tiny_pointing_record()):
            pack = packs[rec.image_id]
            loss_fn, _ = qamodel.gradcheck_fns(replace(cfg, mode=mode), rec,
                                               pack, vocab)
            loss = loss_fn(params)
            assert isinstance(loss, np.longdouble)
            ref, _ = lstm_reference.record_loss_and_grads(wide, cfg, rec, pack,
                                                          vocab, mode)
            tol = 10 * np.finfo(np.longdouble).eps
            assert abs(loss - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    @pytest.mark.parametrize("fn", ["record", "telling", "pointing", "batch"])
    def test_every_loss_function_sets_grads(self, monkeypatch, mode, fn):
        """Filled with NaN or with zeros, `grads` ends bitwise the same."""
        monkeypatch.setattr(qamodel, "PASS_RECORDS", 2)  # batch: 2 passes
        vocab, cfg, packs = _world("micro")
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 9)
        rec = tiny_pointing_record() if fn == "pointing" \
            else tiny_telling_record()
        pack = packs[rec.image_id]
        q_tokens = vocab.encode(datamodel.tokenize(rec.question))

        def run(grads):
            if fn == "record":
                qamodel.record_loss_and_grads(params, cfg, rec, pack, vocab,
                                              grads)
            elif fn == "telling":
                qamodel.telling_loss_and_grads(
                    params, cfg, pack, q_tokens,
                    vocab.encode(datamodel.tokenize(rec.answer)), grads)
            elif fn == "pointing":
                cands, target = datamodel.mc_candidates(rec)
                qamodel.pointing_loss_and_grads(
                    params, cfg, pack, q_tokens,
                    [pack.region_features[c][:cfg.feat_dim] for c in cands],
                    target, grads)
            else:
                qamodel.batch_loss_and_grads(
                    params, cfg, [rec, tiny_pointing_record(),
                                  tiny_repeat_record()], packs, vocab, grads)

        results = []
        for fill in (np.nan, 0.0):
            grads = {name: np.full(shape, fill)
                     for name, shape in param_shapes(cfg).items()}
            run(grads)
            results.append(grads)
        for name, g in results[0].items():
            assert np.isfinite(g).all(), name
            assert g.tobytes() == results[1][name].tobytes(), name


class TestReferenceOracle:
    """The stacked, hoisted core against the per-gate loop reference."""

    # analytically zero (softmax is shift-invariant), so both sides hold
    # only round-off, which no relative bound can compare
    ZERO = ("b_a", "b_ptr")

    def _assert_grads_match(self, grads, ref_grads):
        ref_grads = lstm_reference.stack_gates(ref_grads)
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            if name in self.ZERO:
                assert np.max(np.abs(ref)) < 1e-14, name
                assert np.max(np.abs(grads[name])) < 1e-14, name
                continue
            err = np.max(np.abs(grads[name] - ref)) / max(
                np.max(np.abs(ref)), 1e-9)
            assert err <= 1e-9, (name, err)

    @pytest.mark.parametrize("shape", ["micro", "mid"])
    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    @pytest.mark.parametrize("make_record", [
        tiny_telling_record, tiny_pointing_record, tiny_repeat_record])
    def test_loss_and_grads_match(self, shape, mode, make_record):
        vocab, cfg, packs = _world(shape)
        rec = make_record()
        pack = packs[rec.image_id]
        params = init_params(cfg, 5)
        grads = zero_grads(cfg)
        loss = qamodel.record_loss_and_grads(
            params, replace(cfg, mode=mode), rec, pack, vocab, grads)
        ref_loss, ref_grads = lstm_reference.record_loss_and_grads(
            lstm_reference.split_gates(params), cfg, rec, pack, vocab, mode)
        assert abs(loss - ref_loss) <= 1e-9 * max(abs(ref_loss), 1e-9)
        self._assert_grads_match(grads, ref_grads)

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    @pytest.mark.parametrize("make_record", [tiny_telling_record,
                                             tiny_pointing_record])
    def test_single_record_losses_match(self, mode, make_record):
        """`telling_loss_and_grads` and `pointing_loss_and_grads`, which
        take token ids and candidate features instead of a record."""
        vocab, cfg, packs = _world("mid")
        cfg = replace(cfg, mode=mode)
        rec = make_record()
        pack = packs[rec.image_id]
        params = init_params(cfg, 5)
        grads = zero_grads(cfg)
        q_tokens = vocab.encode(datamodel.tokenize(rec.question))
        if rec.kind == "telling":
            loss = qamodel.telling_loss_and_grads(
                params, cfg, pack, q_tokens,
                vocab.encode(datamodel.tokenize(rec.answer)), grads)
        else:
            cands, target = datamodel.mc_candidates(rec)
            loss = qamodel.pointing_loss_and_grads(
                params, cfg, pack, q_tokens,
                [pack.region_features[c][:cfg.feat_dim] for c in cands],
                target, grads)
        ref_loss, ref_grads = lstm_reference.record_loss_and_grads(
            lstm_reference.split_gates(params), cfg, rec, pack, vocab, mode)
        assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
        self._assert_grads_match(grads, ref_grads)

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    @pytest.mark.parametrize("cap", [qamodel.PASS_RECORDS, 2])
    def test_batch_matches_the_summed_records(self, monkeypatch, mode, cap):
        """
        A telling/pointing batch of unequal lengths, in one pass or in
        passes of 2: each loss is its record's, and the gradient is the sum
        of theirs. The gradient starts as NaN, so every tensor is written.
        """
        monkeypatch.setattr(qamodel, "PASS_RECORDS", cap)
        vocab, cfg, packs = _world("mid")
        cfg = replace(cfg, mode=mode)
        # 11, 3 and 6 tokens
        records = [tiny_repeat_record(), tiny_pointing_record(),
                   tiny_telling_record()]
        params = init_params(cfg, 8)
        grads = {name: np.full(shape, np.nan)
                 for name, shape in param_shapes(cfg).items()}
        losses = qamodel.batch_loss_and_grads(params, cfg, records, packs,
                                              vocab, grads)
        assert losses.shape == (3,)
        summed = lstm_reference.split_gates(zero_grads(cfg))
        for rec, loss in zip(records, losses):
            ref_loss, ref_grads = lstm_reference.record_loss_and_grads(
                lstm_reference.split_gates(params), cfg, rec,
                packs[rec.image_id], vocab, mode)
            assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss), rec.qa_id
            for name, g in ref_grads.items():
                summed[name] += g
        self._assert_grads_match(grads, summed)

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_attention_trace_matches(self, mode):
        """`attention_traces` over a full and a partial pass of telling and
        pointing records of unequal lengths."""
        vocab, cfg, records, packs = _mixed_world()
        assert qamodel.PASS_RECORDS < len(records) < 2 * qamodel.PASS_RECORDS
        params = init_params(cfg, 6)
        traces = qamodel.attention_traces(records, packs, params, vocab,
                                          replace(cfg, mode=mode))
        assert len(traces) == len(records)
        for rec, trace in zip(records, traces):
            pack = packs[rec.image_id]
            tokens = vocab.encode(datamodel.tokenize(rec.question))
            if rec.kind == "telling":
                tokens += vocab.encode(datamodel.tokenize(rec.answer))
            feat, conv = qamodel.slice_pack(pack, cfg)
            _, _, caches = lstm_reference.run_steps(
                lstm_reference.split_gates(params), conv,
                [("image", feat)] + [("token", t) for t in tokens], mode)
            assert len(trace) == len(caches) == 1 + len(tokens)
            for a, st in zip(trace, caches):
                assert np.max(np.abs(a - st["a"])) < 1e-12

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_telling_scores_match(self, mode):
        # predict_mc scores a candidate by its summed log-likelihood: minus
        # (answer tokens + 1) times the reference's mean cross-entropy
        vocab, cfg, packs = _world("mid")
        cfg = replace(cfg, mode=mode)
        params = init_params(cfg, 7)
        rec = tiny_repeat_record()
        pack = packs[rec.image_id]
        q_tokens = vocab.encode(datamodel.tokenize(rec.question))
        cands, _ = datamodel.mc_candidates(rec)
        _, scores = predict_mc(rec, pack, params, vocab, cfg)
        for cand, score in zip(cands, scores):
            a_tokens = vocab.encode(datamodel.tokenize(cand))
            ref, _ = lstm_reference.telling_loss_and_grads(
                lstm_reference.split_gates(params), cfg, pack, q_tokens,
                a_tokens, mode)
            expected = -(len(a_tokens) + 1) * ref
            assert abs(score - expected) <= 1e-9 * abs(expected)


class TestAttentionTraces:
    def test_a_missing_pack_raises_as_training_does(self, monkeypatch):
        """
        Packs of records 9 and 10, in the second pass, are gone: heat maps,
        like a training batch, run the first pass and then raise record 9's
        failure, the first in input order.
        """
        vocab, cfg, records, packs = _mixed_world()
        params = init_params(cfg, 6)
        packs = dict(packs)
        for victim in (10, 9):
            assert victim >= qamodel.PASS_RECORDS
            del packs[records[victim].image_id]
        real, calls = qamodel._forward, []

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(qamodel, "_forward", counting_forward)
        for run in (lambda: qamodel.attention_traces(records, packs, params,
                                                     vocab, cfg),
                    lambda: qamodel.batch_loss_and_grads(
                        params, cfg, records, packs, vocab, None)):
            calls.clear()
            with pytest.raises(KeyError, match=records[9].image_id):
                run()
            assert len(calls) == 1


class TestTrain:
    def test_zero_lr_is_identity(self, micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        tc = qamodel.TrainConfig(epochs=2, batch_size=4, learning_rate=0.0,
                                 seed=0)
        trained, curve = qamodel.train(corpus.records, packs, vocab, params,
                                       cfg, tc)
        assert len(curve) == 2
        for name in params:
            assert np.array_equal(trained[name], params[name])

    def test_loss_decreases(self, micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        tc = qamodel.TrainConfig(epochs=15, batch_size=4,
                                 learning_rate=1e-3, seed=0)
        _, curve = qamodel.train(corpus.records, packs, vocab, params, cfg,
                                 tc)
        assert curve[-1] < curve[0]

    @pytest.mark.parametrize("mode", [LEARNED, UNIFORM])
    def test_matches_per_tensor_loop(self, micro_world, mode):
        """
        Batched passes against one record at a time and one Adam update per
        tensor, in float64. Batching changes the summation order, so the
        match is to round-off, not bitwise.
        """
        corpus, packs, vocab, cfg, params = micro_world
        cfg = replace(cfg, mode=mode)
        # 16 records in batches of 3 (five full batches and a partial one),
        # then in one batch of two passes
        assert qamodel.PASS_RECORDS < 16
        for batch_size in (3, 16):
            tc = qamodel.TrainConfig(epochs=2, batch_size=batch_size,
                                     learning_rate=1e-2, seed=4)
            trained, curve = qamodel.train(corpus.records, packs, vocab,
                                           params, cfg, tc)
            expected, expected_curve = lstm_reference.train(
                corpus.records, packs, vocab, params, cfg, tc)
            assert curve == pytest.approx(expected_curve, rel=1e-12, abs=0)
            for name in expected:
                err = np.max(np.abs(trained[name] - expected[name]))
                assert err <= 1e-9, (batch_size, name, err)

    def test_keeps_features_much_smaller_than_their_packs(self, micro_world):
        """
        A micro model on full-scale packs reads each pack once and keeps
        copies of its features; it trains bitwise as on packs cut to its
        dimensions, which it reads at every epoch.
        """
        corpus, _, vocab, cfg, params = micro_world
        _, full = synthdata.synth_corpus(8, 8, seed=5)
        small = {image_id: featurestore.FeaturePack(
            image_id, p.global_feature[:cfg.feat_dim].copy(),
            p.conv_map[:cfg.conv_cells, :cfg.conv_channels].copy(),
            {rid: f[:cfg.feat_dim].copy()
             for rid, f in p.region_features.items()})
            for image_id, p in full.items()}
        tc = qamodel.TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2)
        runs = {}
        for name, packs in (("full", full), ("small", small)):
            loader = _CountingPacks(packs)
            runs[name] = qamodel.train(corpus.records, loader, vocab, params,
                                       cfg, tc)
            runs[name + " reads"] = len(loader.refs)
            assert loader.live() == 0
        assert runs["full reads"] == len(corpus.records)
        assert runs["small reads"] == 3 * len(corpus.records)
        (trained, curve), (expected, expected_curve) = runs["full"], \
            runs["small"]
        assert curve == expected_curve
        for name in expected:
            assert np.array_equal(trained[name], expected[name]), name

    def test_returns_views_of_a_new_vector(self, micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        tc = qamodel.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-2)
        trained, _ = qamodel.train(corpus.records, packs, vocab, params, cfg,
                                   tc)
        _assert_one_vector(trained, cfg)
        before = {name: view.copy() for name, view in trained.items()}
        again, _ = qamodel.train(corpus.records, packs, vocab, trained, cfg,
                                 tc)
        _assert_one_vector(again, cfg)
        for name, view in trained.items():  # the input is never updated
            assert np.array_equal(view, before[name]), name
            assert not np.shares_memory(again[name], view), name


class TestFloat32:
    """A float32 model: its passes stay float32 and track float64's."""

    @staticmethod
    def _as_read(packs):
        """The packs as read from files: every array float32."""
        return {i: featurestore.FeaturePack(
            image_id=p.image_id,
            global_feature=p.global_feature.astype(np.float32),
            conv_map=p.conv_map.astype(np.float32),
            region_features={r: f.astype(np.float32)
                             for r, f in p.region_features.items()})
            for i, p in packs.items()}

    @pytest.mark.parametrize("scale", ["micro", "paper"])
    def test_loss_and_grads_track_float64(self, scale):
        dims = MICRO_DIMS if scale == "micro" else {}
        corpus, packs = synthdata.synth_corpus(1, 1, seed=3, **dims)
        packs = self._as_read(packs)
        vocab = datamodel.build_vocab(corpus.records)
        cfg = (ModelConfig.micro(vocab.size) if scale == "micro"
               else ModelConfig(vocab_size=vocab.size))
        for rec in corpus.records:
            out = {}
            for dtype in (np.float64, np.float32):
                flat = np.zeros(qamodel.param_count(cfg), dtype)
                loss = qamodel.record_loss_and_grads(
                    init_params(cfg, 2, dtype), cfg, rec,
                    packs[rec.image_id], vocab, qamodel.param_views(flat, cfg))
                assert loss.dtype == dtype
                out[dtype] = float(loss), flat
            (loss64, grad64), (loss32, grad32) = out[np.float64], out[np.float32]
            assert abs(loss32 - loss64) < 1e-5, rec.kind
            assert (np.linalg.norm(grad32 - grad64)
                    < 1e-5 * np.linalg.norm(grad64)), rec.kind

    def test_a_float64_pack_does_not_widen_the_pass(self, micro_world):
        corpus, packs, vocab, cfg, _ = micro_world
        params = init_params(cfg, 1, np.float32)
        traces = qamodel.attention_traces(corpus.records, packs, params,
                                          vocab, cfg)
        for kind in ("telling", "pointing"):
            b, rec = next((b, r) for b, r in enumerate(corpus.records)
                          if r.kind == kind)
            pack = packs[rec.image_id]
            assert pack.conv_map.dtype == np.float64  # synthesized in memory
            grads = qamodel.param_views(
                np.zeros(qamodel.param_count(cfg), np.float32), cfg)
            loss = qamodel.record_loss_and_grads(params, cfg, rec, pack,
                                                 vocab, grads)
            assert loss.dtype == np.float32, kind
            q_tokens = vocab.encode(datamodel.tokenize(rec.question))
            state = encode(pack, q_tokens, params, cfg)
            assert state.h.dtype == state.conv.dtype == np.float32, kind
            dtypes = {a.dtype for a in traces[b]}
            assert dtypes == {np.dtype(np.float32)}, kind

    def test_train_keeps_float32(self, micro_world):
        corpus, packs, vocab, cfg, _ = micro_world
        params = init_params(cfg, 1, np.float32)
        tc = qamodel.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2)
        trained, curve = qamodel.train(corpus.records, packs, vocab, params,
                                       cfg, tc)
        _assert_one_vector(trained, cfg, np.float32)
        assert all(type(loss) is float for loss in curve)
        assert curve[-1] < curve[0]

    def test_mixed_dtypes_rejected(self, micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        mixed = dict(params, W_out=params["W_out"].astype(np.float32))
        with pytest.raises(TypeError, match="mix dtypes"):
            qamodel.train(corpus.records, packs, vocab, mixed, cfg,
                          qamodel.TrainConfig())
        with pytest.raises(TypeError, match="mix dtypes"):
            save_checkpoint(mixed, cfg, vocab, os.devnull)

    @pytest.mark.parametrize("kind", ["telling", "pointing"])
    def test_overfits_the_planted_corpora(self, kind):
        # the corpora, init and schedule of acceptance tests 02 and 03
        n_t, n_p = (64, 0) if kind == "telling" else (0, 64)
        corpus, packs = synthdata.synth_corpus(n_t, n_p, seed=7, **MICRO_DIMS)
        records, packs = corpus.records, self._as_read(packs)
        vocab = datamodel.build_vocab(records)
        cfg = ModelConfig.micro(vocab.size)
        params = init_params(cfg, 0, np.float32)
        epochs, acc = 0, 0.0
        while epochs < 300 and acc < 0.95:
            tc = qamodel.TrainConfig(epochs=25, batch_size=8,
                                     learning_rate=1e-3, seed=1000 + epochs)
            params, _ = qamodel.train(records, packs, vocab, params, cfg, tc)
            epochs += 25
            acc = qamodel.training_accuracy(records, packs, vocab, params,
                                            cfg)
        assert params["W_out"].dtype == np.float32
        assert acc >= 0.95, (acc, epochs)


class TestPassLifetime:
    """No pass's inputs outlive the gather of the next pass."""

    @pytest.mark.parametrize("run", ["batch_loss_and_grads",
                                     "attention_traces"])
    def test_no_pass_outlives_the_next_gather(self, micro_world,
                                              monkeypatch, run):
        corpus, packs, vocab, cfg, params = micro_world
        assert len(corpus.records) == 2 * qamodel.PASS_RECORDS
        real, convs, alive = qamodel._gather, [], []

        def gather(*args):
            # how many earlier passes' conv arrays are still alive
            alive.append(sum(ref() is not None for ref in convs))
            inputs = real(*args)
            convs.append(weakref.ref(inputs[1]))
            return inputs

        monkeypatch.setattr(qamodel, "_gather", gather)
        if run == "attention_traces":
            qamodel.attention_traces(corpus.records, packs, params, vocab,
                                     cfg)
        else:
            qamodel.batch_loss_and_grads(params, cfg, corpus.records, packs,
                                         vocab, zero_grads(cfg))
        assert alive == [0, 0]


class TestMemory:
    """
    The transient peak of `batch_loss_and_grads` (tracemalloc) at 49 cells,
    hidden 16 and attention width 16: no (T, B, cells, d_a) attention
    cache, and passes of at most PASS_RECORDS records.
    """

    CFG = ModelConfig(hidden=16, d_a=16, vocab_size=20, conv_cells=49,
                      conv_channels=10, feat_dim=14)

    def _peak(self, n_records, question_tokens, predict=False, cfg=CFG):
        packs = tiny_packs(dict(global_dim=cfg.feat_dim,
                                conv_cells=cfg.conv_cells,
                                conv_channels=cfg.conv_channels))
        records = [replace(tiny_telling_record(), qa_id=f"t{k}",
                           question=" ".join(["what"] * question_tokens))
                   for k in range(n_records)]
        params = init_params(cfg, 0)
        grads = zero_grads(cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if predict:
                qamodel.predict_batch(records, packs, params, vocab20(), cfg)
            else:
                qamodel.batch_loss_and_grads(params, cfg, records, packs,
                                             vocab20(), grads)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_does_not_keep_the_attention_tanh_per_step(self):
        cfg, batch = self.CFG, qamodel.PASS_RECORDS
        growth = self._peak(batch, 40) - self._peak(batch, 10)
        # what caching the tanh of the 30 extra steps would add on its own
        cached = 30 * batch * cfg.conv_cells * cfg.d_a * 8
        assert growth < cached, (growth, cached)

    def test_backward_holds_one_block_of_tanh(self, monkeypatch):
        # a pass holds the tanh of one block of maps, in forward and in
        # backward alike: one map per block instead of one block of all B
        # maps saves the other B - 1 maps, less the few array views each
        # block adds (tracemalloc counts those too). A 100 KB map sets the
        # peak.
        cfg, batch = replace(self.CFG, d_a=256), qamodel.PASS_RECORDS
        one_map = cfg.conv_cells * cfg.d_a * 8
        assert batch * one_map <= qamodel.ATTEND_BYTES
        whole = self._peak(batch, 10, cfg=cfg)
        monkeypatch.setattr(qamodel, "ATTEND_BYTES", one_map)
        saved = whole - self._peak(batch, 10, cfg=cfg)
        views = 2048 * batch
        assert saved >= (batch - 1) * one_map - views, (saved, one_map)

    def test_peak_does_not_grow_with_the_batch(self):
        at_cap = self._peak(qamodel.PASS_RECORDS, 10)
        assert self._peak(4 * qamodel.PASS_RECORDS, 10) < 1.1 * at_cap

    def test_prediction_peak_does_not_grow_with_the_passes(self):
        at_cap = self._peak(qamodel.PASS_RECORDS, 10, predict=True)
        assert self._peak(4 * qamodel.PASS_RECORDS, 10,
                          predict=True) < 1.1 * at_cap


def _assert_one_vector(params, cfg, dtype=np.float64):
    """The params tile one buffer back to back, in sorted name order."""
    names = sorted(param_shapes(cfg))
    assert list(param_shapes(cfg)) == names
    assert list(params) == names
    at = params[names[0]].ctypes.data
    for name in names:
        view = params[name]
        assert view.shape == param_shapes(cfg)[name], name
        assert view.dtype == dtype and view.flags.c_contiguous, name
        assert view.ctypes.data == at, name
        at += view.nbytes
    assert len({id(view.base) for view in params.values()}) == 1


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path, micro_world):
        _, _, vocab, cfg, params = micro_world
        p1 = tmp_path / "m.ckpt"
        p2 = tmp_path / "m2.ckpt"
        for mode in qamodel.MODES:
            cfg = replace(cfg, mode=mode)
            save_checkpoint(params, cfg, vocab, p1)
            loaded, cfg2, vocab2 = load_checkpoint(p1)
            assert cfg2 == cfg
            assert vocab2 == vocab
            for name in params:
                assert np.array_equal(loaded[name], params[name])
                # views of the file's bytes, not copies
                assert loaded[name].flags.aligned
                assert not loaded[name].flags.writeable
            save_checkpoint(loaded, cfg2, vocab2, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_region_is_the_flat_parameter_vector(self, tmp_path,
                                                          micro_world):
        corpus, packs, vocab, cfg, params = micro_world
        tc = qamodel.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-2)
        trained, _ = qamodel.train(corpus.records, packs, vocab, params, cfg,
                                   tc)
        flat_path, split_path = tmp_path / "flat.ckpt", tmp_path / "split.ckpt"
        save_checkpoint(trained, cfg, vocab, flat_path)
        save_checkpoint({k: v.copy() for k, v in trained.items()}, cfg, vocab,
                        split_path)
        data = flat_path.read_bytes()
        assert data == split_path.read_bytes()
        tensors = b"".join(trained[n].astype("<f8").tobytes()
                           for n in sorted(trained))
        assert data.endswith(tensors)
        assert (len(data) - len(tensors)) % 8 == 0
        loaded, _, _ = load_checkpoint(flat_path)
        _assert_one_vector(loaded, cfg)  # no copy per tensor
        for view in loaded.values():
            assert view.flags.aligned and not view.flags.writeable

    def test_unknown_mode_rejected(self, tmp_path, micro_world):
        _, _, vocab, cfg, params = micro_world
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, vocab, path)
        # magic, version, six i64 sizes, the u32 mode length, then the mode
        at = 6 + 6 * 8 + 4
        clean = path.read_bytes()
        assert clean[at:at + 7] == b"learned"
        path.write_bytes(clean[:at] + b"Learned" + clean[at + 7:])
        with pytest.raises(FormatError, match="mode 'Learned'"):
            load_checkpoint(path)

    def test_unknown_dtype_rejected(self, tmp_path, micro_world):
        _, _, vocab, cfg, params = micro_world
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, vocab, path)
        # the u32-prefixed dtype follows the u32-prefixed mode
        at = 6 + 6 * 8 + 4 + len(cfg.mode) + 4
        clean = path.read_bytes()
        assert clean[at:at + 3] == b"<f8"
        path.write_bytes(clean[:at] + b"<f2" + clean[at + 3:])
        with pytest.raises(FormatError, match="tensor dtype '<f2'"):
            load_checkpoint(path)

    def test_only_float32_and_float64_are_saved(self, micro_world):
        _, _, vocab, cfg, params = micro_world
        wide = {k: v.astype(np.longdouble) for k, v in params.items()}
        with pytest.raises(TypeError, match="float32 or float64"):
            save_checkpoint(wide, cfg, vocab, os.devnull)

    @settings(max_examples=40, deadline=None)
    @given(widths=st.tuples(*[st.integers(1, 6)] * 5),
           mode=st.sampled_from(qamodel.MODES),
           dtype=st.sampled_from(["<f4", "<f8"]),
           extra=st.lists(st.text(st.characters(blacklist_categories=["Cs"]),
                                  max_size=5), unique=True, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_round_trip_property(self, widths, mode, dtype, extra, seed,
                                 data):
        reserved = [datamodel.UNK, datamodel.END_ANSWER]
        vocab = datamodel.Vocabulary.from_tokens(
            reserved + [t for t in extra if t not in reserved])
        hidden, d_a, cells, channels, feat = widths
        cfg = ModelConfig(hidden=hidden, d_a=d_a, vocab_size=vocab.size,
                          conv_cells=cells, conv_channels=channels,
                          feat_dim=feat, mode=mode)
        rng = np.random.default_rng(seed)
        params = qamodel.param_views(
            rng.normal(size=qamodel.param_count(cfg)).astype(dtype), cfg)
        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "first.ckpt")
            again = os.path.join(tmp, "again.ckpt")
            save_checkpoint(params, cfg, vocab, first)
            loaded, cfg2, vocab2 = load_checkpoint(first)
            assert cfg2 == cfg and vocab2 == vocab
            for name, arr in params.items():
                assert loaded[name].dtype == np.dtype(dtype), name
                assert np.array_equal(loaded[name], arr), name
            save_checkpoint(loaded, cfg2, vocab2, again)
            with open(first, "rb") as f:
                clean = f.read()
            with open(again, "rb") as f:
                assert f.read() == clean
            cuts = data.draw(st.lists(st.integers(0, len(clean) - 1),
                                      min_size=1, max_size=4))
            for cut in cuts:
                with open(again, "wb") as f:
                    f.write(clean[:cut])
                with pytest.raises(FormatError, match="truncated"):
                    load_checkpoint(again)

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="'Learned'.*'uniform'"):
            ModelConfig(mode="Learned")

    def test_nonzero_padding_rejected(self, tmp_path):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=0), cfg, vocab, path)
        clean = path.read_bytes()
        # magic, version, six i64 sizes, then the mode, the tensor dtype
        # and the tokens
        fields_end = 6 + 6 * 8 + sum(
            4 + len(s.encode())
            for s in [cfg.mode, "<f8", *vocab.index_to_token])
        first_tensor = len(clean) - 8 * sum(
            math.prod(shape) for shape in param_shapes(cfg).values())
        assert first_tensor % 8 == 0
        assert 0 < first_tensor - fields_end < 8
        assert not any(clean[fields_end:first_tensor])
        for offset in range(fields_end, first_tensor):
            data = bytearray(clean)
            data[offset] = 1
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError, match="nonzero padding"):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path, micro_world):
        _, _, vocab, cfg, params = micro_world
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, vocab, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path, micro_world):
        _, _, vocab, cfg, params = micro_world
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, vocab, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_every_strict_prefix_rejected(self, tmp_path):
        vocab = vocab20()
        cfg = ModelConfig.micro(vocab.size)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=0), cfg, vocab, path)
        for cut in reversed(range(path.stat().st_size)):
            os.truncate(path, cut)  # much cheaper than rewriting the file
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["duplicate", "reserved_order"])
    def test_bad_vocabulary_rejected(self, tmp_path, edit):
        tokens = list(vocab20().index_to_token)
        if edit == "duplicate":
            tokens[3] = tokens[2]
        else:
            tokens[0], tokens[1] = tokens[1], tokens[0]
        cfg = ModelConfig.micro(len(tokens))
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=0), cfg,
                        datamodel.Vocabulary.from_tokens(tokens), path)
        with pytest.raises(FormatError, match="vocabulary"):
            load_checkpoint(path)
