"""
Plain per-gate reference for the attention LSTM: one tensor per gate
(`Wv_i`, `Wh_f`, `b_o`, ...), a Python loop over the steps and one outer
product per weight per step. It is the arithmetic the stacked, hoisted core
in `groundedqa.qamodel` must reproduce, kept as an oracle for the tests.
`train` is the per-tensor Adam loop, one record at a time, that batched
training on one flat parameter vector must reproduce to round-off: the
batched passes sum the records' gradients in another order.
"""

import numpy as np

from groundedqa import datamodel, qamodel
from groundedqa.qamodel import LEARNED, UNIFORM, slice_pack
from groundedqa.numkit import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                               AdamState, sigmoid, softmax_rows)

GATES = ("i", "f", "o", "g")  # also the block order of the stacked weights
_STACKED = {"Wv": "Wv_", "Wh": "Wh_", "Wr": "Wr_", "b_gates": "b_"}


def per_gate_shapes(cfg):
    h, da, v = cfg.hidden, cfg.d_a, cfg.vocab_size
    ch, ft = cfg.conv_channels, cfg.feat_dim
    shapes = {
        "W_img": (h, ft), "b_img": (h,),
        "W_word": (h, v),
        "W_he": (da, h), "W_ce": (da, ch), "w_a": (da,), "b_a": (1,),
        "W_out": (v, h), "b_out": (v,),
        "W_ptr": (h, ft), "b_ptr": (h,),
    }
    for x in GATES:
        shapes[f"Wv_{x}"] = (h, h)
        shapes[f"Wh_{x}"] = (h, h)
        shapes[f"Wr_{x}"] = (h, ch)
        shapes[f"b_{x}"] = (h,)
    return shapes


def per_gate_init(cfg, seed):
    """Uniform[-s, s] weights with s = 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in sorted(per_gate_shapes(cfg).items()):
        if name.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[-1] if len(shape) > 1 else shape[0]
            s = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-s, s, size=shape)
    return params


def split_gates(params):
    """Stacked layout -> per-gate layout (copies)."""
    out = {k: v.copy() for k, v in params.items() if k not in _STACKED}
    for stacked, prefix in _STACKED.items():
        for x, block in zip(GATES, np.split(params[stacked], len(GATES))):
            out[prefix + x] = block.copy()
    return out


def stack_gates(params):
    """Per-gate layout -> stacked layout."""
    out = {k: v for k, v in params.items()
           if not any(k.startswith(p) and k[len(p):] in GATES
                      for p in _STACKED.values())}
    for stacked, prefix in _STACKED.items():
        out[stacked] = np.concatenate([params[prefix + x] for x in GATES])
    return out


def _attention_fwd(h_prev, conv_map, params, mode):
    cells = conv_map.shape[0]
    if mode == UNIFORM:
        a = np.full(cells, 1.0 / cells)
        r = conv_map.mean(axis=0)
        return a, r, None, None
    z = params["W_he"] @ h_prev + conv_map @ params["W_ce"].T  # (cells, d_a)
    u = np.tanh(z)
    e = u @ params["w_a"] + params["b_a"][0]
    a = softmax_rows(e)
    r = a @ conv_map
    return a, r, u, e


def _lstm_fwd(v, h_prev, c_prev, r, params):
    pre = {}
    for x in GATES:
        pre[x] = (params[f"Wv_{x}"] @ v + params[f"Wh_{x}"] @ h_prev
                  + params[f"Wr_{x}"] @ r + params[f"b_{x}"])
    gi, gf, go = sigmoid(pre["i"]), sigmoid(pre["f"]), sigmoid(pre["o"])
    gg = np.tanh(pre["g"])
    c = gf * c_prev + gi * gg
    h = go * np.tanh(c)
    gates = {"i": gi, "f": gf, "o": go, "g": gg}
    return h, c, gates


def run_steps(params, conv, inputs, mode, h0=None, c0=None):
    """
    Feed a list of ("image", feature) / ("token", index) inputs through the
    cell, caching everything the backward pass needs.
    """
    h = np.zeros_like(params["b_i"]) if h0 is None else h0
    c = np.zeros_like(h) if c0 is None else c0
    caches = []
    for kind, value in inputs:
        if kind == "image":
            v = params["W_img"] @ value + params["b_img"]
        else:
            v = params["W_word"][:, value].copy()
        a, r, u, _ = _attention_fwd(h, conv, params, mode)
        h_new, c_new, gates = _lstm_fwd(v, h, c, r, params)
        caches.append({"kind": kind, "value": value, "v": v, "h_prev": h,
                       "c_prev": c, "a": a, "r": r, "u": u,
                       "gates": gates, "h": h_new, "c": c_new})
        h, c = h_new, c_new
    return h, c, caches


def backward_steps(params, cfg, conv, caches, dh_acc, mode, grads):
    """
    Backpropagate through a cached run of run_steps. dh_acc maps step index
    to a gradient injected at that step's hidden state (from output heads).
    """
    T = len(caches)
    dh_next = np.zeros(cfg.hidden)
    dc_next = np.zeros(cfg.hidden)
    for t in range(T - 1, -1, -1):
        st = caches[t]
        dh = dh_next + dh_acc.get(t, 0.0)
        dc = dc_next.copy()
        gi, gf, go, gg = (st["gates"][x] for x in GATES)
        tc = np.tanh(st["c"])
        do = dh * tc
        dc += dh * go * (1 - tc * tc)
        df = dc * st["c_prev"]
        dc_prev = dc * gf
        di = dc * gg
        dg = dc * gi
        dz = {"i": di * gi * (1 - gi), "f": df * gf * (1 - gf),
              "o": do * go * (1 - go), "g": dg * (1 - gg * gg)}
        dv = np.zeros(cfg.hidden)
        dh_prev = np.zeros(cfg.hidden)
        dr = np.zeros(cfg.conv_channels)
        for x in GATES:
            grads[f"Wv_{x}"] += np.outer(dz[x], st["v"])
            grads[f"Wh_{x}"] += np.outer(dz[x], st["h_prev"])
            grads[f"Wr_{x}"] += np.outer(dz[x], st["r"])
            grads[f"b_{x}"] += dz[x]
            dv += params[f"Wv_{x}"].T @ dz[x]
            dh_prev += params[f"Wh_{x}"].T @ dz[x]
            dr += params[f"Wr_{x}"].T @ dz[x]
        if mode == LEARNED:
            a, u = st["a"], st["u"]
            da = conv @ dr
            de = a * (da - float(a @ da))
            grads["b_a"][0] += de.sum()
            grads["w_a"] += u.T @ de
            dz_att = np.outer(de, params["w_a"]) * (1 - u * u)
            grads["W_ce"] += dz_att.T @ conv
            s = dz_att.sum(axis=0)
            grads["W_he"] += np.outer(s, st["h_prev"])
            dh_prev += params["W_he"].T @ s
        if st["kind"] == "image":
            grads["W_img"] += np.outer(dv, st["value"])
            grads["b_img"] += dv
        else:
            # one column update per step, so a repeated token adds up
            grads["W_word"][:, st["value"]] += dv
        dh_next = dh_prev
        dc_next = dc_prev


def _zero(cfg):
    return {n: np.zeros(s) for n, s in per_gate_shapes(cfg).items()}


def telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens, mode):
    feat, conv = slice_pack(pack, cfg)
    inputs = ([("image", feat)] + [("token", t) for t in q_tokens]
              + [("token", t) for t in a_tokens])
    _, _, caches = run_steps(params, conv, inputs, mode)
    m, n = len(q_tokens), len(a_tokens)
    targets = list(a_tokens) + [1]
    grads = _zero(cfg)
    dh_acc = {}
    loss = 0.0
    scale = 1.0 / (n + 1)
    for k, target in enumerate(targets):
        t = m + k
        h_t = caches[t]["h"]
        probs = softmax_rows(params["W_out"] @ h_t + params["b_out"])
        loss = loss - scale * np.log(max(probs[target], 1e-12))
        dlogits = probs * scale
        dlogits[target] -= scale
        grads["W_out"] += np.outer(dlogits, h_t)
        grads["b_out"] += dlogits
        dh_acc[t] = dh_acc.get(t, 0.0) + params["W_out"].T @ dlogits
    backward_steps(params, cfg, conv, caches, dh_acc, mode, grads)
    return loss, grads


def pointing_loss_and_grads(params, cfg, pack, q_tokens, cand_features,
                            target, mode):
    feat, conv = slice_pack(pack, cfg)
    inputs = [("image", feat)] + [("token", t) for t in q_tokens]
    h, _, caches = run_steps(params, conv, inputs, mode)
    transformed = [params["W_ptr"] @ f + params["b_ptr"]
                   for f in cand_features]
    scores = np.array([tv @ h for tv in transformed])
    probs = softmax_rows(scores)
    loss = -np.log(max(probs[target], 1e-12))
    ds = probs.copy()
    ds[target] -= 1.0
    grads = _zero(cfg)
    dh = np.zeros(cfg.hidden)
    for k, (tv, f) in enumerate(zip(transformed, cand_features)):
        dh += ds[k] * tv
        grads["W_ptr"] += ds[k] * np.outer(h, f)
        grads["b_ptr"] += ds[k] * h
    backward_steps(params, cfg, conv, caches, {len(caches) - 1: dh}, mode,
                   grads)
    return loss, grads


def record_loss_and_grads(params, cfg, record, pack, vocab, mode):
    """(loss, per-gate grads) for one record, from per-gate params."""
    q_tokens = vocab.encode(datamodel.tokenize(record.question))
    if record.kind == "telling":
        a_tokens = vocab.encode(datamodel.tokenize(record.answer))
        return telling_loss_and_grads(params, cfg, pack, q_tokens, a_tokens,
                                      mode)
    cands, target = datamodel.mc_candidates(record)
    feats = [pack.region_features[c][:cfg.feat_dim] for c in cands]
    return pointing_loss_and_grads(params, cfg, pack, q_tokens, feats,
                                   target, mode)


def adam_step(param, grad, state):
    """Whole-array Adam: rebinds the moments and returns a new param."""
    state.step_count += 1
    t = state.step_count
    state.first_moment = (ADAM_BETA1 * state.first_moment
                          + (1 - ADAM_BETA1) * grad)
    state.second_moment = (ADAM_BETA2 * state.second_moment
                           + (1 - ADAM_BETA2) * grad * grad)
    m_hat = state.first_moment / (1 - ADAM_BETA1 ** t)
    v_hat = state.second_moment / (1 - ADAM_BETA2 ** t)
    return param - state.learning_rate * m_hat / (np.sqrt(v_hat)
                                                  + ADAM_EPSILON)


def train(records, packs, vocab, params, cfg, train_cfg):
    """
    Mini-batch training with one gradient array, one AdamState and one
    Adam update per tensor, over the stacked model's loss and gradients of
    one record at a time, which it sums itself. It does not clip.
    """
    params = {k: v.copy() for k, v in params.items()}
    states = {name: AdamState.for_param(p, train_cfg.learning_rate)
              for name, p in params.items()}
    rng = np.random.default_rng(train_cfg.seed)
    order = np.arange(len(records))
    curve = []
    for _ in range(train_cfg.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            grads = qamodel.zero_grads(cfg)
            batch_loss = 0.0
            for idx in batch:
                rec = records[idx]
                record_grads = qamodel.zero_grads(cfg)
                batch_loss += qamodel.record_loss_and_grads(
                    params, cfg, rec, packs[rec.image_id], vocab,
                    record_grads)
                for name, g in record_grads.items():
                    grads[name] += g
            epoch_loss += batch_loss
            for g in grads.values():
                g *= 1.0 / len(batch)
            for name in sorted(params):
                params[name] = adam_step(params[name], grads[name],
                                         states[name])
        curve.append(epoch_loss / len(order))
    return params, curve
