"""
Batch driver: synthesize data, split, train, evaluate, gradient-check,
report statistics, and export attention heat maps.

Exit codes: 0 success, 1 usage, 2 validation or out of memory, 3 numerics.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import datamodel, evalkit, featurestore, qamodel, synthdata
from .numkit import NumericsError, finite_diff_grad_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str = ""
    corpus: str = None
    features: str = None
    splits: str = None
    splits_seed: int = 0
    checkpoint: str = None
    mode: str = None  # None: learned at train, the checkpoint's at eval
    preset: str = "micro"
    hidden: int = None  # also the attention width; None: the preset's
    epochs: int = 10
    batch: int = 128
    lr: float = 1e-4
    seed: int = 0
    out: str = None
    n_telling: int = 32
    n_pointing: int = 32


_PRESETS = {"micro": qamodel.ModelConfig.micro, "full": qamodel.ModelConfig}
_CHOICES = {"mode": qamodel.MODES, "preset": tuple(_PRESETS)}
_AT_LEAST = {"hidden": 1, "batch": 1, "epochs": 0, "n_telling": 0,
             "n_pointing": 0, "seed": 0, "splits_seed": 0}


def _build_parser() -> _Parser:
    """One flag per `RunConfig` field after `command`, typed by its field."""
    p = _Parser(prog="groundedqa", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    for f in fields(RunConfig)[1:]:
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                       choices=_CHOICES.get(f.name))
    return p


def parse_config(argv) -> RunConfig:
    """The run the flags ask for; an unset flag takes its default."""
    if not argv:
        raise UsageError("no command given; commands: " + ", ".join(COMMANDS))
    explicit = {name: value for name, value
                in vars(_build_parser().parse_args(argv)).items()
                if value is not None}
    _validate_ranges(explicit)
    cfg = RunConfig(**explicit)
    if cfg.hidden is None:
        cfg.hidden = _PRESETS[cfg.preset]().hidden
    return cfg


def _validate_ranges(explicit) -> None:
    """ValidationError for a numeric flag out of range."""
    for name, low in _AT_LEAST.items():
        if explicit.get(name, low) < low:
            raise ValidationError(f"--{name.replace('_', '-')} must be at "
                                  f"least {low}, got {explicit[name]}")
    lr = explicit.get("lr", 1.0)
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"--lr must be finite and greater than 0, "
                              f"got {lr}")


def _model_config(cfg: RunConfig, vocab_size: int) -> qamodel.ModelConfig:
    return replace(_PRESETS[cfg.preset](vocab_size=vocab_size),
                   hidden=cfg.hidden, d_a=cfg.hidden,
                   mode=cfg.mode or qamodel.LEARNED)


def _load_model(cfg: RunConfig):
    """The checkpoint's (params, ModelConfig, vocab); --mode must match."""
    params, mc, vocab = qamodel.load_checkpoint(cfg.checkpoint)
    if cfg.mode not in (None, mc.mode):
        raise ValidationError(
            f"--mode {cfg.mode} does not match the {mc.mode} attention "
            f"mode of checkpoint {cfg.checkpoint}")
    for name, limit in (("feat_dim", featurestore.GLOBAL_DIM),
                        ("conv_cells", featurestore.CONV_CELLS),
                        ("conv_channels", featurestore.CONV_CHANNELS)):
        size = getattr(mc, name)
        if size > limit:
            raise ValidationError(
                f"checkpoint {cfg.checkpoint}: {name} {size} exceeds the "
                f"feature pack's {limit}")
    return params, mc, vocab


def _write_text(cfg: RunConfig, name, lines, echo=()):
    """Write --out/<name>: `echo` as `# key=value` rows, then `lines`."""
    with open(os.path.join(cfg.out, name), "w") as f:
        f.writelines(f"{line}\n" for line in
                     [*(f"# {e}" for e in echo), *lines])


def _prepare_out(cfg: RunConfig, mc=None, dtype=None):
    """
    Make --out, log the command in its run.log and write config.echo.txt,
    the header of every report the command writes: command=, each flag of
    its `_COMMAND_TABLE` row that is set (splits=default:<seed> without
    --splits), --out, and, when it runs the model `mc` in `dtype`, the
    model's hidden, mode, vocab_size and dtype in place of those flags.
    """
    os.makedirs(cfg.out, exist_ok=True)
    _, required, reads = _COMMAND_TABLE[cfg.command]
    model = {} if mc is None else dict(
        hidden=mc.hidden, mode=mc.mode, vocab_size=mc.vocab_size,
        dtype=np.dtype(dtype).name)
    flags = {name: getattr(cfg, name) for name
             in ("command", *required, *reads, "out") if name not in model}
    if "splits" in flags and cfg.splits is None:
        flags["splits"] = f"default:{cfg.splits_seed}"
    echo = [f"{k}={v}" for k, v in {**flags, **model}.items() if v is not None]
    _write_text(cfg, "config.echo.txt", echo)
    with open(os.path.join(cfg.out, "run.log"), "a") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {cfg.command}\n")
    return echo


def _open_run(cfg: RunConfig, split):
    """
    The records of `split` and the `featurestore.PackFiles` of their
    images, once every input checks out; the caller then prepares --out.
    A split that selects no record is a ValidationError. Without --splits,
    the split is `datamodel.make_splits(corpus, --splits-seed)`. Each pack
    is read once, which checks it (`PackFiles`), and dropped.
    """
    corpus = datamodel.parse_corpus(cfg.corpus)
    splits = (datamodel.read_splits(cfg.splits) if cfg.splits
              else datamodel.make_splits(corpus, cfg.splits_seed))
    records = [r for r in corpus.records
               if splits.assignment.get(r.qa_id) == split]
    if not records:
        raise ValidationError(f"no {split} records selected")
    packs = featurestore.PackFiles(cfg.features, records)
    for image_id in packs.paths:
        packs[image_id]  # reads and checks the pack, then drops it
    return records, packs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(cfg: RunConfig) -> int:
    _prepare_out(cfg)
    corpus, packs = synthdata.synth_corpus(cfg.n_telling, cfg.n_pointing,
                                           cfg.seed)
    datamodel.write_corpus(corpus, os.path.join(cfg.out, "corpus.json"))
    pack_dir = os.path.join(cfg.out, "packs")
    os.makedirs(pack_dir, exist_ok=True)
    for image_id in sorted(packs):
        featurestore.write_feature_pack(
            packs[image_id], featurestore.pack_path(pack_dir, image_id))
    return EXIT_OK


def _cmd_split(cfg: RunConfig) -> int:
    corpus = datamodel.parse_corpus(cfg.corpus)
    echo = _prepare_out(cfg)
    splits = datamodel.make_splits(corpus, cfg.splits_seed)
    datamodel.write_splits(splits, os.path.join(cfg.out, "splits.tsv"),
                           header_lines=echo)
    return EXIT_OK


def _cmd_train(cfg: RunConfig) -> int:
    records, packs = _open_run(cfg, split="train")
    vocab = datamodel.build_vocab(records)
    mc = _model_config(cfg, vocab.size)
    echo = _prepare_out(cfg, mc, np.float32)
    tc = qamodel.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch,
                             learning_rate=cfg.lr, seed=cfg.seed)
    # float32 halves the memory traffic of every pass and of Adam; no local
    # holds the init params, so they are freed once train copies them
    params, curve = qamodel.train(
        records, packs, vocab, qamodel.init_params(mc, cfg.seed, np.float32),
        mc, tc)
    qamodel.save_checkpoint(params, mc, vocab,
                            os.path.join(cfg.out, "model.ckpt"))
    _write_text(cfg, "loss_curve.txt",
                (f"{epoch}\t{loss:.10f}" for epoch, loss in enumerate(curve)),
                echo)
    return EXIT_OK


def _cmd_eval(cfg: RunConfig) -> int:
    params, mc, vocab = _load_model(cfg)
    records, packs = _open_run(cfg, split="test")
    echo = _prepare_out(cfg, mc, params["W_img"].dtype)
    outcomes = [o if isinstance(o, Exception) else o[0] for o in
                qamodel.predict_batch(records, packs, params, vocab, mc)]
    report = evalkit.tally(records, outcomes)
    _write_text(cfg, "report.txt", report.lines(), echo)
    if report.errors:
        qa_id, msg = report.errors[0]
        raise ValidationError(
            f"{len(report.errors)} of {report.total} records failed; "
            f"first {qa_id}: {msg}")
    return EXIT_OK


def _cmd_gradcheck(cfg: RunConfig) -> int:
    if cfg.preset != "micro":  # its packs are synthesized at micro shapes
        raise UsageError(f"--preset {cfg.preset}: gradcheck runs at the "
                         f"micro preset only")
    micro = qamodel.ModelConfig.micro()
    corpus, packs = synthdata.synth_corpus(
        2, 2, cfg.seed, global_dim=micro.feat_dim,
        conv_cells=micro.conv_cells, conv_channels=micro.conv_channels)
    vocab = datamodel.build_vocab(corpus.records)
    mc = _model_config(cfg, vocab.size)
    params = qamodel.init_params(mc, cfg.seed)
    echo = _prepare_out(cfg, mc, params["W_img"].dtype)
    rows, worst = [], 0.0
    for rec in corpus.records:
        pack = packs[rec.image_id]
        loss_fn, grad_fn = qamodel.gradcheck_fns(mc, rec, pack, vocab)
        result = finite_diff_grad_check(loss_fn, grad_fn, params)
        worst = max(worst, result.max_rel_error)
        print(f"{rec.qa_id}: max relative error {result.max_rel_error:.3e} "
              f"({result.worst_param})")
        rows.append(f"{rec.qa_id}\t{result.max_rel_error:.6e}\t"
                    f"{result.worst_param}")
    print(f"overall max relative error {worst:.3e}")
    _write_text(cfg, "gradcheck.txt", [*rows, f"max_rel_error\t{worst:.6e}"],
                echo)
    if worst >= 1e-4:
        raise NumericsError(f"gradient check failed: {worst:.3e} >= 1e-4")
    return EXIT_OK


def _cmd_stats(cfg: RunConfig) -> int:
    corpus = datamodel.parse_corpus(cfg.corpus)
    echo = _prepare_out(cfg)
    stats = datamodel.corpus_stats(corpus)
    bins = datamodel.object_frequency_bins(corpus.records)
    _write_text(cfg, "stats.txt", [
        f"avg_q_len\t{stats.avg_q_len:.4f}\t{stats.sd_q_len:.4f}",
        f"avg_a_len\t{stats.avg_a_len:.4f}\t{stats.sd_a_len:.4f}",
        f"long_answer_frac\t{stats.long_answer_frac:.4f}",
        f"top_1000_coverage\t{stats.top_1000_coverage:.4f}",
        *(f"answer_len_{k}\t{stats.answer_len_hist[k]:.4f}"
          for k in (1, 2, 3)),
        f"n_telling\t{stats.n_telling}",
        f"n_pointing\t{stats.n_pointing}",
        *(f"freq_bin_{ub}\t{','.join(sorted(bins[ub]))}"
          for ub in sorted(bins))], echo)
    return EXIT_OK


def _cmd_heatmap(cfg: RunConfig) -> int:
    params, mc, vocab = _load_model(cfg)
    if mc.conv_cells != featurestore.CONV_CELLS:  # a map covers the image
        raise ValidationError(
            f"checkpoint {cfg.checkpoint} reads {mc.conv_cells} conv cells; "
            f"a heat map needs the pack's whole grid of "
            f"{featurestore.CONV_CELLS}")
    records, packs = _open_run(cfg, split="test")
    _prepare_out(cfg, mc, params["W_img"].dtype)
    for rec, trace in zip(records, qamodel.attention_traces(
            records, packs, params, vocab, mc)):
        evalkit.export_heatmap_image(evalkit.attention_heatmap(trace),
                                     os.path.join(cfg.out, f"{rec.qa_id}.pgm"))
    return EXIT_OK


# command: (function, the paths it requires, in the order `run` checks them,
# the other flags it reads); "splits" is --splits, or --splits-seed without it
_COMMAND_TABLE = {
    "synth": (_cmd_synth, (), ("n_telling", "n_pointing", "seed")),
    "split": (_cmd_split, ("corpus",), ("splits_seed",)),
    "train": (_cmd_train, ("corpus", "features"), ("splits", "preset",
              "hidden", "mode", "epochs", "batch", "lr", "seed")),
    "eval": (_cmd_eval, ("checkpoint", "corpus", "features"),
             ("splits", "mode")),
    "gradcheck": (_cmd_gradcheck, (), ("preset", "hidden", "mode", "seed")),
    "stats": (_cmd_stats, ("corpus",), ()),
    "heatmap": (_cmd_heatmap, ("checkpoint", "corpus", "features"),
                ("splits", "mode")),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run(cfg: RunConfig) -> int:
    if not cfg.out:
        raise UsageError("--out is required")
    function, required, _ = _COMMAND_TABLE[cfg.command]
    for name in required:
        path = getattr(cfg, name)
        if path is None or not os.path.exists(path):
            raise UsageError(f"--{name} is required" if path is None
                             else f"--{name}: no such path {path!r}")
    return function(cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_config(argv))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        print("commands: " + " | ".join(COMMANDS), file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ValueError, OSError, MemoryError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, FloatingPointError) as e:
        print(f"numerics error: {e}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
