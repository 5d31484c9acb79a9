"""
Batch driver: synthesize data, split, train, evaluate, gradient-check,
report statistics, and export attention heat maps.

Exit codes: 0 success, 1 usage, 2 validation, 3 numerics.
"""

import argparse
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
    task: str = "both"
    preset: str = "micro"
    hidden: int = None
    d_a: int = None
    epochs: int = 10
    batch: int = 128
    lr: float = 1e-4
    seed: int = 0
    out: str = None
    n_telling: int = 32
    n_pointing: int = 32
    gold_stub: bool = False
    blur: bool = False


_PRESETS = {"micro": qamodel.ModelConfig.micro, "full": qamodel.ModelConfig}
_CHOICES = {"mode": qamodel.MODES, "task": ("telling", "pointing", "both"),
            "preset": tuple(_PRESETS)}


def _build_parser() -> _Parser:
    """One flag per `RunConfig` field after `command`, typed by its field."""
    p = _Parser(prog="groundedqa", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="key=value config file; flags override")
    for f in fields(RunConfig)[1:]:
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, action="store_const", const=True)
        else:
            p.add_argument(flag, type=f.type, choices=_CHOICES.get(f.name))
    return p


def _config_file_flags(path) -> list:
    """The key=value lines of a config file, as command-line flag tokens."""
    kinds = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
    flags = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in kinds:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            flag = "--" + key.replace("_", "-")
            if kinds[key] is not bool:
                flags.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                flags.append(flag)
            elif value.lower() not in ("0", "false", "no"):
                raise UsageError(f"{path}:{lineno}: {key} must be true "
                                 f"or false, got {value!r}")
    return flags


def parse_config(argv) -> RunConfig:
    """CLI flags override config-file values override defaults."""
    if not argv:
        raise UsageError("no command given; commands: " + ", ".join(COMMANDS))
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:  # file values parse like flags given before the real ones
        args = parser.parse_args(_config_file_flags(args.config) + argv)
    explicit = {name: value for name, value in vars(args).items()
                if value is not None and name != "config"}
    cfg = RunConfig(**explicit)
    _validate_widths(cfg, explicit)
    return cfg


def _validate_widths(cfg: RunConfig, explicit) -> None:
    preset = _PRESETS[cfg.preset]()
    hidden = cfg.hidden if cfg.hidden is not None else preset.hidden
    d_a = cfg.d_a if cfg.d_a is not None else preset.d_a
    one_explicit = ("hidden" in explicit) != ("d_a" in explicit)
    if one_explicit and hidden != d_a:
        raise ValidationError(
            f"conflicting widths: hidden {hidden} vs attention width {d_a} "
            f"from preset {cfg.preset!r}; set both explicitly to mix them")
    cfg.hidden = hidden
    cfg.d_a = d_a


def _model_config(cfg: RunConfig, vocab_size: int) -> qamodel.ModelConfig:
    return replace(_PRESETS[cfg.preset](vocab_size=vocab_size),
                   hidden=cfg.hidden, d_a=cfg.d_a,
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


def _config_echo(cfg: RunConfig):
    return [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)
            if getattr(cfg, f.name) is not None]


def _prepare_out(cfg: RunConfig):
    if not cfg.out:
        raise UsageError("--out is required for this command")
    os.makedirs(cfg.out, exist_ok=True)
    echo = _config_echo(cfg)
    with open(os.path.join(cfg.out, "config.echo.txt"), "w") as f:
        f.write("\n".join(echo) + "\n")
    with open(os.path.join(cfg.out, "run.log"), "a") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {cfg.command}\n")
    return echo


def _require(cfg: RunConfig, *names):
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")
        if not os.path.exists(value):  # every required flag is a path
            raise UsageError(f"--{name.replace('_', '-')}: "
                             f"no such path {value!r}")


def _open_run(cfg: RunConfig, split=None):
    """
    Prepare --out; return echo, corpus, selected records and the
    `featurestore.PackFiles` of their images. Each pack is read and checked
    here, then dropped: it must hold its image and the region of every
    pointing candidate of its records.
    """
    _require(cfg, "corpus", "features")
    echo = _prepare_out(cfg)
    corpus = datamodel.parse_corpus(cfg.corpus)
    records = corpus.records
    if cfg.task != "both":
        records = [r for r in records if r.kind == cfg.task]
    if split and cfg.splits:
        assignment = datamodel.read_splits(cfg.splits).assignment
        records = [r for r in records if assignment.get(r.qa_id) == split]
    by_image = {}
    for rec in records:
        by_image.setdefault(rec.image_id, []).append(rec)
    packs = featurestore.PackFiles(cfg.features, by_image)
    for image_id, recs in by_image.items():
        regions = packs[image_id].region_features
        for rec in recs:
            if rec.kind != "pointing":
                continue
            for rid in (rec.answer, *rec.distractors):
                if rid not in regions:
                    raise ValidationError(
                        f"{packs.paths[image_id]}: no region feature for "
                        f"{rid!r}, a candidate of record {rec.qa_id}")
    return echo, corpus, records, packs


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
    _require(cfg, "corpus")
    echo = _prepare_out(cfg)
    corpus = datamodel.parse_corpus(cfg.corpus)
    splits = datamodel.make_splits(corpus, cfg.splits_seed)
    datamodel.write_splits(splits, os.path.join(cfg.out, "splits.tsv"),
                           header_lines=echo)
    return EXIT_OK


def _cmd_train(cfg: RunConfig) -> int:
    echo, _, records, packs = _open_run(cfg, split="train")
    if not records:
        raise ValidationError("no training records selected")
    vocab = datamodel.build_vocab(records)
    mc = _model_config(cfg, vocab.size)
    tc = qamodel.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch,
                             learning_rate=cfg.lr, seed=cfg.seed)
    # float32 halves the memory traffic of every pass and of Adam; no local
    # holds the init params, so they are freed once train copies them
    params, curve = qamodel.train(
        records, packs, vocab, qamodel.init_params(mc, cfg.seed, np.float32),
        mc, tc)
    qamodel.save_checkpoint(params, mc, vocab,
                            os.path.join(cfg.out, "model.ckpt"))
    with open(os.path.join(cfg.out, "loss_curve.txt"), "w") as f:
        for line in echo:
            f.write(f"# {line}\n")
        for epoch, loss in enumerate(curve):
            f.write(f"{epoch}\t{loss:.10f}\n")
    return EXIT_OK


def _cmd_eval(cfg: RunConfig) -> int:
    echo, _, records, packs = _open_run(cfg, split="test")
    if not records:
        raise ValidationError("no test records selected")
    if cfg.gold_stub:
        outcomes = [datamodel.mc_candidates(rec)[1] for rec in records]
    else:
        _require(cfg, "checkpoint")
        params, mc, vocab = _load_model(cfg)
        outcomes = [o if isinstance(o, Exception) else o[0] for o in
                    qamodel.predict_batch(records, packs, params, vocab, mc)]
    report = evalkit.tally(records, outcomes)
    with open(os.path.join(cfg.out, "report.txt"), "w") as f:
        f.write(report.to_text(header_lines=echo))
    if report.errors:
        qa_id, msg = report.errors[0]
        raise ValidationError(
            f"{len(report.errors)} of {report.total} records failed; "
            f"first {qa_id}: {msg}")
    return EXIT_OK


def _cmd_gradcheck(cfg: RunConfig) -> int:
    echo = _prepare_out(cfg) if cfg.out else _config_echo(cfg)
    corpus, packs = synthdata.synth_corpus(
        2, 2, cfg.seed, global_dim=12, conv_cells=4, conv_channels=6)
    vocab = datamodel.build_vocab(corpus.records)
    mc = _model_config(cfg, vocab.size)
    params = qamodel.init_params(mc, cfg.seed)
    worst = 0.0
    for rec in corpus.records:
        pack = packs[rec.image_id]
        loss_fn, grad_fn = qamodel.gradcheck_fns(mc, rec, pack, vocab)
        result = finite_diff_grad_check(loss_fn, grad_fn, params)
        worst = max(worst, result.max_rel_error)
        print(f"{rec.qa_id}: max relative error {result.max_rel_error:.3e} "
              f"({result.worst_param})")
    print(f"overall max relative error {worst:.3e}")
    if cfg.out:
        with open(os.path.join(cfg.out, "gradcheck.txt"), "w") as f:
            for line in echo:
                f.write(f"# {line}\n")
            f.write(f"max_rel_error\t{worst:.6e}\n")
    if worst >= 1e-4:
        raise NumericsError(f"gradient check failed: {worst:.3e} >= 1e-4")
    return EXIT_OK


def _cmd_stats(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    echo = _prepare_out(cfg)
    corpus = datamodel.parse_corpus(cfg.corpus)
    stats = datamodel.corpus_stats(corpus)
    bins = datamodel.object_frequency_bins(corpus.records)
    with open(os.path.join(cfg.out, "stats.txt"), "w") as f:
        for line in echo:
            f.write(f"# {line}\n")
        f.write(f"avg_q_len\t{stats.avg_q_len:.4f}\t{stats.sd_q_len:.4f}\n")
        f.write(f"avg_a_len\t{stats.avg_a_len:.4f}\t{stats.sd_a_len:.4f}\n")
        f.write(f"long_answer_frac\t{stats.long_answer_frac:.4f}\n")
        f.write(f"top_1000_coverage\t{stats.top_1000_coverage:.4f}\n")
        for k in (1, 2, 3):
            f.write(f"answer_len_{k}\t{stats.answer_len_hist[k]:.4f}\n")
        f.write(f"n_telling\t{stats.n_telling}\n")
        f.write(f"n_pointing\t{stats.n_pointing}\n")
        for ub in sorted(bins):
            names = ",".join(sorted(bins[ub]))
            f.write(f"freq_bin_{ub}\t{names}\n")
    return EXIT_OK


def _cmd_heatmap(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "splits")  # maps the test split only
    _, corpus, records, packs = _open_run(cfg, split="test")
    params, mc, vocab = _load_model(cfg)
    dims = {image_id: (w, h) for image_id, w, h in corpus.images}
    for rec in records:
        trace = qamodel.attention_trace(rec, packs[rec.image_id], params,
                                        vocab, mc)
        heatmap = evalkit.attention_heatmap(trace, *dims[rec.image_id])
        evalkit.export_heatmap_image(
            heatmap, os.path.join(cfg.out, f"{rec.qa_id}.pgm"),
            blur=cfg.blur)
    return EXIT_OK


_DISPATCH = {
    "synth": _cmd_synth, "split": _cmd_split, "train": _cmd_train,
    "eval": _cmd_eval, "gradcheck": _cmd_gradcheck, "stats": _cmd_stats,
    "heatmap": _cmd_heatmap,
}
COMMANDS = tuple(_DISPATCH)


def run(cfg: RunConfig) -> int:
    return _DISPATCH[cfg.command](cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        print("commands: " + " | ".join(COMMANDS), file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ValueError, OSError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, FloatingPointError) as e:
        print(f"numerics error: {e}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
