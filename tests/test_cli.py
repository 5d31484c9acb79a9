import filecmp
import os
import shutil
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from groundedqa import cli, datamodel, featurestore, qamodel
from groundedqa.numkit import GradCheckResult


def _run(*argv):
    return cli.main(list(argv))


class TestParsing:
    def test_no_args_is_usage_error(self, capsys):
        assert _run() == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert _run("frobnicate") == 1

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr = 0.5\nepochs = 7\n")
        cfg = cli.parse_config(["train", "--config", str(cfg_file),
                                "--lr", "0.25"])
        assert cfg.lr == 0.25  # flag wins
        assert cfg.epochs == 7  # file fills the rest

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("warp_factor=9\n")
        with pytest.raises(cli.UsageError, match="warp_factor"):
            cli.parse_config(["train", "--config", str(cfg_file)])

    def test_config_file_bad_choice_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mode=garbage\n")
        assert _run("eval", "--config", str(cfg_file), "--gold-stub",
                    "--out", str(tmp_path / "o")) == 1
        assert "garbage" in capsys.readouterr().err

    def test_config_file_width_conflicts_with_preset(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("hidden=16\n")
        assert _run("gradcheck", "--config", str(cfg_file)) == 2
        assert "conflicting widths" in capsys.readouterr().err

    def test_conflicting_widths_rejected(self, capsys):
        # hidden explicit, d_a from the micro preset (8): mismatch
        assert _run("gradcheck", "--hidden", "16") == 2
        assert "conflicting widths" in capsys.readouterr().err

    def test_both_widths_explicit_allowed(self):
        cfg = cli.parse_config(["gradcheck", "--hidden", "16",
                                "--d-a", "4"])
        assert cfg.hidden == 16 and cfg.d_a == 4

    def test_single_width_matching_preset_allowed(self):
        cfg = cli.parse_config(["gradcheck", "--hidden", "8"])
        assert cfg.hidden == 8 and cfg.d_a == 8


def _tree_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = path
    return out


class TestSynth:
    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("synth", "--n-telling", "3", "--n-pointing", "2",
                        "--seed", "11", "--out", str(out)) == 0
        fa, fb = _tree_files(a), _tree_files(b)
        assert set(fa) == set(fb)
        for rel in fa:
            # run.log is timestamped; the echo includes the --out path
            if rel in ("run.log", "config.echo.txt"):
                continue
            assert filecmp.cmp(fa[rel], fb[rel], shallow=False), rel

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run("synth", "--n-telling", "2", "--n-pointing", "0",
             "--seed", "1", "--out", str(a))
        _run("synth", "--n-telling", "2", "--n-pointing", "0",
             "--seed", "2", "--out", str(b))
        pack = next(r for r in _tree_files(a) if r.endswith(".fpk"))
        assert not filecmp.cmp(_tree_files(a)[pack], _tree_files(b)[pack],
                               shallow=False)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """synth -> split once for the pipeline tests."""
    root = tmp_path_factory.mktemp("cliworld")
    data = root / "data"
    assert _run("synth", "--n-telling", "6", "--n-pointing", "6",
                "--seed", "3", "--out", str(data)) == 0
    splits = root / "splits"
    assert _run("split", "--corpus", str(data / "corpus.json"),
                "--splits-seed", "9", "--out", str(splits)) == 0
    return {"root": root, "corpus": str(data / "corpus.json"),
            "features": str(data / "packs"),
            "splits": str(splits / "splits.tsv")}


@pytest.fixture(scope="module")
def untrained_ckpt(world):
    run = world["root"] / "untrained"
    assert _run("train", "--corpus", world["corpus"],
                "--features", world["features"], "--splits", world["splits"],
                "--epochs", "0", "--out", str(run)) == 0
    return run / "model.ckpt"


@pytest.fixture(scope="module")
def trained_run(world):
    run = world["root"] / "run"
    assert _run("train", "--corpus", world["corpus"],
                "--features", world["features"], "--splits", world["splits"],
                "--epochs", "2", "--batch", "4", "--seed", "0",
                "--out", str(run)) == 0
    return run


@pytest.fixture(scope="module")
def uniform_ckpt(world):
    run = world["root"] / "uniform"
    assert _run("train", "--corpus", world["corpus"],
                "--features", world["features"], "--splits", world["splits"],
                "--mode", "uniform", "--epochs", "2", "--batch", "4",
                "--out", str(run)) == 0
    return run / "model.ckpt"


class TestPipeline:
    def test_split_echo_and_sizes(self, world):
        with open(world["splits"]) as f:
            lines = f.read().splitlines()
        echo = [l for l in lines if l.startswith("#")]
        rows = [l.split("\t") for l in lines if not l.startswith("#")]
        assert any("splits_seed=9" in l for l in echo)
        assert len(rows) == 12
        from collections import Counter
        by = Counter(split for _, split in rows)
        assert by == {"train": 6, "val": 2, "test": 4}

    def test_train_eval_roundtrip(self, world, trained_run):
        run = trained_run
        assert (run / "model.ckpt").exists()
        curve = [l for l in (run / "loss_curve.txt").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(curve) == 2

        rep = world["root"] / "rep"
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(run / "model.ckpt"),
                    "--out", str(rep)) == 0
        text = (rep / "report.txt").read_text()
        assert "overall\t" in text and "category\tcount\taccuracy" in text

    def test_eval_gold_stub_perfect(self, world):
        rep = world["root"] / "gold"
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--gold-stub", "--out", str(rep)) == 0
        overall = [l for l in (rep / "report.txt").read_text().splitlines()
                   if l.startswith("overall\t")]
        assert overall[0].split("\t") == ["overall", "12", "1.0000"]

    def test_stats(self, world):
        out = world["root"] / "stats"
        assert _run("stats", "--corpus", world["corpus"],
                    "--out", str(out)) == 0
        text = (out / "stats.txt").read_text()
        assert "n_telling\t6" in text and "n_pointing\t6" in text
        assert "avg_q_len\t" in text

    def test_heatmap_writes_pgms(self, world, trained_run):
        run = trained_run
        out = world["root"] / "hm"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(run / "model.ckpt"),
                    "--task", "pointing", "--out", str(out)) == 0
        assignment = datamodel.read_splits(world["splits"]).assignment
        expected = {f"{r.qa_id}.pgm" for r in
                    datamodel.parse_corpus(world["corpus"]).records
                    if r.kind == "pointing" and assignment[r.qa_id] == "test"}
        pgms = [n for n in os.listdir(out) if n.endswith(".pgm")]
        assert expected and set(pgms) == expected
        with open(out / pgms[0], "rb") as f:
            assert f.read(2) == b"P5"

    def test_heatmap_maps_the_test_split(self, world, trained_run, tmp_path):
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(trained_run / "model.ckpt"),
                    "--out", str(tmp_path)) == 0
        assignment = datamodel.read_splits(world["splits"]).assignment
        tests = {f"{q}.pgm" for q, split in assignment.items()
                 if split == "test"}
        assert len(tests) == 4
        assert {n for n in os.listdir(tmp_path) if n.endswith(".pgm")} \
            == tests

    def test_heatmap_without_splits_is_usage_error(self, world, trained_run,
                                                   tmp_path, capsys):
        """heatmap maps the test split only; it never maps every record."""
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--checkpoint", str(trained_run / "model.ckpt"),
                    "--out", str(tmp_path / "o")) == 1
        assert "--splits is required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_init_params_freed_before_the_first_step(self, world, tmp_path,
                                                     monkeypatch):
        """train copies the init params; no caller keeps a second set."""
        real_init, real_step = qamodel.init_params, qamodel.adam_step
        refs, alive = [], []

        def init_params(*args):
            params = real_init(*args)
            refs.extend(weakref.ref(arr) for arr in params.values())
            return params

        def adam_step(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_step(*args)

        monkeypatch.setattr(qamodel, "init_params", init_params)
        monkeypatch.setattr(qamodel, "adam_step", adam_step)
        assert _run("train", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--epochs", "1",
                    "--out", str(tmp_path)) == 0
        assert refs and alive == [0]

    def test_v1_checkpoint_is_validation_error(self, world, untrained_ckpt,
                                               capsys):
        data = ["--corpus", world["corpus"], "--features", world["features"],
                "--splits", world["splits"]]
        ckpt = world["root"] / "old" / "model.ckpt"
        ckpt.parent.mkdir()
        clean = untrained_ckpt.read_bytes()
        for version in (1, 2, 3, 4):  # the u16 version follows the magic
            ckpt.write_bytes(clean[:4] + version.to_bytes(2, "little")
                             + clean[6:])
            capsys.readouterr()
            assert _run("eval", *data, "--checkpoint", str(ckpt),
                        "--out", str(world["root"] / "rep_old")) == 2
            assert (f"unsupported checkpoint version {version}"
                    in capsys.readouterr().err)

    def test_checkpoint_moved_alone_evaluates(self, world, untrained_ckpt):
        data = ["--corpus", world["corpus"], "--features", world["features"],
                "--splits", world["splits"]]
        moved = world["root"] / "moved" / "model.ckpt"
        moved.parent.mkdir()
        shutil.copyfile(untrained_ckpt, moved)
        bodies = []
        for ckpt, rep in ((untrained_ckpt, "rep_here"),
                          (moved, "rep_moved")):
            assert _run("eval", *data, "--checkpoint", str(ckpt),
                        "--out", str(world["root"] / rep)) == 0
            text = (world["root"] / rep / "report.txt").read_text()
            bodies.append([l for l in text.splitlines()
                           if not l.startswith("#")])
        assert bodies[0] == bodies[1]
        assert bodies[0][0] == "category\tcount\taccuracy"

    def test_checkpoint_directory_is_validation_error(self, world, capsys):
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--checkpoint", str(world["root"]),
                    "--out", str(world["root"] / "rep_dir")) == 2
        assert "validation error" in capsys.readouterr().err

    def test_missing_corpus_path(self, world, capsys):
        assert _run("stats", "--corpus", "/nonexistent/c.json",
                    "--out", str(world["root"] / "x")) == 1

    def test_corrupt_corpus_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert _run("stats", "--corpus", str(bad),
                    "--out", str(tmp_path / "o")) == 2

    def test_train_writes_a_float32_checkpoint(self, trained_run):
        params, mc, _ = qamodel.load_checkpoint(trained_run / "model.ckpt")
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        tensors = 4 * qamodel.param_count(mc)
        assert tensors < (trained_run / "model.ckpt").stat().st_size \
            < tensors + 1024

    def test_config_echo_written(self, trained_run):
        echo = (trained_run / "config.echo.txt").read_text()
        assert "command=train" in echo
        assert "epochs=2" in echo


class TestMode:
    """The attention mode is chosen at train and read from the checkpoint."""

    def test_eval_takes_mode_from_checkpoint(self, world, uniform_ckpt):
        assert qamodel.load_checkpoint(uniform_ckpt)[1].mode == "uniform"
        data = ["--corpus", world["corpus"], "--features", world["features"],
                "--splits", world["splits"], "--checkpoint", str(uniform_ckpt)]
        bodies = []
        for name, mode in (("rep_ckpt_mode", []),
                           ("rep_uniform", ["--mode", "uniform"])):
            out = world["root"] / name
            assert _run("eval", *data, *mode, "--out", str(out)) == 0
            text = (out / "report.txt").read_text()
            bodies.append([l for l in text.splitlines()
                           if not l.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_heatmap_takes_mode_from_checkpoint(self, world, uniform_ckpt):
        out = world["root"] / "hm_uniform"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(uniform_ckpt), "--out", str(out)) == 0
        pgms = [n for n in os.listdir(out) if n.endswith(".pgm")]
        assert len(pgms) == 4  # the test split
        for name in pgms:
            magic, _, _, pixels = (out / name).read_bytes().split(b"\n", 3)
            assert magic == b"P5"
            assert pixels and not any(pixels), name  # a constant map

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_mismatched_mode_is_validation_error(self, world, uniform_ckpt,
                                                 tmp_path, capsys, command,
                                                 source):
        if source == "flag":
            mode = ["--mode", "learned"]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("mode=learned\n")
            mode = ["--config", str(cfg_file)]
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(uniform_ckpt), *mode,
                    "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "--mode learned" in err and "uniform" in err


def _split_images(world, split):
    """The image ids of the world's records in one split."""
    assignment = datamodel.read_splits(world["splits"]).assignment
    return {r.image_id for r in datamodel.parse_corpus(world["corpus"]).records
            if assignment[r.qa_id] == split}


class TestInputs:
    """A run reads `<features>/<image_id>.fpk` for its records' images only."""

    @pytest.mark.parametrize("command,split", [("train", "train"),
                                               ("eval", "test")])
    def test_reads_only_the_selected_records_packs(
            self, world, untrained_ckpt, monkeypatch, tmp_path, command,
            split):
        read = []
        real = featurestore.read_feature_pack

        def spy(path):
            read.append(os.path.basename(path))
            return real(path)

        monkeypatch.setattr(featurestore, "read_feature_pack", spy)
        extra = (["--epochs", "0"] if command == "train"
                 else ["--checkpoint", str(untrained_ckpt)])
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], *extra,
                    "--out", str(tmp_path / "o")) == 0
        images = _split_images(world, split)
        assert len(images) == (6 if split == "train" else 4)
        assert set(read) == {f"{i}.fpk" for i in images}
        # each is checked when the run opens; eval reads it again in its pass
        assert max(Counter(read).values()) <= (1 if command == "train"
                                               else 2)

    def test_train_with_a_missing_pack_names_it(self, world, tmp_path,
                                                capsys):
        features = tmp_path / "packs"
        shutil.copytree(world["features"], features)
        gone = features / f"{min(_split_images(world, 'train'))}.fpk"
        gone.unlink()
        assert _run("train", "--corpus", world["corpus"],
                    "--features", str(features), "--splits", world["splits"],
                    "--epochs", "1", "--out", str(tmp_path / "o")) == 2
        assert str(gone) in capsys.readouterr().err

    def test_eval_with_empty_features_is_validation_error(
            self, world, untrained_ckpt, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", str(tmp_path / "empty"),
                    "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "No such file" in capsys.readouterr().err

    def test_eval_with_no_test_record_is_validation_error(
            self, world, untrained_ckpt, tmp_path, capsys):
        splits = tmp_path / "splits.tsv"
        splits.write_text(open(world["splits"]).read().replace(
            "\ttest\n", "\ttrain\n"))
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"], "--splits", str(splits),
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "no test records selected" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.txt").exists()

    def test_pack_under_another_images_name(self, world, tmp_path, capsys):
        features = tmp_path / "packs"
        shutil.copytree(world["features"], features)
        first, second = sorted(os.listdir(features))[:2]
        shutil.copyfile(features / first, features / second)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", str(features), "--gold-stub",
                    "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert second in err and first[:-len(".fpk")] in err

    def test_image_id_outside_the_features_directory(self, world, tmp_path,
                                                     capsys):
        corpus = datamodel.parse_corpus(world["corpus"])
        rec = replace(corpus.records[0], image_id="../x")
        path = tmp_path / "corpus.json"
        datamodel.write_corpus(datamodel.Corpus([("../x", 700, 700)], [rec]),
                               path)
        # a pack that a bare path join would find and accept
        pack = featurestore.read_feature_pack(os.path.join(
            world["features"], f"{corpus.records[0].image_id}.fpk"))
        featurestore.write_feature_pack(replace(pack, image_id="../x"),
                                        tmp_path / "x.fpk")
        (tmp_path / "packs").mkdir()
        assert _run("eval", "--corpus", str(path),
                    "--features", str(tmp_path / "packs"), "--gold-stub",
                    "--out", str(tmp_path / "o")) == 2
        assert "not a plain file name" in capsys.readouterr().err

    def test_qa_id_outside_the_heatmap_directory(self, world, untrained_ckpt,
                                                 tmp_path, capsys):
        corpus = datamodel.parse_corpus(world["corpus"])
        corpus.records[-1] = replace(corpus.records[-1], qa_id="../escaped")
        path = tmp_path / "corpus.json"
        datamodel.write_corpus(corpus, path)
        maps = tmp_path / "maps"
        assert _run("heatmap", "--corpus", str(path),
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(maps / "sub")) == 2
        assert "'../escaped' is not a plain file name" \
            in capsys.readouterr().err
        assert not [n for _, _, names in os.walk(tmp_path) for n in names
                    if n.endswith(".pgm")]


def _edit_regions(world, tmp_path, split, edit):
    """
    Copy the packs; replace the region features of the first pointing
    `split` record's pack by edit(its regions, the record). Returns the
    features directory, that pack's path and the record.
    """
    assignment = datamodel.read_splits(world["splits"]).assignment
    rec = min((r for r in datamodel.parse_corpus(world["corpus"]).records
               if r.kind == "pointing" and assignment[r.qa_id] == split),
              key=lambda r: r.qa_id)
    features = tmp_path / "packs"
    shutil.copytree(world["features"], features)
    path = featurestore.pack_path(str(features), rec.image_id)
    pack = featurestore.read_feature_pack(path)
    featurestore.write_feature_pack(
        replace(pack, region_features=edit(pack.region_features, rec)), path)
    return str(features), path, rec


def _drop_a_region(world, tmp_path, split):
    """Copy the packs; delete one candidate region of a `split` record."""
    features, path, rec = _edit_regions(
        world, tmp_path, split, lambda regions, rec: {
            k: v for k, v in regions.items() if k != rec.distractors[0]})
    return features, path, rec.distractors[0], rec.qa_id


def _count_passes(monkeypatch):
    """The list that gets one entry per forward pass the model runs."""
    real, passes = qamodel._forward, []

    def counted(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qamodel, "_forward", counted)
    return passes


class TestPreflight:
    """Inputs that cannot serve the run are rejected before any compute."""

    @pytest.mark.parametrize("command,split", [("train", "train"),
                                               ("eval", "test")])
    def test_missing_candidate_region_names_it(
            self, world, untrained_ckpt, tmp_path, capsys, monkeypatch,
            command, split):
        features, path, rid, qa_id = _drop_a_region(world, tmp_path, split)
        extra = (["--epochs", "1"] if command == "train"
                 else ["--checkpoint", str(untrained_ckpt)])
        passes = _count_passes(monkeypatch)
        assert _run(command, "--corpus", world["corpus"],
                    "--features", features, "--splits", world["splits"],
                    *extra, "--out", str(tmp_path / "o")) == 2
        assert not passes
        err = capsys.readouterr().err
        assert path in err and rid in err and qa_id in err
        assert not (tmp_path / "o" / "model.ckpt").exists()
        assert not (tmp_path / "o" / "report.txt").exists()

    @pytest.mark.parametrize("command,split", [("train", "train"),
                                               ("eval", "test")])
    def test_pack_of_another_image_stops_the_run(
            self, world, untrained_ckpt, tmp_path, capsys, monkeypatch,
            command, split):
        features = tmp_path / "packs"
        shutil.copytree(world["features"], features)
        first, second = sorted(_split_images(world, split))[:2]
        shutil.copyfile(features / f"{first}.fpk",
                        features / f"{second}.fpk")
        extra = (["--epochs", "1"] if command == "train"
                 else ["--checkpoint", str(untrained_ckpt)])
        passes = _count_passes(monkeypatch)
        assert _run(command, "--corpus", world["corpus"],
                    "--features", str(features), "--splits", world["splits"],
                    *extra, "--out", str(tmp_path / "o")) == 2
        assert not passes
        err = capsys.readouterr().err
        assert f"{second}.fpk: holds the pack of image '{first}'" in err
        assert not (tmp_path / "o" / "model.ckpt").exists()
        assert not (tmp_path / "o" / "report.txt").exists()

    @pytest.mark.parametrize("name,size", [("feat_dim", 5000),
                                           ("conv_cells", 197),
                                           ("conv_channels", 513)])
    def test_checkpoint_wider_than_the_packs(self, world, tmp_path, capsys,
                                             name, size):
        vocab = datamodel.build_vocab(
            datamodel.parse_corpus(world["corpus"]).records)
        mc = replace(qamodel.ModelConfig.micro(vocab.size), **{name: size})
        ckpt = tmp_path / "model.ckpt"
        qamodel.save_checkpoint(qamodel.init_params(mc, 0), mc, vocab, ckpt)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert f"{name} {size}" in capsys.readouterr().err

    def test_eval_with_a_failed_record_exits_2_after_the_report(
            self, world, untrained_ckpt, tmp_path, monkeypatch, capsys):
        real = qamodel.predict_batch
        failed = []

        def flaky(records, *args):
            outcomes = real(records, *args)
            failed.append(records[0].qa_id)
            return [RuntimeError("boom")] + outcomes[1:]

        monkeypatch.setattr(qamodel, "predict_batch", flaky)
        out = tmp_path / "o"
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(out)) == 2
        assert f"# error\t{failed[0]}\tRuntimeError: boom" \
            in (out / "report.txt").read_text()
        err = capsys.readouterr().err
        assert "1 of 4 records failed" in err and failed[0] in err


class TestGradcheck:
    def test_passes_on_small_model(self, tmp_path, capsys):
        assert _run("gradcheck", "--seed", "2",
                    "--out", str(tmp_path / "gc")) == 0
        assert "overall max relative error" in capsys.readouterr().out
        text = (tmp_path / "gc" / "gradcheck.txt").read_text()
        assert "max_rel_error" in text

    def test_failed_check_is_numerics_error(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(cli, "finite_diff_grad_check",
                            lambda *args: GradCheckResult(1e-3, "W_out"))
        assert _run("gradcheck", "--out", str(tmp_path)) == 3
        assert ("numerics error: gradient check failed: 1.000e-03"
                in capsys.readouterr().err)
        assert "max_rel_error\t1.000000e-03" in \
            (tmp_path / "gradcheck.txt").read_text()


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_train_exits_3_without_checkpoint(self, world, tmp_path,
                                                       capsys):
        # the float32 Adam step overflows to inf at this learning rate
        assert _run("train", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--batch", "64",
                    "--epochs", "1", "--lr", "1e300",
                    "--out", str(tmp_path)) == 3
        assert "non-finite parameters" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @staticmethod
    def _nan_checkpoint(untrained_ckpt, tmp_path):
        params, mc, vocab = qamodel.load_checkpoint(untrained_ckpt)
        ckpt = tmp_path / "nan.ckpt"
        qamodel.save_checkpoint({k: np.full_like(v, np.nan)
                                 for k, v in params.items()}, mc, vocab, ckpt)
        return ckpt

    def test_eval_of_non_finite_scores_exits_2(self, world, untrained_ckpt,
                                               tmp_path):
        ckpt = self._nan_checkpoint(untrained_ckpt, tmp_path)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "rep")) == 2
        errors = [l for l in (tmp_path / "rep" / "report.txt").read_text()
                  .splitlines() if l.startswith("# error\t")]
        assert len(errors) == 4  # every test record
        assert all("NumericsError: non-finite candidate scores" in l
                   for l in errors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eval_of_one_non_finite_record_fails_it_alone(
            self, world, untrained_ckpt, tmp_path, capsys):
        """A finite float32 region whose W_ptr product overflows: its record
        is an error line, and the others of its pass are scored."""
        params, mc, _ = qamodel.load_checkpoint(untrained_ckpt)
        region = np.zeros(featurestore.GLOBAL_DIM, np.float32)
        region[:mc.feat_dim] = (np.finfo(np.float32).max
                                * np.sign(params["W_ptr"][0]))
        features, _, rec = _edit_regions(
            world, tmp_path, "test",
            lambda regions, rec: dict(regions, **{rec.answer: region}))
        qa_id = rec.qa_id
        out = tmp_path / "rep"
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", features, "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(out)) == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert [l.split("\t")[:2] for l in lines
                if l.startswith("# error\t")] == [["# error", qa_id]]
        assert any(l.startswith(f"# error\t{qa_id}\tNumericsError: "
                                f"non-finite candidate scores") for l in lines)
        assert "overall\t4\t" in (out / "report.txt").read_text()
        assert "1 of 4 records failed" in capsys.readouterr().err

    def test_heatmap_of_non_finite_attention_exits_3(
            self, world, untrained_ckpt, tmp_path, capsys):
        ckpt = self._nan_checkpoint(untrained_ckpt, tmp_path)
        out = tmp_path / "maps"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(ckpt),
                    "--out", str(out)) == 3
        assert "non-finite attention" in capsys.readouterr().err
        assert not [n for n in os.listdir(out) if n.endswith(".pgm")]
