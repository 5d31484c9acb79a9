import filecmp
import json
import math
import os
import shutil
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from groundedqa import cli, datamodel, evalkit, featurestore, qamodel
from groundedqa.numkit import GradCheckResult


def _run(*argv):
    return cli.main(list(argv))


class TestParsing:
    def test_no_args_is_usage_error(self, capsys):
        assert _run() == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert _run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert _run("train", "--d-a", "8") == 1
        assert "--d-a" in capsys.readouterr().err

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        assert _run("eval", "--mode", "garbage",
                    "--out", str(tmp_path / "o")) == 1
        assert "garbage" in capsys.readouterr().err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_every_command_requires_out(self, world, full_grid_ckpt,
                                        tmp_path, monkeypatch, capsys,
                                        command):
        """Inputs that would run, but no --out: exit 1, nothing written."""
        monkeypatch.chdir(tmp_path)
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--checkpoint", str(full_grid_ckpt)) == 1
        out, err = capsys.readouterr()
        assert "--out is required" in err and not out
        assert not os.listdir(tmp_path)

    def test_single_width_matching_preset_allowed(self):
        """--hidden sets both widths and defaults to the preset's."""
        for preset, hidden in (("micro", 8), ("full", 512)):
            cfg = cli.parse_config(["gradcheck", "--preset", preset])
            assert cfg.hidden == hidden
        assert cli.parse_config(["train", "--preset", "full",
                                 "--hidden", "8"]).hidden == 8

    @pytest.mark.parametrize("source", ["flag", "inline"])
    @pytest.mark.parametrize("command,values,bad", [
        ("train", {"hidden": "0"}, "--hidden"),
        ("train", {"hidden": "-8"}, "--hidden"),
        ("train", {"batch": "-2"}, "--batch"),
        ("train", {"batch": "0"}, "--batch"),
        ("train", {"epochs": "-1"}, "--epochs"),
        ("train", {"lr": "-1"}, "--lr"),
        ("train", {"lr": "0"}, "--lr"),
        ("train", {"lr": "inf"}, "--lr"),
        ("train", {"lr": "nan"}, "--lr"),
        ("synth", {"n-telling": "-2", "n-pointing": "1"}, "--n-telling"),
        ("synth", {"n-pointing": "-1"}, "--n-pointing"),
        # the benchmark and TestNonFinite use these
        ("train", {"epochs": "0"}, None),
        ("synth", {"n-pointing": "0"}, None),
        ("train", {"lr": "1e300"}, None),
        ("synth", {"seed": "-1"}, "--seed"),
        ("train", {"seed": "-1"}, "--seed"),
        ("gradcheck", {"seed": "-1"}, "--seed"),
        ("split", {"splits-seed": "-1"}, "--splits-seed"),
    ])
    def test_numeric_flag_range(self, tmp_path, capsys, source, command,
                                values, bad):
        argv = [command] + _flags(source, values)
        if bad is None:
            cfg = cli.parse_config(argv)
            for name, value in values.items():
                field = getattr(cfg, name.replace("-", "_"))
                assert field == type(field)(value)
            return
        assert _run(*argv, "--out", str(tmp_path / "o")) == 2
        assert f"validation error: {bad} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


_MISSING = object()


def _set(doc, path, value):
    """`doc` with the entry at `path`, a tuple of keys and indices, set to
    `value`, or deleted if it is _MISSING; the empty path replaces the
    whole document."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _flags(source, values):
    """`values` as argv: `--name value` ("flag") or `--name=value` ("inline")."""
    if source == "flag":
        return [token for name, value in values.items()
                for token in (f"--{name}", value)]
    return [f"--{name}={value}" for name, value in values.items()]


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


def _full_grid_ckpt(world, name, *flags):
    """A checkpoint that reads the packs' whole 196-cell conv grid, as
    heatmap needs; narrow, so that it trains in a fraction of a second."""
    run = world["root"] / name
    assert _run("train", "--corpus", world["corpus"],
                "--features", world["features"], "--splits", world["splits"],
                "--preset", "full", "--hidden", "8",
                "--epochs", "2", "--batch", "4", *flags,
                "--out", str(run)) == 0
    return run / "model.ckpt"


@pytest.fixture(scope="module")
def full_grid_ckpt(world):
    return _full_grid_ckpt(world, "full_grid")


@pytest.fixture(scope="module")
def full_grid_uniform_ckpt(world):
    return _full_grid_ckpt(world, "full_grid_uniform", "--mode", "uniform")


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

    @pytest.mark.parametrize("ckpt", ["trained_run",
                                      "full_grid_uniform_ckpt"])
    def test_eval_reports_what_predict_mc_scores(self, world, request,
                                                 tmp_path, ckpt):
        """Acceptance test 04 scores `predict_mc` one record at a time;
        `eval`'s report is `evalkit.tally` of those outcomes, on the same
        checkpoint and split."""
        path = request.getfixturevalue(ckpt)
        path = path / "model.ckpt" if path.is_dir() else path
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(path),
                    "--out", str(tmp_path / "rep")) == 0
        params, mc, vocab = qamodel.load_checkpoint(path)
        test = _split_records(world, "test")
        report = evalkit.evaluate(
            lambda rec, pack: qamodel.predict_mc(rec, pack, params, vocab,
                                                 mc)[0],
            test, featurestore.PackFiles(world["features"], test))
        body = [l for l in (tmp_path / "rep" / "report.txt").read_text()
                .splitlines() if not l.startswith("# ")]
        assert not report.errors and body == report.lines()

    def test_stats(self, world):
        out = world["root"] / "stats"
        assert _run("stats", "--corpus", world["corpus"],
                    "--out", str(out)) == 0
        text = (out / "stats.txt").read_text()
        assert "n_telling\t6" in text and "n_pointing\t6" in text
        assert "avg_q_len\t" in text

    def test_heatmap_writes_pgms(self, world, full_grid_ckpt):
        out = world["root"] / "hm"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(full_grid_ckpt),
                    "--out", str(out)) == 0
        pgms = [n for n in os.listdir(out) if n.endswith(".pgm")]
        assert pgms
        for name in pgms:
            with open(out / name, "rb") as f:
                assert f.read(2) == b"P5"

    def test_heatmap_maps_the_test_split(self, world, full_grid_ckpt,
                                         tmp_path):
        """One map per record of the test split, of either kind."""
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(full_grid_ckpt),
                    "--out", str(tmp_path)) == 0
        assignment = datamodel.read_splits(world["splits"]).assignment
        tests = {f"{q}.pgm" for q, split in assignment.items()
                 if split == "test"}
        assert len(tests) == 4
        assert {n for n in os.listdir(tmp_path) if n.endswith(".pgm")} \
            == tests

    def test_heatmap_needs_the_whole_grid(self, world, trained_run, tmp_path,
                                          capsys):
        """A micro model reads 4 of the 196 cells: no map of the image."""
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(trained_run / "model.ckpt"),
                    "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "reads 4 conv cells" in err and "whole grid of 196" in err
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".pgm")]

    def test_default_split_keeps_eval_off_the_training_records(
            self, world, tmp_path, monkeypatch):
        """Without --splits, train and eval split by make_splits(corpus,
        --splits-seed) and name that split in their echo."""
        seen = {}

        def spy(name):
            real = getattr(qamodel, name)

            def wrapper(records, *args):
                seen[name] = {r.qa_id for r in records}
                return real(records, *args)
            monkeypatch.setattr(qamodel, name, wrapper)

        spy("train")
        spy("predict_batch")
        data = ["--corpus", world["corpus"], "--features", world["features"]]
        run, rep = tmp_path / "run", tmp_path / "rep"
        assert _run("train", *data, "--epochs", "1", "--out", str(run)) == 0
        assert _run("eval", *data, "--checkpoint", str(run / "model.ckpt"),
                    "--out", str(rep)) == 0
        assignment = datamodel.make_splits(
            datamodel.parse_corpus(world["corpus"]), 0).assignment
        assert seen["predict_batch"] == {
            q for q, split in assignment.items() if split == "test"}
        assert seen["train"] and not seen["train"] & seen["predict_batch"]
        for out in (run, rep):
            assert "splits=default:0" in (
                out / "config.echo.txt").read_text().splitlines()
        assert "# splits=default:0\n" in (rep / "report.txt").read_text()

    def test_heatmap_maps_the_default_test_split(self, world, full_grid_ckpt,
                                                 tmp_path):
        """Without --splits, heatmap maps the test records of
        make_splits(corpus, --splits-seed), the ones eval scores."""
        out = tmp_path / "o"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--checkpoint", str(full_grid_ckpt),
                    "--out", str(out)) == 0
        assignment = datamodel.make_splits(
            datamodel.parse_corpus(world["corpus"]), 0).assignment
        assert {n for n in os.listdir(out) if n.endswith(".pgm")} == {
            f"{q}.pgm" for q, split in assignment.items() if split == "test"}
        assert "splits=default:0" in (
            out / "config.echo.txt").read_text().splitlines()

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

    @pytest.mark.parametrize("section,key,value", [
        ("images", "width", "700"), ("qa_pairs", "qa_id", 5),
        ("qa_pairs", "question", 5), ("qa_pairs", "answer", 5)])
    def test_corpus_field_of_wrong_type_is_validation_error(
            self, world, tmp_path, capsys, section, key, value):
        with open(world["corpus"]) as f:
            doc = json.load(f)
        entry = doc[section][0]
        entry[key] = value
        named = (f"image {entry['image_id']!r}" if section == "images"
                 else f"record {entry['qa_id']!r}")
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(doc))
        assert _run("stats", "--corpus", str(bad),
                    "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{named}: {key} must be a JSON " in err

    @pytest.mark.parametrize("edit,named", [
        ({"box": [1, 2, 3]}, "box must hold 4 numbers"),
        ({"box": [1, 2, 3, 4, 5]}, "box must hold 4 numbers"),
        ({"box": ["a", "b", "c", "d"]}, "box must be a JSON number"),
        ({"box": 7}, "box must be a JSON array"),
        ({"qa_pairs": 5}, "qa_pairs must be a JSON array"),
        ({"box": [0, 0, 0, 5]}, "degenerate box w=0 h=5"),
        ({"box": [-1, 0, 5, 5]}, "box origin out of image"),
        ({"box": [0, 0, math.inf, 5]}, "box must be a JSON number"),
        (((), []), "top level must be a JSON object"),
        ((("images", 0), 5), "images[0] must be a JSON object"),
        ((("qa_pairs", 1), 5), "qa_pairs[1] must be a JSON object"),
        ((("qa_pairs", 0, "groundings"), 5),
         "record 't00000': groundings must be a JSON array"),
        ((("qa_pairs", 0, "groundings"), [5]),
         "record 't00000': groundings[0] must be a JSON object"),
        ((("images", 0, "width"), math.nan),
         "image 'imgt00000': width must be a JSON number"),
        ((("qa_pairs", 3, "qa_id"), _MISSING),
         "qa_pairs[3]: missing field 'qa_id'"),
        ((("qa_pairs", 3, "question"), _MISSING),
         "qa_pairs[3], record 't00003': missing field 'question'"),
        ((("images", 2, "width"), _MISSING),
         "images[2], image 'imgt00002': missing field 'width'"),
        ((("qa_pairs", 0, "groundings"), [{"grounding_id": "g0",
                                           "name": "cup"}]),
         "qa_pairs[0].groundings[0], record 't00000': missing field 'box'"),
        ((("images",), _MISSING), "corpus.json: missing field 'images'"),
        # well-shaped entries that break an invariant of a record or corpus
        ((("qa_pairs", 6, "groundings", 0, "name"), ""),
         "grounding p00000_r0 has empty name"),
        ((("qa_pairs", 0, "kind"), "story"), "t00000: unknown kind 'story'"),
        ((("qa_pairs", 0, "category"), "whence"),
         "t00000: unknown category 'whence'"),
        ((("qa_pairs", 0, "category"), "which"),
         "t00000: kind telling inconsistent with category which"),
        ((("qa_pairs", 0, "question"), "what is it"),
         "t00000: question must end with '?'"),
        ((("qa_pairs", 6, "distractors", 0), "nowhere"),
         "p00000: pointing candidates ['nowhere'] do not resolve to "
         "groundings"),
        ((("images", 0, "width"), 0), "image imgt00000: bad dims 0x"),
        ((("images", 0, "height"), -1), "image imgt00000: bad dims"),
        ((("qa_pairs", 1, "qa_id"), "t00000"), "duplicate qa_id t00000"),
        ((("qa_pairs", 0, "image_id"), "elsewhere"),
         "t00000: unknown image elsewhere")])
    def test_corpus_shape_error_names_the_field(self, world, tmp_path, capsys,
                                                edit, named):
        with open(world["corpus"]) as f:
            doc = json.load(f)
        rec = doc["qa_pairs"][0]
        if isinstance(edit, tuple):
            doc = _set(doc, *edit)
        elif "box" in edit:
            rec["groundings"] = [{"grounding_id": "g0", "name": "cup",
                                  **edit}]
            named = f"record {rec['qa_id']!r}: {named}"
        else:
            doc.update(edit)
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(doc))
        assert _run("stats", "--corpus", str(bad),
                    "--out", str(tmp_path / "o")) == 2
        assert named in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,keys", [
        ("synth", {"n_telling", "n_pointing", "seed"}),
        ("split", {"corpus", "splits_seed"}),
        ("train", {"corpus", "features", "splits", "preset", "epochs",
                   "batch", "lr", "seed", "hidden", "mode", "vocab_size",
                   "dtype"}),
        ("eval", {"checkpoint", "corpus", "features", "splits", "hidden",
                  "mode", "vocab_size", "dtype"}),
        ("gradcheck", {"preset", "seed", "hidden", "mode", "vocab_size",
                       "dtype"}),
        ("stats", {"corpus"}),
        ("heatmap", {"checkpoint", "corpus", "features", "splits", "hidden",
                     "mode", "vocab_size", "dtype"}),
    ])
    def test_echo_holds_what_the_command_reads(
            self, world, full_grid_ckpt, tmp_path, monkeypatch, command,
            keys):
        """Given every flag, a command echoes the command, the flags it
        reads, --out and, when it runs a model, the model's lines."""
        monkeypatch.setattr(cli, "finite_diff_grad_check",
                            lambda *args: GradCheckResult(0.0, "W_out"))
        data = {"split": ["--corpus", world["corpus"]],
                "stats": ["--corpus", world["corpus"]],
                "train": ["--corpus", world["corpus"],
                          "--features", world["features"]]}
        data["eval"] = data["heatmap"] = [
            *data["train"], "--splits", world["splits"],
            "--checkpoint", str(full_grid_ckpt)]
        out = tmp_path / "o"
        assert _run(command, *data.get(command, []), "--epochs", "0",
                    "--batch", "4", "--lr", "0.5", "--seed", "1",
                    "--n-telling", "1", "--n-pointing", "1",
                    "--splits-seed", "0", "--out", str(out)) == 0
        lines = (out / "config.echo.txt").read_text().splitlines()
        assert lines[0] == f"command={command}"
        assert {l.split("=")[0] for l in lines} == {
            "command", "out", *keys}


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

    def test_heatmap_takes_mode_from_checkpoint(self, world,
                                                full_grid_uniform_ckpt):
        out = world["root"] / "hm_uniform"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(full_grid_uniform_ckpt),
                    "--out", str(out)) == 0
        pgms = [n for n in os.listdir(out) if n.endswith(".pgm")]
        assert len(pgms) == 4  # the test split
        for name in pgms:
            magic, _, _, pixels = (out / name).read_bytes().split(b"\n", 3)
            assert magic == b"P5"
            assert pixels and not any(pixels), name  # a constant map

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_echo_names_the_loaded_model(self, world, full_grid_uniform_ckpt,
                                         tmp_path, command):
        """The header says what the checkpoint holds (--preset full,
        --hidden 8, uniform), not the flags' defaults."""
        out = tmp_path / "o"
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(full_grid_uniform_ckpt),
                    "--out", str(out)) == 0
        name = "report.txt" if command == "eval" else "config.echo.txt"
        lines = (out / name).read_text().splitlines()
        if command == "eval":  # the report's header rows
            lines = [l[2:] for l in lines if l.startswith("# ")]
        assert {"hidden=8", "mode=uniform", "dtype=float32"} <= set(lines), \
            lines
        assert any(l.startswith("vocab_size=") for l in lines), lines
        assert not any(l.startswith(("epochs=", "n_telling=", "preset="))
                       for l in lines), lines

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    @pytest.mark.parametrize("source", ["flag", "inline"])
    def test_mismatched_mode_is_validation_error(self, world, uniform_ckpt,
                                                 tmp_path, capsys, command,
                                                 source):
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(uniform_ckpt),
                    *_flags(source, {"mode": "learned"}),
                    "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "--mode learned" in err and "uniform" in err


def _test_split(tmp_path, records):
    """A splits file that puts every one of `records` in the test split."""
    path = tmp_path / "test_splits.tsv"
    datamodel.write_splits(datamodel.SplitAssignment(
        dict.fromkeys((r.qa_id for r in records), "test")), path)
    return str(path)


def _split_records(world, split):
    """The world's records in one split, in corpus order."""
    assignment = datamodel.read_splits(world["splits"]).assignment
    return [r for r in datamodel.parse_corpus(world["corpus"]).records
            if assignment[r.qa_id] == split]


def _split_images(world, split):
    """The image ids of the world's records in one split."""
    return {r.image_id for r in _split_records(world, split)}


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

    def test_a_model_too_large_to_allocate_is_validation_error(
            self, world, tmp_path, capsys):
        # about 3 PiB of parameters, more than any user address space, so
        # numpy refuses them before it touches memory
        assert _run("train", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--hidden", "10000000",
                    "--epochs", "0", "--out", str(tmp_path / "o")) == 2
        assert "validation error: Unable to allocate" \
            in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.ckpt").exists()

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

    def test_heatmap_with_no_test_record_is_validation_error(
            self, world, full_grid_ckpt, tmp_path, capsys):
        splits = tmp_path / "splits.tsv"
        splits.write_text(open(world["splits"]).read().replace(
            "\ttest\n", "\ttrain\n"))
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"], "--splits", str(splits),
                    "--checkpoint", str(full_grid_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "no test records selected" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_without_checkpoint_leaves_no_out(self, world, tmp_path,
                                                   capsys):
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--out", str(tmp_path / "o")) == 1
        assert "--checkpoint is required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_missing_corpus_stops_the_run_before_the_checkpoint_is_read(
            self, world, tmp_path, capsys, command):
        """Every required path is checked before any file is read, so an
        unreadable checkpoint without --corpus exits 1 on --corpus."""
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert _run(command, "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(bad),
                    "--out", str(tmp_path / "o")) == 1
        assert "--corpus is required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_telling_candidate_without_a_word_leaves_no_out(
            self, world, trained_run, tmp_path, capsys, command):
        """Every telling candidate is encoded, so the corpus check rejects
        one with no word before the command writes to --out."""
        with open(world["corpus"]) as f:
            doc = json.load(f)
        doc["qa_pairs"][0]["distractors"][1] = " "
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(doc))
        argv = [command, "--corpus", str(bad), "--features",
                world["features"], "--splits", world["splits"]]
        if command == "eval":
            argv += ["--checkpoint", str(trained_run / "model.ckpt")]
        assert _run(*argv, "--out", str(tmp_path / "o")) == 2
        assert ("t00000: a telling candidate has no word"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("probe", ["train", "split", "stats",
                                       "eval_mode", "heatmap_micro"])
    def test_rejected_inputs_leave_no_out(self, world, trained_run, tmp_path,
                                          capsys, probe):
        """Every command checks its inputs before it writes to --out."""
        with open(world["corpus"]) as f:
            doc = json.load(f)
        doc["qa_pairs"] = 5
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(doc))
        data = ["--features", world["features"], "--splits", world["splits"]]
        ckpt = ["--checkpoint", str(trained_run / "model.ckpt")]
        argv = {
            "train": ["train", "--corpus", str(bad), *data],
            "split": ["split", "--corpus", str(bad)],
            "stats": ["stats", "--corpus", str(bad)],
            "eval_mode": ["eval", "--corpus", world["corpus"], *data, *ckpt,
                          "--mode", "uniform"],
            "heatmap_micro": ["heatmap", "--corpus", world["corpus"], *data,
                              *ckpt],
        }[probe]
        assert _run(*argv, "--out", str(tmp_path / "o")) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pack_under_another_images_name(self, world, untrained_ckpt,
                                            tmp_path, capsys):
        features = tmp_path / "packs"
        shutil.copytree(world["features"], features)
        first, second = sorted(os.listdir(features))[:2]
        shutil.copyfile(features / first, features / second)
        splits = _test_split(tmp_path, datamodel.parse_corpus(
            world["corpus"]).records)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", str(features), "--splits", splits,
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert second in err and first[:-len(".fpk")] in err

    def test_image_id_outside_the_features_directory(self, world,
                                                     untrained_ckpt, tmp_path,
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
                    "--features", str(tmp_path / "packs"),
                    "--splits", _test_split(tmp_path, [rec]),
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "not a plain file name" in capsys.readouterr().err

    def test_qa_id_outside_the_heatmap_directory(self, world, full_grid_ckpt,
                                                 tmp_path, capsys):
        corpus = datamodel.parse_corpus(world["corpus"])
        corpus.records[-1] = replace(corpus.records[-1], qa_id="../escaped")
        path = tmp_path / "corpus.json"
        datamodel.write_corpus(corpus, path)
        maps = tmp_path / "maps"
        assert _run("heatmap", "--corpus", str(path),
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(full_grid_ckpt),
                    "--out", str(maps / "sub")) == 2
        assert "'../escaped' is not a plain file name" \
            in capsys.readouterr().err
        assert not [n for _, _, names in os.walk(tmp_path) for n in names
                    if n.endswith(".pgm")]


def _first_pointing(world, split):
    """The `split` record of the world that points, lowest qa id first."""
    assignment = datamodel.read_splits(world["splits"]).assignment
    return min((r for r in datamodel.parse_corpus(world["corpus"]).records
                if r.kind == "pointing" and assignment[r.qa_id] == split),
               key=lambda r: r.qa_id)


def _edit_regions(world, tmp_path, split, edit):
    """
    Copy the packs; replace the region features of the first pointing
    `split` record's pack by edit(its regions, the record). Returns the
    features directory, that pack's path and the record.
    """
    rec = _first_pointing(world, split)
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


class TestPackReplaced:
    """A pack replaced after the run opened is checked at every later read
    as it was at the first: a run fails naming the pack, not the model."""

    @staticmethod
    def _drop_a_region_on_reread(world, monkeypatch, split):
        """From its second read on, the first pointing `split` record's
        pack lacks one of its candidate regions. Returns the pack's path,
        the region and the record's qa id."""
        rec = _first_pointing(world, split)
        path = featurestore.pack_path(world["features"], rec.image_id)
        real, reads = featurestore.read_feature_pack, []

        def replaced(p):
            pack = real(p)
            if p == path:
                reads.append(p)
                if len(reads) > 1:
                    pack.region_features.pop(rec.distractors[0])
            return pack

        monkeypatch.setattr(featurestore, "read_feature_pack", replaced)
        return path, rec.distractors[0], rec.qa_id

    @pytest.mark.parametrize("command", ["train", "heatmap"])
    def test_a_run_exits_2_naming_the_pack(self, world, full_grid_ckpt,
                                           tmp_path, monkeypatch, capsys,
                                           command):
        split = "train" if command == "train" else "test"
        path, rid, qa_id = self._drop_a_region_on_reread(world, monkeypatch,
                                                         split)
        extra = (["--epochs", "1"] if command == "train"
                 else ["--checkpoint", str(full_grid_ckpt)])
        out = tmp_path / "o"
        assert _run(command, "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], *extra,
                    "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}: no region feature for {rid!r}, a candidate of " \
            f"record {qa_id}" in err
        assert not (out / "model.ckpt").exists()
        assert not [n for n in os.listdir(out) if n.endswith(".pgm")]

    def test_eval_names_the_pack_on_its_error_line(
            self, world, untrained_ckpt, tmp_path, monkeypatch, capsys):
        path, rid, qa_id = self._drop_a_region_on_reread(world, monkeypatch,
                                                         "test")
        out = tmp_path / "o"
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(out)) == 2
        errors = [l for l in (out / "report.txt").read_text().splitlines()
                  if l.startswith("# error\t")]
        assert errors == [f"# error\t{qa_id}\tFormatError: {path}: no "
                          f"region feature for {rid!r}, a candidate of "
                          f"record {qa_id}"]
        assert "1 of 4 records failed" in capsys.readouterr().err


class TestTypedRejections:
    """Each input the model cannot use fails with its own typed error, and
    the command exits with its code, naming what was wrong."""

    def test_bad_split_label(self, world, tmp_path, capsys):
        splits = tmp_path / "splits.tsv"
        splits.write_text("t00000\tdev\n")
        assert _run("train", "--corpus", world["corpus"],
                    "--features", world["features"], "--splits", str(splits),
                    "--out", str(tmp_path / "o")) == 2
        assert "bad split label 'dev' for t00000" in capsys.readouterr().err

    def test_split_of_an_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"images": [], "qa_pairs": []}))
        assert _run("split", "--corpus", str(corpus),
                    "--out", str(tmp_path / "o")) == 2
        assert "cannot split an empty corpus" in capsys.readouterr().err

    @staticmethod
    def _patch_a_test_pack(world, tmp_path, raw, past_the_id=False):
        """Copy the packs; overwrite one test image's pack with `raw` from
        the first byte of its image id, or `past_the_id`, of its global
        feature. Returns the features directory and that image id."""
        features = tmp_path / "packs"
        shutil.copytree(world["features"], features)
        image_id = min(_split_images(world, "test"))
        path = featurestore.pack_path(str(features), image_id)
        at = len(featurestore.MAGIC) + 2 + 4  # magic, version, id length
        at += len(image_id.encode()) if past_the_id else 0
        with open(path, "r+b") as f:
            f.seek(at)
            f.write(raw)
        return str(features), image_id

    def test_a_pack_holding_nan_stops_eval_before_any_pass(
            self, world, untrained_ckpt, tmp_path, monkeypatch, capsys):
        features, image_id = self._patch_a_test_pack(
            world, tmp_path, np.array([np.nan], "<f4").tobytes(),
            past_the_id=True)
        passes = _count_passes(monkeypatch)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", features, "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert not passes
        assert f"non-finite features in pack {image_id}" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_pack_id_that_is_not_utf8(self, world, untrained_ckpt,
                                        tmp_path, capsys):
        features, _ = self._patch_a_test_pack(world, tmp_path, b"\xff")
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", features, "--splits", world["splits"],
                    "--checkpoint", str(untrained_ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "pack: image_id is not UTF-8" in capsys.readouterr().err

    def test_a_checkpoint_size_below_1(self, world, untrained_ckpt, tmp_path,
                                       capsys):
        data = bytearray(untrained_ckpt.read_bytes())
        at = len(qamodel.CKPT_MAGIC) + 2  # the first config size, hidden
        data[at:at + 8] = (0).to_bytes(8, "little")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(data)
        assert _run("eval", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "o")) == 2
        assert "checkpoint config has a size below 1: {'hidden': 0" \
            in capsys.readouterr().err

    def test_a_non_finite_batch_loss_names_record_epoch_and_batch(
            self, world, tmp_path, monkeypatch, capsys):
        """The second record of epoch 1's second batch gets a NaN loss."""
        real, batches = qamodel.batch_loss_and_grads, []

        def poisoned(params, cfg, records, *args):
            losses = real(params, cfg, records, *args)
            batches.append(records)
            if len(batches) == 5:  # 3 batches of 2 records per epoch
                losses[1] = np.nan
            return losses

        monkeypatch.setattr(qamodel, "batch_loss_and_grads", poisoned)
        assert _run("train", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--epochs", "2",
                    "--batch", "2", "--out", str(tmp_path / "o")) == 3
        victim = batches[4][1].record.qa_id
        assert f"non-finite loss on {victim} (epoch 1, batch at 2)" \
            in capsys.readouterr().err
        assert len(batches) == 5
        assert not (tmp_path / "o" / "model.ckpt").exists()


class TestGradcheck:
    def test_passes_on_small_model(self, tmp_path, capsys):
        assert _run("gradcheck", "--seed", "2",
                    "--out", str(tmp_path / "gc")) == 0
        assert "overall max relative error" in capsys.readouterr().out
        text = (tmp_path / "gc" / "gradcheck.txt").read_text()
        assert "max_rel_error" in text
        # one row per synthesized record: qa id, its error, worst tensor
        rows = [line.split("\t") for line in text.splitlines()
                if not line.startswith(("#", "max_rel_error"))]
        names = qamodel.param_shapes(qamodel.ModelConfig.micro())
        assert len(rows) == 4
        assert len({qa_id for qa_id, _, _ in rows}) == 4
        for qa_id, error, worst in rows:
            assert float(error) < 1e-4 and worst in names

    def test_full_preset_is_usage_error(self, tmp_path, capsys):
        assert _run("gradcheck", "--preset", "full",
                    "--out", str(tmp_path / "gc")) == 1
        assert "--preset full" in capsys.readouterr().err
        assert not (tmp_path / "gc").exists()

    def test_failed_check_is_numerics_error(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(cli, "finite_diff_grad_check",
                            lambda *args: GradCheckResult(1e-3, "W_out"))
        assert _run("gradcheck", "--out", str(tmp_path)) == 3
        assert ("numerics error: gradient check failed: 1.000e-03"
                in capsys.readouterr().err)
        assert "max_rel_error\t1.000000e-03" in \
            (tmp_path / "gradcheck.txt").read_text()

    def test_nan_gradient_is_numerics_error(self, tmp_path, monkeypatch,
                                            capsys):
        real = qamodel.gradcheck_fns

        def nan_grads(*args):
            loss_fn, grad_fn = real(*args)
            return loss_fn, lambda p: {k: np.full_like(v, np.nan)
                                       for k, v in grad_fn(p).items()}

        monkeypatch.setattr(qamodel, "gradcheck_fns", nan_grads)
        assert _run("gradcheck", "--out", str(tmp_path / "gc")) == 3
        assert "non-finite analytic gradient W_ce[0]" in \
            capsys.readouterr().err


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
    def _nan_checkpoint(ckpt, tmp_path):
        params, mc, vocab = qamodel.load_checkpoint(ckpt)
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
            self, world, full_grid_ckpt, tmp_path, capsys):
        ckpt = self._nan_checkpoint(full_grid_ckpt, tmp_path)
        out = tmp_path / "maps"
        assert _run("heatmap", "--corpus", world["corpus"],
                    "--features", world["features"],
                    "--splits", world["splits"], "--checkpoint", str(ckpt),
                    "--out", str(out)) == 3
        assert "non-finite attention" in capsys.readouterr().err
        assert not [n for n in os.listdir(out) if n.endswith(".pgm")]
