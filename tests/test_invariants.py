import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re

import groundedqa
from groundedqa import cli

SRC = pathlib.Path(groundedqa.__file__).parent
TESTS = pathlib.Path(__file__).parent

# Files whose references keep a public name alive: the package itself and the
# tests that fix its behaviour (the acceptance suite and its shared helpers).
REACHING = [*sorted(SRC.rglob("*.py")), TESTS / "test_acceptance.py",
            TESTS / "lstm_reference.py", TESTS / "conftest.py"]

# Public names that stay although nothing above refers to them.
UNREACHED_ON_PURPOSE = {
    "accuracy_by_frequency_bin": "the per-frequency-bin analysis that the "
                                 "stats report is still to use",
    "telling_answer_loglik": "the one-answer decode that the benchmark's "
                             "qamodel.telling_decode_ms_per_candidate "
                             "traces; predict_batch decodes 4 at once",
    "telling_loss_and_grads": "the benchmark's qamodel.loss_grad_ms_per_"
                              "record.telling metric traces it; the "
                              "ROADMAP's one-scoring-path item deletes it "
                              "once that metric goes",
    "pointing_loss_and_grads": "the benchmark's qamodel.loss_grad_ms_per_"
                               "record.pointing metric traces it; the "
                               "ROADMAP's one-scoring-path item deletes it "
                               "once that metric goes",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements_in_the_package():
    """Invariants raise typed errors; `python -O` strips an `assert`."""
    paths = sorted(SRC.rglob("*.py"))
    assert "baselines.py" in {path.name for path in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_public_name_is_reached():
    """No top-level public def or class that no command or test reaches."""
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in _tree(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = f"{path.name}:{node.lineno}"
    used = set()
    for path in REACHING:
        tree = _tree(path)
        # a test file's bare use of a name it defines itself (as
        # lstm_reference's own telling_loss_and_grads) reaches nothing here
        own = set() if path.is_relative_to(SRC) else {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in own:
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unreached = {name: where for name, where in defined.items()
                 if name not in used and name not in UNREACHED_ON_PURPOSE}
    assert not unreached, unreached
    stale = sorted(set(UNREACHED_ON_PURPOSE) & used)
    assert not stale, f"now reached; drop from UNREACHED_ON_PURPOSE: {stale}"
    gone = sorted(set(UNREACHED_ON_PURPOSE) - set(defined))
    assert not gone, f"not defined; drop from UNREACHED_ON_PURPOSE: {gone}"


def test_every_private_name_is_referenced():
    """
    No top-level `_` def or class that no package module refers to. A
    private name cannot be reached from outside the package, so one that
    nothing in it refers to is dead code. Its own body does not count.
    """
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in _tree(path).body:
            own = getattr(node, "name", None)
            if own is not None and own.startswith("_"):
                defined[own] = f"{path.name}:{node.lineno}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    used.add(name)
    assert defined
    orphans = {name: where for name, where in defined.items()
               if name not in used}
    assert not orphans, orphans


def test_no_unused_imports_in_the_package():
    """Each name a package module imports at top level, it uses."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, unused


def test_records_are_tokenized_in_one_place():
    """
    Inside the package only `datamodel` itself and `qamodel._Example.of`
    refer to `tokenize`: training, prediction and heat maps read the token
    ids that `_Example.of` encodes, so a record has one encoding.
    """
    allowed = {"qamodel.py:_Example.of"}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "datamodel.py":
            continue
        stack = [(_tree(path), ())]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope += (node.name,)
            if "tokenize" in (getattr(node, "id", None),
                              getattr(node, "attr", None)):
                found.add(f"{path.name}:{'.'.join(scope)}")
            stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    assert found == allowed, sorted(found ^ allowed)


def test_cli_opens_files_in_one_place():
    """
    In `cli` only `_write_text` and `_prepare_out`, for its append to
    `run.log`, call `open`: every text file a command writes goes through
    `_write_text`, which owns the `# key=value` header.
    """
    allowed = {"_write_text", "_prepare_out"}
    found = set()
    stack = [(_tree(SRC / "cli.py"), ())]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope += (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            found.add(".".join(scope))
        stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    assert found == allowed, sorted(found ^ allowed)


def test_cli_runs_the_model_in_passes():
    """
    `cli` reaches `qamodel` through this fixed set of names, which holds
    none of the one-record entry points: every command runs its records
    in passes of PASS_RECORDS, which read features through `_gather`.
    """
    allowed = {"ModelConfig", "MODES", "LEARNED", "TrainConfig", "train",
               "init_params", "save_checkpoint", "load_checkpoint",
               "predict_batch", "attention_traces", "gradcheck_fns"}
    one_record = {"encode", "attention_step", "predict_mc",
                  "telling_answer_loglik", "telling_loss_and_grads",
                  "pointing_loss_and_grads", "record_loss_and_grads"}
    assert not allowed & one_record
    found = set()
    for node in ast.walk(_tree(SRC / "cli.py")):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "qamodel"):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "qamodel":
            found.update(alias.name for alias in node.names)
    assert found == allowed, sorted(found ^ allowed)


def test_the_command_table_reads_every_flag():
    """
    Each name in `cli._COMMAND_TABLE` is a `RunConfig` field; each field
    after `command` is read by at least one command (--out by all, which
    `run` requires), so no flag is dead; its keys are `cli.COMMANDS`.
    """
    flags = {f.name for f in dataclasses.fields(cli.RunConfig)[1:]}
    read = {"out"}
    for _, paths, reads in cli._COMMAND_TABLE.values():
        read.update(paths, reads)
    assert read == flags, sorted(read ^ flags)
    assert tuple(cli._COMMAND_TABLE) == cli.COMMANDS


def _load_by_path(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_traced_function_exists():
    """
    Each function that a per-layer metric of the benchmark needs is a
    public top-level function of its module. The benchmark reports a metric
    whose function is gone as null, and such a result is malformed.
    """
    bench = _load_by_path(TESTS.parent / "perfbench" / "run.py",
                          "perfbench_run")
    needed = sorted({label for _, _, needs, _ in bench.LAYER_METRICS
                     for label in needs})
    assert needed
    missing = []
    for label in needed:
        layer, name = label.split(".")
        module = importlib.import_module(f"groundedqa.{layer}")
        fn = vars(module).get(name)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or fn.__qualname__ != name):
            missing.append(label)
    assert not missing, missing


def test_every_flag_is_documented_and_exercised():
    """
    Each `RunConfig` flag appears in README.md, and in the CLI tests, the
    acceptance suite or the benchmark. A flag matches whole: `--splits`
    does not match `--splits-seed`.
    """
    def text(*names):
        return "\n".join((TESTS.parent / name).read_text(encoding="utf-8")
                         for name in names)

    places = {"README.md": text("README.md"),
              "a test or the benchmark": text(
                  "tests/test_cli.py", "tests/test_acceptance.py",
                  "perfbench/run.py")}
    missing = {}
    for f in dataclasses.fields(cli.RunConfig)[1:]:
        flag = "--" + f.name.replace("_", "-")
        whole = re.compile(rf"(?<![\w-]){re.escape(flag)}(?![\w-])")
        absent = [place for place, body in places.items()
                  if not whole.search(body)]
        if absent:
            missing[flag] = absent
    assert not missing, missing


def test_every_documented_flag_exists():
    """
    Each `--flag` in README.md's CLI section is a `RunConfig` flag, matched
    whole: the README documents no flag that the parser rejects.
    """
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {"--" + f.name.replace("_", "-")
             for f in dataclasses.fields(cli.RunConfig)[1:]}
    documented = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert documented and not documented - flags, documented - flags
