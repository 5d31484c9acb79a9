import ast
import importlib
import importlib.util
import inspect
import pathlib

import groundedqa

SRC = pathlib.Path(groundedqa.__file__).parent
TESTS = pathlib.Path(__file__).parent

# Files whose references keep a public name alive: the package itself and the
# tests that fix its behaviour (the acceptance suite and its shared helpers).
REACHING = [*sorted(SRC.rglob("*.py")), TESTS / "test_acceptance.py",
            TESTS / "lstm_reference.py", TESTS / "conftest.py"]

# Public names that stay although nothing above refers to them.
UNREACHED_ON_PURPOSE = {
    "lstm_step": "the hand-written oracle of the LSTM cell, kept for study",
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
