"""
The groundedqa benchmark. It drives the program only through its
command-line interface (`python -m groundedqa.cli`), one process per
command, each waited for before the next starts (a closed loop with one
caller). BLAS is pinned to one thread in every child. Run it from the root
of a checkout that holds `src/groundedqa`:

    python3 perfbench/run.py --workload train-paper --seed 1 \\
        --seconds 45 --trace 0

README.md beside this file defines each workload and metric.

A run, for one workload and seed:

1. Generates its inputs with the code under test: `synth` (features from
   the seed), `split` (50/20/30, always with SPLIT_SEED) and, for
   eval-paper, `train --epochs 0`, which writes the checkpoint that eval
   reads.
2. The timed loop: the workload's command, repeated until `--seconds`
   have passed (at least MIN_LOOP_RUNS times). Before each repeat it times
   set-up (`setup_s`): the command doing no record work. For train that is
   `train --epochs 0`. For eval it is eval over one test record, less one
   record's time as the loop measures it.
3. Quality fingerprints, at the fixed seed FINGERPRINT_SEED with
   train-paper's inputs: `final_train_loss` from one `train`,
   `eval_accuracy` from `eval` of the checkpoint it wrote. They do not
   depend on `--seed`, so they repeat exactly and catch a change in the
   arithmetic.

Every output is checked. A record fails when its command exits non-zero,
when eval reports it as an `# error` line, or when its epoch's loss is not
finite; `success_rate` is 1 - failed / attempted.

With `--trace 1`, set-up and step 3 are skipped. The loop alternates
commands run through `trace_cli.py`, which times every public function of
the traced layers, with plain ones; the per-layer metrics come from the
traced commands and `trace.overhead_pct` compares the two kinds.

Stdout ends with an `{"environment": ...}` line and then the result line
`{"correct", "attempted", "failed", "metrics"}`. MB means 10^6 bytes.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "groundedqa")
TRACE_CLI = os.path.join(ROOT, "perfbench", "trace_cli.py")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_LOOP_RUNS = 3
FINGERPRINT_SEED = 0
# Every seed splits the same records, so every seed has the same vocabulary,
# tensor shapes and work per command, and the exact counters repeat across
# seeds. The seed varies the feature values, the init and the data order.
SPLIT_SEED = 0
RUN_LIMIT_S = 170.0  # a child still running then is killed and counted failed
MB = 1e6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Paper scale for every command: hidden 512, a 196x512 conv map and 4096-d
# features. Batch 8 keeps Adam frequent.
PRESET = "full"
SHAPES = {"hidden": 512, "d_a": 512, "conv_map": [196, 512],
          "feature_dim": 4096}
BATCH = 8
LR = 1e-4


@dataclass(frozen=True)
class Workload:
    n_telling: int
    n_pointing: int
    command: str  # the command the timed loop repeats: "train" or "eval"
    epochs: int


WORKLOADS = {
    # qamodel backward and numkit Adam do almost all the work. 32 records:
    # 16 train, 10 test.
    "train-paper": Workload(16, 16, "train", 1),
    # Forward only. The features directory holds every split's packs, so
    # about 70% of the packs eval loads eagerly are never used. 128 records:
    # 38 test. The timed eval reads an untrained checkpoint (epochs 0): the
    # forward pass costs the same for any weights.
    "eval-paper": Workload(64, 64, "eval", 0),
}
# Both workloads take their quality fingerprints from this one's train.
FINGERPRINT_WORKLOAD = "train-paper"

E2E_UNITS = {"records_per_s": "records/s", "setup_s": "s",
             "peak_rss_mb": "MB", "success_rate": "ratio",
             "final_train_loss": "nats", "eval_accuracy": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    rc: int
    wall_s: float
    rss_mb: float
    trace: dict = None


class Runner:
    """Runs CLI commands one at a time and keeps the failure ledger."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._count = 0

    def run(self, args, traced=False) -> Outcome:
        self._count += 1
        log = os.path.join(self.work, f"cmd{self._count:03d}.log")
        trace_path = os.path.join(self.work, f"trace{self._count:03d}.json")
        if traced:
            cmd = [sys.executable, TRACE_CLI, trace_path] + args
        else:
            cmd = [sys.executable, "-m", "groundedqa.cli"] + args
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(proc.returncode, wall, usage.ru_maxrss * 1024 / MB)
        if outcome.rc != 0:
            with open(log, "r", encoding="utf-8", errors="replace") as f:
                tail = f.read()[-2000:]
            self.problem(f"exit {outcome.rc}: {' '.join(args)}\n{tail}")
        elif traced:
            with open(trace_path, "r", encoding="utf-8") as f:
                outcome.trace = json.load(f)
        return outcome

    def account(self, outcome, records, failed=0):
        """
        Count a command's records as attempted, and as failed: all of them
        when it exited non-zero, else `failed` of them. A command that
        works on no record counts as one unit.
        """
        units = max(records, 1)
        self.attempted += units
        self.failed += units if outcome.rc else min(failed, units)

    def problem(self, message):
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Reading the program's outputs
# ---------------------------------------------------------------------------


def read_splits(path):
    splits = {"train": [], "val": [], "test": []}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                qa_id, split = line.split("\t")
                splits[split].append(qa_id)
    return splits


def read_image_ids(corpus_path):
    with open(corpus_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {qa["qa_id"]: qa["image_id"] for qa in doc["qa_pairs"]}


def read_loss_curve(path):
    losses = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                losses.append(float(line.split("\t")[1]))
    return losses


def read_report(path):
    """(overall count, overall accuracy, error lines, result lines)."""
    count = accuracy = None
    errors = 0
    body = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# error\t"):
                errors += 1
            elif line.startswith("#"):
                continue
            if line.startswith("overall\t"):
                _, n, acc = line.split("\t")
                count, accuracy = int(n), float(acc)
            body.append(line)
    return count, accuracy, errors, body


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, name, seed, seconds, trace, runner):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runner = runner
        self.traces = []  # per-layer data of the traced loop commands
        self.write_trace = None  # traced synth, for the write throughput
        self.samples = {}

    # -- inputs ------------------------------------------------------------

    def generate(self, tag, seed, spec, traced_synth=False):
        """synth -> split with the code under test; returns the input paths."""
        data = os.path.join(self.runner.work, tag)
        synth = self.runner.run(
            ["synth", "--n-telling", str(spec.n_telling), "--n-pointing",
             str(spec.n_pointing), "--seed", str(seed), "--out", data],
            traced=traced_synth)
        self.runner.account(synth, 0)
        if traced_synth:
            self.write_trace = synth.trace
        corpus = os.path.join(data, "corpus.json")
        split = self.runner.run(["split", "--corpus", corpus, "--splits-seed",
                                 str(SPLIT_SEED), "--out", data])
        self.runner.account(split, 0)
        if synth.rc or split.rc:
            raise BenchError("input generation failed")
        inputs = {"corpus": corpus, "features": os.path.join(data, "packs"),
                  "splits": os.path.join(data, "splits.tsv"), "dir": data}
        inputs["split_ids"] = read_splits(inputs["splits"])
        inputs["image_ids"] = read_image_ids(corpus)
        return inputs

    @staticmethod
    def data_args(inputs, splits=None):
        return ["--corpus", inputs["corpus"], "--features",
                inputs["features"], "--splits", splits or inputs["splits"]]

    # -- commands ------------------------------------------------------------

    def train(self, inputs, spec, seed, out, epochs=None, traced=False):
        """One train command; returns (outcome, loss curve, records)."""
        epochs = spec.epochs if epochs is None else epochs
        records = len(inputs["split_ids"]["train"]) * epochs
        outcome = self.runner.run(
            ["train", "--preset", PRESET] + self.data_args(inputs)
            + ["--epochs", str(epochs), "--batch", str(BATCH),
               "--lr", repr(LR), "--seed", str(seed), "--out", out],
            traced=traced)
        curve = []
        if outcome.rc == 0:
            curve = self.check_train_outputs(out, epochs)
        bad = sum(not math.isfinite(x) for x in curve)
        per_epoch = len(inputs["split_ids"]["train"])
        self.runner.account(outcome, records, bad * per_epoch)
        return outcome, curve, records

    def check_train_outputs(self, out, epochs):
        curve = []
        try:
            curve = read_loss_curve(os.path.join(out, "loss_curve.txt"))
            ckpt = os.path.getsize(os.path.join(out, "model.ckpt"))
        except (OSError, ValueError, IndexError) as e:
            self.runner.problem(f"unreadable train output in {out}: {e}")
            return curve
        if len(curve) != epochs:
            self.runner.problem(f"{out}: {len(curve)} losses for {epochs} "
                                f"epochs")
        if ckpt == 0:
            self.runner.problem(f"{out}: empty checkpoint")
        return curve

    def evaluate(self, inputs, spec, checkpoint, out, splits=None,
                 expected=None, traced=False):
        """One eval command; returns (outcome, report body, accuracy, n)."""
        expected = len(inputs["split_ids"]["test"]) if expected is None \
            else expected
        outcome = self.runner.run(
            ["eval", "--preset", PRESET]
            + self.data_args(inputs, splits)
            + ["--checkpoint", checkpoint, "--out", out], traced=traced)
        body, accuracy, errors = [], None, 0
        if outcome.rc == 0:
            try:
                count, accuracy, errors, body = read_report(
                    os.path.join(out, "report.txt"))
            except (OSError, ValueError) as e:
                self.runner.problem(f"unreadable eval report in {out}: {e}")
                count = None
            if count != expected:
                self.runner.problem(f"{out}: eval scored {count} records, "
                                    f"expected {expected}")
            if accuracy is not None and not 0.0 <= accuracy <= 1.0:
                self.runner.problem(f"{out}: accuracy {accuracy} out of range")
        self.runner.account(outcome, expected, errors)
        return outcome, body, accuracy, expected

    def one_record_splits(self, inputs):
        """The split file with a single test record; the rest become val."""
        keep = sorted(inputs["split_ids"]["test"])[0]
        path = os.path.join(inputs["dir"], "splits_one_test.tsv")
        with open(path, "w", encoding="utf-8") as f:
            for split, ids in inputs["split_ids"].items():
                for qa_id in ids:
                    label = "val" if split == "test" and qa_id != keep \
                        else split
                    f.write(f"{qa_id}\t{label}\n")
        return path

    # -- the run -----------------------------------------------------------

    def run(self):
        spec, seed = self.spec, self.seed
        work = self.runner.work
        inputs = self.generate("data", seed, spec, traced_synth=self.trace)
        checkpoint = None
        if spec.command == "eval":
            gen, _, _ = self.train(inputs, spec, seed,
                                   os.path.join(work, "ckpt"), epochs=0)
            if gen.rc:
                raise BenchError("checkpoint generation failed")
            checkpoint = os.path.join(work, "ckpt", "model.ckpt")

        loop = self.timed_loop(inputs, checkpoint)
        if self.trace:
            return self.layer_metrics(inputs, loop, checkpoint)
        metrics = {
            "records_per_s": _median([r / o.wall_s for o, r in loop["plain"]]),
            "setup_s": self.setup_seconds(loop, inputs),
            "peak_rss_mb": _median([o.rss_mb for o, _ in loop["plain"]]),
        }
        metrics.update(self.fingerprints())
        attempted = self.runner.attempted
        metrics["success_rate"] = 1.0 - self.runner.failed / attempted
        return metrics

    def setup_seconds(self, loop, inputs):
        one = _median(loop["setup"])
        if self.spec.command == "train":
            return one
        # eval over one record, less one record's time from the loop's evals
        n = len(inputs["split_ids"]["test"])
        full = _median([o.wall_s for o, _ in loop["plain"]])
        return one - (full - one) / (n - 1)

    def timed_loop(self, inputs, checkpoint):
        """
        The workload's command, repeated for --seconds. Untraced, each
        repeat is preceded by the zero-work command that times set-up, so
        both sample the same stretch of a machine whose speed drifts.
        Traced, repeats alternate between traced and plain.
        """
        work = self.runner.work
        one_test = None if self.spec.command == "train" \
            else self.one_record_splits(inputs)
        runs = {"plain": [], "traced": [], "setup": []}
        reference = None
        end = time.monotonic() + self.seconds
        i = 0
        while i < MIN_LOOP_RUNS or time.monotonic() < end:
            traced = self.trace and i % 2 == 0
            i += 1
            if not self.trace:
                runs["setup"].append(self.setup_command(
                    inputs, checkpoint, one_test, os.path.join(work, "setup")))
            if self.spec.command == "train":
                o, result, records = self.train(
                    inputs, self.spec, self.seed, os.path.join(work, "loop"),
                    traced=traced)
            else:
                o, result, _, records = self.evaluate(
                    inputs, self.spec, checkpoint, os.path.join(work, "loop"),
                    traced=traced)
            if o.rc:
                break
            if reference is None:
                reference = result
            elif result != reference:
                self.runner.problem(f"{self.spec.command} output differs "
                                    f"between repeats on the same inputs")
            runs["traced" if traced else "plain"].append((o, records))
            if traced:
                self.traces.append(o.trace)
        if not runs["plain"] and not runs["traced"]:
            raise BenchError(f"the {self.spec.command} command failed")
        self.samples = {
            "setup_wall_s": runs["setup"],
            "plain_wall_s": [o.wall_s for o, _ in runs["plain"]],
            "traced_wall_s": [o.wall_s for o, _ in runs["traced"]]}
        return runs

    def setup_command(self, inputs, checkpoint, one_test, out):
        """Wall time of the workload's command doing no record work."""
        if self.spec.command == "train":
            o, _, _ = self.train(inputs, self.spec, self.seed, out, epochs=0)
        else:
            o, _, _, _ = self.evaluate(inputs, self.spec, checkpoint, out,
                                       splits=one_test, expected=1)
        return o.wall_s

    def fingerprints(self):
        """final_train_loss and eval_accuracy at the fixed seed."""
        spec = WORKLOADS[FINGERPRINT_WORKLOAD]
        inputs = self.generate("fingerprint", FINGERPRINT_SEED, spec)
        out = os.path.join(self.runner.work, "fingerprint")
        o, curve, _ = self.train(inputs, spec, FINGERPRINT_SEED, out)
        if o.rc or not curve:
            raise BenchError("fingerprint training failed")
        o, _, accuracy, _ = self.evaluate(
            inputs, spec, os.path.join(out, "model.ckpt"),
            os.path.join(out, "eval"))
        if o.rc or accuracy is None:
            raise BenchError("fingerprint evaluation failed")
        return {"final_train_loss": curve[-1], "eval_accuracy": accuracy}

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, inputs, loop, checkpoint):
        agg = merge_traces(self.traces)
        ids = inputs["split_ids"]
        spec = self.spec
        commands = len(self.traces)
        if spec.command == "train":
            selected = ids["train"]
            records = len(ids["train"]) * spec.epochs * commands
            batches = (math.ceil(len(ids["train"]) / BATCH)
                       * spec.epochs * commands)
            ckpt = os.path.join(self.runner.work, "loop", "model.ckpt")
        else:
            selected = ids["test"]
            records = len(ids["test"]) * commands
            batches = 0
            ckpt = checkpoint
        images = {inputs["image_ids"][q] for q in selected}
        plain = _median([o.wall_s for o, _ in loop["plain"]])
        traced = _median([o.wall_s for o, _ in loop["traced"]])
        ctx = {
            "records": records, "batches": batches, "commands": commands,
            "packs_used": len(images) * commands,
            "checkpoint_bytes": os.path.getsize(ckpt),
            "outside_wall_s": sum(o.wall_s for o, _ in loop["traced"]),
            "overhead_pct": (traced / plain - 1.0) * 100.0 if plain else 0.0,
            "write": merge_traces([self.write_trace]),
        }
        metrics, absent = {}, {}
        for name, unit, needs, fn in LAYER_METRICS:
            missing = [f for f in needs if f not in agg["functions"]]
            if missing:
                absent[name] = missing
                metrics[name] = {"value": None, "unit": unit,
                                 "absent": missing}
            else:
                metrics[name] = {"value": fn(agg, ctx), "unit": unit}
        if absent:
            print(f"perfbench: absent functions: {json.dumps(absent)}",
                  file=sys.stderr)
        return metrics


def merge_traces(traces):
    agg = {"functions": set(), "spans": {}, "edges": {}, "bytes": {},
           "layer_s": 0.0}
    for t in traces:
        agg["functions"].update(t["functions"])
        agg["layer_s"] += t["layer_s"]
        for key in ("spans", "edges"):
            for label, entry in t[key].items():
                into = agg[key].setdefault(label, dict.fromkeys(entry, 0))
                for k, v in entry.items():
                    into[k] += v
        for label, v in t["bytes"].items():
            agg["bytes"][label] = agg["bytes"].get(label, 0) + v
    return agg


def _span(agg, label, key="s"):
    return agg["spans"].get(label, {}).get(key, 0)


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _per_call_ms(label):
    return lambda a, c: _per(_span(a, label), _span(a, label, "n"), 1e3)


def _per_call_s(label):
    return lambda a, c: _per(_span(a, label), _span(a, label, "n"))


def _edges_from(agg, parent, children=None, child_prefix=None):
    total = 0.0
    for key, edge in agg["edges"].items():
        p, child = key.split(">")
        if p == parent and (children is None or child in children) and (
                child_prefix is None or child.startswith(child_prefix)):
            total += edge["s"]
    return total


_TRAIN_CHILDREN = ("qamodel.record_loss_and_grads", "qamodel.zero_grads",
                   "numkit.adam_step")

# (name, unit, functions it needs, value from (aggregate, context)). A
# metric whose function the program no longer has is reported with a null
# value and the missing names, not as an error.
LAYER_METRICS = [
    ("qamodel.loss_grad_ms_per_record", "ms",
     ["qamodel.record_loss_and_grads"],
     _per_call_ms("qamodel.record_loss_and_grads")),
    ("qamodel.loss_grad_ms_per_record.telling", "ms",
     ["qamodel.telling_loss_and_grads"],
     _per_call_ms("qamodel.telling_loss_and_grads")),
    ("qamodel.loss_grad_ms_per_record.pointing", "ms",
     ["qamodel.pointing_loss_and_grads"],
     _per_call_ms("qamodel.pointing_loss_and_grads")),
    ("qamodel.train_self_ms_per_batch", "ms",
     ["qamodel.train", *_TRAIN_CHILDREN],
     lambda a, c: _per(_span(a, "qamodel.train") - _edges_from(
         a, "qamodel.train", children=_TRAIN_CHILDREN), c["batches"], 1e3)),
    ("qamodel.zero_grads_mb_per_record", "MB", ["qamodel.zero_grads"],
     lambda a, c: _per(a["bytes"].get("qamodel.zero_grads.alloc", 0),
                       c["records"], 1 / MB)),
    ("qamodel.predict_ms_per_record", "ms", ["qamodel.predict_mc"],
     _per_call_ms("qamodel.predict_mc")),
    ("qamodel.encode_ms_per_record", "ms", ["qamodel.encode"],
     _per_call_ms("qamodel.encode")),
    ("qamodel.telling_decode_ms_per_candidate", "ms",
     ["qamodel.telling_answer_loglik"],
     _per_call_ms("qamodel.telling_answer_loglik")),
    ("qamodel.load_checkpoint_s", "s", ["qamodel.load_checkpoint"],
     _per_call_s("qamodel.load_checkpoint")),
    ("qamodel.save_checkpoint_s", "s", ["qamodel.save_checkpoint"],
     _per_call_s("qamodel.save_checkpoint")),
    ("qamodel.checkpoint_mb", "MB", [],
     lambda a, c: c["checkpoint_bytes"] / MB),
    ("numkit.adam_ms_per_batch", "ms", ["numkit.adam_step"],
     lambda a, c: _per(_span(a, "numkit.adam_step"), c["batches"], 1e3)),
    ("numkit.adam_calls_per_batch", "count", ["numkit.adam_step"],
     lambda a, c: _per(_span(a, "numkit.adam_step", "n"), c["batches"])),
    ("featurestore.read_calls", "count", ["featurestore.read_feature_pack"],
     lambda a, c: _per(_span(a, "featurestore.read_feature_pack", "n"),
                       c["commands"])),
    ("featurestore.read_s", "s", ["featurestore.read_feature_pack"],
     lambda a, c: _per(_span(a, "featurestore.read_feature_pack"),
                       c["commands"])),
    ("featurestore.read_mb_per_s", "MB/s", ["featurestore.read_feature_pack"],
     lambda a, c: _per(a["bytes"].get("featurestore.read_feature_pack.file",
                                      0),
                       _span(a, "featurestore.read_feature_pack"), 1 / MB)),
    ("featurestore.decoded_mb", "MB", ["featurestore.read_feature_pack"],
     lambda a, c: _per(a["bytes"].get(
         "featurestore.read_feature_pack.decoded", 0), c["commands"],
         1 / MB)),
    ("featurestore.packs_used_ratio", "ratio",
     ["featurestore.read_feature_pack"],
     lambda a, c: _per(c["packs_used"],
                       _span(a, "featurestore.read_feature_pack", "n"))),
    ("featurestore.write_mb_per_s", "MB/s",
     ["featurestore.write_feature_pack"],
     lambda a, c: _per(c["write"]["bytes"].get(
         "featurestore.write_feature_pack.file", 0),
         _span(c["write"], "featurestore.write_feature_pack"), 1 / MB)),
    ("datamodel.parse_corpus_s", "s", ["datamodel.parse_corpus"],
     _per_call_s("datamodel.parse_corpus")),
    ("evalkit.evaluate_self_ms_per_record", "ms",
     ["evalkit.evaluate", "qamodel.predict_mc"],
     lambda a, c: _per(_span(a, "evalkit.evaluate") - _edges_from(
         a, "evalkit.evaluate", child_prefix="qamodel."),
         _span(a, "qamodel.predict_mc", "n"), 1e3)),
    ("cli.self_s", "s", ["cli.main"],
     lambda a, c: _per(c["outside_wall_s"] - a["layer_s"], c["commands"])),
    ("trace.overhead_pct", "%", [], lambda a, c: c["overhead_pct"]),
]


# ---------------------------------------------------------------------------
# Environment record and entry point
# ---------------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(PACKAGE)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, PACKAGE).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(runner, name, seed, seconds, trace):
    """Where and how the numbers were made; also proves which code ran."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, os, numpy, groundedqa\n"
         "blas = numpy.show_config(mode='dicts')['Build Dependencies']"
         "['blas']\n"
         "print(json.dumps({'program': os.path.dirname(groundedqa.__file__),"
         " 'numpy': numpy.__version__, 'blas': blas.get('name'),"
         " 'blas_version': blas.get('version')}))"],
        env=runner.env, cwd=runner.work, capture_output=True, text=True,
        timeout=60)
    if probe.returncode != 0:
        raise BenchError(f"cannot import groundedqa and numpy from {SRC}: "
                         f"{probe.stderr.strip()}")
    info = json.loads(probe.stdout)
    if os.path.realpath(info["program"]) != os.path.realpath(PACKAGE):
        raise BenchError(f"imported groundedqa from {info['program']}, "
                         f"not {PACKAGE}")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    spec = WORKLOADS[name]
    return {
        "commit": commit, "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": info["numpy"], "blas": info["blas"],
        "blas_version": info["blas_version"],
        "blas_threads": {var: runner.env[var] for var in BLAS_THREAD_VARS},
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "spec": asdict(spec), "preset": PRESET, "shapes": SHAPES,
        "batch": BATCH, "lr": LR, "split_seed": SPLIT_SEED,
        "fingerprint": {"seed": FINGERPRINT_SEED,
                        "spec": asdict(WORKLOADS[FINGERPRINT_WORKLOAD])},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    # On SIGTERM, unwind: kill and reap the running command, remove files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no program at {PACKAGE}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work, started + RUN_LIMIT_S)
        env = environment(runner, args.workload, args.seed, args.seconds,
                          bool(args.trace))
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), runner)
        values = bench.run()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.trace:
        metrics = values
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
    env["wall_s"] = time.monotonic() - started
    env["samples"] = bench.samples
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not runner.problems and runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
