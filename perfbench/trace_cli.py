"""
Run one `groundedqa` command with every public function of the traced
layers wrapped by a timer, then write the aggregated spans as JSON.

    python3 perfbench/trace_cli.py TRACE_OUT.json <groundedqa arguments...>

`groundedqa` must be importable (run.py puts the checkout's `src` on
PYTHONPATH). No source file of the program changes: the wrappers replace the
module attributes that callers look up at call time, in every module of the
package that holds a reference, so `qamodel.adam_step` (imported by name from
`numkit`) is traced as `numkit.adam_step`.

Output keys:
  functions  every public function found, so a metric can name what is absent
  spans      label -> {"n": calls, "s": inclusive seconds, "self": seconds
             not covered by traced callees}
  edges      "parent>child" -> {"n", "s"} for directly nested traced calls
  bytes      label -> bytes counted by the hooks below
  layer_s    seconds inside outermost non-`cli` spans
  program    path of the imported package, to prove which code ran
"""

import inspect
import json
import mmap
import os
import sys
import time

LAYERS = ("cli", "datamodel", "featurestore", "qamodel", "numkit", "evalkit")


def _owned_nbytes(arr):
    """Bytes of an ndarray that holds decoded data, 0 for a file mapping."""
    import numpy as np
    base = arr
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return 0
        base = base.base
    return 0 if isinstance(base, mmap.mmap) else arr.nbytes


def _pack_arrays(pack):
    import numpy as np
    for value in vars(pack).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            yield from (v for v in value.values() if isinstance(v, np.ndarray))


def _path_arg(args, kwargs, index, name):
    path = kwargs.get(name, args[index] if len(args) > index else None)
    return path if isinstance(path, (str, os.PathLike)) else None


def _zero_grads_bytes(args, kwargs, result):
    return {"alloc": sum(g.nbytes for g in result.values())}


def _read_pack_bytes(args, kwargs, result):
    path = _path_arg(args, kwargs, 0, "path")
    return {"file": os.path.getsize(path) if path else 0,
            "decoded": sum(_owned_nbytes(a) for a in _pack_arrays(result))}


def _write_pack_bytes(args, kwargs, result):
    path = _path_arg(args, kwargs, 1, "path")
    return {"file": os.path.getsize(path) if path else 0}


# Byte counts for the size-based metrics. A hook that no longer fits the
# function's signature or result is skipped, never fatal.
HOOKS = {
    "qamodel.zero_grads": _zero_grads_bytes,
    "featurestore.read_feature_pack": _read_pack_bytes,
    "featurestore.write_feature_pack": _write_pack_bytes,
}


class Tracer:
    def __init__(self):
        self.functions = []
        self.spans = {}
        self.edges = {}
        self.bytes = {}
        self.layer_s = 0.0
        self._stack = []  # [label, child seconds]

    def wrap(self, label, fn):
        hook = HOOKS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [label, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, clock() - start)
            if hook is not None:
                self._count_bytes(label, hook, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.perfbench_traced = True
        return traced

    def _close(self, frame, dur):
        self._stack.pop()
        label = frame[0]
        span = self.spans.setdefault(label, {"n": 0, "s": 0.0, "self": 0.0})
        span["n"] += 1
        span["s"] += dur
        span["self"] += dur - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
            edge = self.edges.setdefault(f"{parent[0]}>{label}",
                                         {"n": 0, "s": 0.0})
            edge["n"] += 1
            edge["s"] += dur
        if not label.startswith("cli.") and (
                parent is None or parent[0].startswith("cli.")):
            self.layer_s += dur

    def _count_bytes(self, label, hook, args, kwargs, result):
        try:
            counts = hook(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, OSError):
            return
        for key, value in counts.items():
            name = f"{label}.{key}"
            self.bytes[name] = self.bytes.get(name, 0) + int(value)

    def install(self, package):
        """Wrap each public function of LAYERS in every package module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:  # a removed layer shows as absent functions
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or getattr(fn, "perfbench_traced", False)
                        or fn.__module__ != mod.__name__):
                    continue
                label = f"{layer}.{attr}"
                self.functions.append(label)
                wrapper = self.wrap(label, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)

    def dump(self, path, program):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"functions": sorted(self.functions),
                       "spans": self.spans, "edges": self.edges,
                       "bytes": self.bytes, "layer_s": self.layer_s,
                       "program": program}, f)


def main(argv):
    if len(argv) < 2:
        print("usage: trace_cli.py TRACE_OUT.json <groundedqa args...>",
              file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[1:]
    from groundedqa import cli
    tracer = Tracer()
    tracer.install("groundedqa")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out, os.path.dirname(os.path.abspath(cli.__file__)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
