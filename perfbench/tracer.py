"""In-memory spans around the public functions of each christoffel layer.

A Tracer replaces every binding of the traced functions inside the
loaded ``christoffel.*`` modules with a timing wrapper, so calls between
modules become child spans of the calling span.  Each span records the
function, the task it ran for, its parent span, start and end times, its
busy time and whether an exception left it.  A generator function is one
span whose busy time is the time spent inside its ``next`` calls.

Self time of a span is its busy time minus the busy time of its child
spans; one thread runs one task at a time, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

# Layer -> traced public functions.  The names are the per-layer metric names.
LAYERS = {
    "numeric": ("mat_mul", "det_exact", "det_int"),
    "bwgroup": ("christoffel_matrix", "bw_matrix", "group_mul", "group_inverse",
                "det_closed"),
    "permsign": ("zolotareff", "jacobi"),
    "words": ("lower_christoffel", "bw_rows", "is_christoffel",
              "standard_factorization", "is_perfectly_clustering", "lyndon_words",
              "palindromic_factorization"),
    "contfrac": ("semiconvergents", "christoffel_length"),
    "iet": ("build_sigma", "is_circular", "standard_encoding", "enumerate_pc_words",
            "restriction_word_chain"),
    "sturmian": ("determinantal_vector_closed", "determinantal_vector_oracle",
                 "factor_matrix", "determinantal_vector"),
    "fibonacci": ("fib_sign", "fib_detvec_prediction"),
    "cli": ("main",),
    "fixtures": ("run_all",),
}

FUNCTIONS = tuple(f"{layer}.{func}" for layer, funcs in LAYERS.items() for func in funcs)
FUNCTION_LAYER = tuple(name.split(".")[0] for name in FUNCTIONS)

# Column name -> array typecode of the span table.
COLUMNS = (("func", "H"), ("task", "l"), ("parent", "l"), ("start", "d"),
           ("end", "d"), ("busy", "d"), ("error", "b"))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"),
                (f"{layer}.errors", "count")]
    out += [("cli.import_s", "s"), ("trace.overhead_s", "s"),
            ("trace.overhead_frac", "fraction")]
    return out


class Tracer:
    """Span table of one process, plus spans merged from child processes."""

    def __init__(self):
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.stack: list[int] = []
        self.task = -1
        self.import_s = 0.0

    def __len__(self):
        return len(self.cols["func"])

    def _open(self, fid: int) -> int:
        c = self.cols
        idx = len(c["func"])
        c["func"].append(fid)
        c["task"].append(self.task)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["start"].append(time.perf_counter())
        c["end"].append(0.0)
        c["busy"].append(0.0)
        c["error"].append(0)
        return idx

    def _close(self, idx: int, busy: float | None, error: bool) -> None:
        c = self.cols
        end = time.perf_counter()
        c["end"][idx] = end
        c["busy"][idx] = end - c["start"][idx] if busy is None else busy
        c["error"][idx] = int(error)

    def _wrap(self, fid: int, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            idx = self._open(fid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._close(idx, None, True)
                raise
            stack.pop()
            self._close(idx, None, False)
            return result

        return traced

    def _wrap_generator(self, fid: int, fn):
        stack = self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = self._open(fid)

            def iterate():
                busy = 0.0
                error = False
                try:
                    while True:
                        stack.append(idx)
                        t = perf()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException:
                            error = True
                            raise
                        finally:
                            busy += perf() - t
                            stack.pop()
                        yield item
                finally:
                    self._close(idx, busy, error)

            return iterate()

        return traced

    def install(self) -> None:
        """Wrap the traced functions at every binding site in christoffel.*."""
        for fid, name in enumerate(FUNCTIONS):
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"christoffel.{layer}"), func)
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
            traced = wrap(fid, original)
            modules = [m for key, m in list(sys.modules.items())
                       if key == "christoffel" or key.startswith("christoffel.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    # --- merging spans across processes ------------------------------------

    def export(self) -> dict:
        """Spans as JSON-ready columns, for a child process to hand back."""
        return {"import_s": self.import_s,
                "columns": {name: self.cols[name].tolist() for name, _ in COLUMNS}}

    def merge(self, exported: dict, task: int) -> None:
        """Append a child's spans, re-basing parents and tagging the task."""
        offset = len(self)
        cols = exported["columns"]
        for name, _ in COLUMNS:
            values = cols[name]
            if name == "parent":
                values = [p + offset if p >= 0 else -1 for p in values]
            elif name == "task":
                values = [task] * len(values)
            self.cols[name].extend(values)
        self.import_s += exported["import_s"]

    # --- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer calls, self time and escaped errors."""
        c = self.cols
        func, parent, busy, error = c["func"], c["parent"], c["busy"], c["error"]
        child_busy = [0.0] * len(func)
        for idx, p in enumerate(parent):
            if p >= 0:
                child_busy[p] += busy[idx]
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        errors = dict.fromkeys(LAYERS, 0)
        for idx, fid in enumerate(func):
            calls[fid] += 1
            self_s[fid] += busy[idx] - child_busy[idx]
            if error[idx]:
                layer = FUNCTION_LAYER[fid]
                p = parent[idx]
                if p < 0 or FUNCTION_LAYER[func[p]] != layer:
                    errors[layer] += 1
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_s[fid]
        for layer in LAYERS:
            fids = [fid for fid, lay in enumerate(FUNCTION_LAYER) if lay == layer]
            out[f"{layer}.self_s"] = sum(self_s[f] for f in fids)
            out[f"{layer}.calls"] = sum(calls[f] for f in fids)
            out[f"{layer}.errors"] = errors[layer]
        out["cli.import_s"] = self.import_s
        return out

    def dump(self, path, header: dict) -> None:
        """Write the span table: one JSON header line, then each column's raw bytes."""
        meta = dict(header, functions=list(FUNCTIONS), spans=len(self),
                    columns=[[name, code] for name, code in COLUMNS],
                    byteorder=sys.byteorder)
        with open(path, "wb") as f:
            f.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
            for name, _ in COLUMNS:
                self.cols[name].tofile(f)
