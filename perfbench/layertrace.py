"""Per-layer tracing of darwinlab, installed from outside the package.

A layer is a module of the package.  `Tracer` replaces every binding of every
public function that a layer defines, in every layer module that holds one,
with a wrapper that records a span.  Re-exported bindings matter:
``observables.to_position`` is its own name, so patching ``kgrid.to_position``
alone would miss most transforms.  Functions are found by enumeration, so a
function added by a refactor is traced without editing this file.

Run as a program, it runs one `dpl` command under the tracer and writes the
spans to a JSON file::

    PYTHONPATH=src python3 perfbench/layertrace.py SPANS.json -- check state.dpst

This module imports nothing outside the standard library at import time, so the
benchmark driver can use `aggregate` without loading numpy.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "darwinlab"
LAYERS = ("cli", "stateio", "state", "kgrid", "observables", "dynamics",
          "fieldbridge", "algebra", "suites")
FFT_FUNCTIONS = ("to_position", "to_momentum")
FIELD_VALIDATE = "Field.__post_init__"
CROSS_LAYERS = ("state", "kgrid", "observables", "dynamics", "fieldbridge")
SUITE_NAMES = ("algebra", "constraint", "spin-equalities", "oam", "probability",
               "densities", "maxwell", "conservation", "fieldbridge", "kernels")

# Span fields, kept as lists for low per-call cost.
LAYER, FUNC, PARENT, START, END, EXCLUDED, CROSS, ERROR, ATTRS = range(9)


class Tracer:
    """Records a span for every call of a public darwinlab function.

    Use as a context manager; leaving it restores every patched binding.
    Work the tracer itself does inside an open span (content digests, file
    sizes) is timed and subtracted from that span and all its ancestors.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: set[str] = set()       # "layer.function" names that were found
        self._stack: list[int] = []
        self._excluded = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._digests: set[tuple] = set()
        self._errors: set[tuple[str, int]] = set()
        self._error_refs: list[BaseException] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        import numpy

        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
        owners = [importlib.import_module(PACKAGE), *mods.values()]
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or layer not in LAYERS:
                    continue
                self._patch(owner, name, self._wrapper(obj, layer, obj.__name__))
        field_cls = getattr(mods.get("kgrid"), "Field", None)
        if field_cls is not None and "__post_init__" in vars(field_cls):
            self._patch(field_cls, "__post_init__",
                        self._wrapper(field_cls.__post_init__, "kgrid", FIELD_VALIDATE))
        self._patch(numpy, "cross", self._cross_wrapper(numpy.cross))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- span recording ---------------------------------------------------

    def _wrapper(self, fn, layer: str, name: str):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        self.wrapped.add(f"{layer}.{name}")
        pre = {"to_position": self._fft_attrs, "to_momentum": self._fft_attrs,
               "read_state": _file_size}.get(name)
        post = {"write_state": lambda args, _: _file_size(args)}.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = self._untimed(pre, args) if pre else None
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0,
                    self._excluded, 0.0, 0, attrs]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf()
                self._close(span, exc)
                raise
            span[END] = perf()
            self._close(span, None)
            if post:
                span[ATTRS] = self._untimed(post, args, result)
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _close(self, span: list, exc: BaseException | None) -> None:
        self._stack.pop()
        span[EXCLUDED] = self._excluded - span[EXCLUDED]
        if exc is not None and (span[LAYER], id(exc)) not in self._errors:
            self._errors.add((span[LAYER], id(exc)))
            self._error_refs.append(exc)       # keeps id(exc) unique while tracing
            span[ERROR] = 1

    def _untimed(self, hook, *args):
        t0 = time.perf_counter()
        try:
            return hook(*args)
        finally:
            self._excluded += time.perf_counter() - t0

    def _cross_wrapper(self, cross):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(cross)
        def timed_cross(*args, **kwargs):
            t0 = perf()
            result = cross(*args, **kwargs)
            if stack:
                spans[stack[-1]][CROSS] += perf() - t0
            return result

        return timed_cross

    def _fft_attrs(self, args) -> dict:
        import numpy

        field = args[0]
        values = numpy.ascontiguousarray(field.values)
        key = (field.rep, values.shape, hashlib.sha256(memoryview(values).cast("B")).digest())
        repeat = key in self._digests
        self._digests.add(key)
        return {"components": int(values.shape[-1]), "n": int(values.shape[0]),
                "repeat": int(repeat)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": sorted(self.wrapped), "spans": self.spans}, fh)


def _file_size(args) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# -- aggregation (standard library only) -----------------------------------

def aggregate(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one iteration.

    ``records`` are the dumps of `Tracer.dump`, one per command.  A metric
    whose function was not found in the package is left out.
    """
    wrapped = set().union(*(r["wrapped"] for r in records)) if records else set()
    out: dict[str, float] = {}
    fft_calls = repeats = 0

    def add(name, value):
        out[name] = out.get(name, 0) + value

    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        dur = [s[END] - s[START] - s[EXCLUDED] for s in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        for layer in LAYERS:
            for key in ("self_s", "calls", "errors"):
                add(f"{layer}.{key}", 0)
        for i, s in enumerate(spans):
            layer, func, attrs = s[LAYER], s[FUNC], s[ATTRS] or {}
            add(f"{layer}.self_s", dur[i] - child[i])
            add(f"{layer}.calls", 1)
            add(f"{layer}.errors", s[ERROR])
            if layer in CROSS_LAYERS:
                add(f"{layer}.cross_s", s[CROSS])
            if func in FFT_FUNCTIONS:
                fft_calls += 1
                repeats += attrs["repeat"]
                add("kgrid.fft_s", dur[i])
                add("kgrid.fft_calls", 1)
                add("kgrid.fft_components", attrs["components"])
                add("kgrid.fft_bytes_computed", 2 * attrs["n"] ** 3 * attrs["components"] * 16)
            elif func == "read_state":
                add("stateio.read_s", dur[i])
                add("stateio.read_calls", 1)
                add("stateio.read_bytes", attrs["bytes"])
            elif func == "write_state":
                add("stateio.write_s", dur[i])
                add("stateio.write_calls", 1)
                add("stateio.write_bytes", attrs["bytes"])
            elif func == "synthesize":
                add("state.synthesize_s", dur[i])
                add("state.synthesize_calls", 1)
            elif func in ("transversality_residual", "branch_residual"):
                add("state.residual_s", dur[i])
                add("state.residual_calls", 1)
            elif func == "k_gradient":
                add("kgrid.k_gradient_s", dur[i])
                add("kgrid.k_gradient_calls", 1)
            elif func == FIELD_VALIDATE:
                add("kgrid.field_validate_s", dur[i])
                add("kgrid.field_validate_calls", 1)
            elif func == "kernel_pair_check":
                add("fieldbridge.kernel_s", dur[i])
            elif layer == "suites" and func.startswith("suite_"):
                add(f"suites.{func[len('suite_'):].replace('_', '-')}_s", dur[i])
    if fft_calls:
        out["kgrid.fft_repeat_ratio"] = repeats / fft_calls

    # a function that exists but was not called in this iteration reads 0
    sources = {
        "kgrid.fft_": [f"kgrid.{f}" for f in FFT_FUNCTIONS],
        "stateio.read_": ["stateio.read_state"],
        "stateio.write_": ["stateio.write_state"],
        "state.synthesize_": ["state.synthesize"],
        "state.residual_": ["state.transversality_residual", "state.branch_residual"],
        "kgrid.k_gradient_": ["kgrid.k_gradient"],
        "kgrid.field_validate_": [f"kgrid.{FIELD_VALIDATE}"],
        "fieldbridge.kernel_": ["fieldbridge.kernel_pair_check"],
    }
    for suite in SUITE_NAMES:
        sources[f"suites.{suite}_"] = [f"suites.suite_{suite.replace('-', '_')}"]
    for name in PER_LAYER:
        if name in out or name in OUTSIDE:
            continue
        prefix = next((p for p in sources if name.startswith(p)), None)
        if prefix is None or any(f in wrapped for f in sources[prefix]):
            out[name] = 0
    return out


# metrics measured from outside the traced process
OUTSIDE = ("cli.startup_s", "trace.overhead_ratio")

PER_LAYER: dict[str, str] = {
    "cli.startup_s": "s", "cli.self_s": "s", "cli.calls": "count",
    "stateio.read_s": "s", "stateio.read_calls": "count", "stateio.read_bytes": "bytes",
    "stateio.write_s": "s", "stateio.write_calls": "count", "stateio.write_bytes": "bytes",
    "stateio.self_s": "s",
    "state.synthesize_s": "s", "state.synthesize_calls": "count",
    "state.residual_s": "s", "state.residual_calls": "count", "state.self_s": "s",
    "state.cross_s": "s",
    "kgrid.fft_s": "s", "kgrid.fft_calls": "count", "kgrid.fft_components": "count",
    "kgrid.fft_bytes_computed": "bytes", "kgrid.fft_repeat_ratio": "ratio",
    "kgrid.k_gradient_s": "s", "kgrid.k_gradient_calls": "count",
    "kgrid.field_validate_s": "s", "kgrid.field_validate_calls": "count",
    "kgrid.self_s": "s", "kgrid.cross_s": "s",
    "observables.self_s": "s", "observables.calls": "count", "observables.cross_s": "s",
    "dynamics.self_s": "s", "dynamics.calls": "count", "dynamics.cross_s": "s",
    "fieldbridge.self_s": "s", "fieldbridge.calls": "count", "fieldbridge.kernel_s": "s",
    "fieldbridge.cross_s": "s",
    "algebra.self_s": "s", "algebra.calls": "count",
    "suites.self_s": "s", "suites.calls": "count",
    **{f"suites.{s}_s": "s" for s in SUITE_NAMES},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py SPANS.json -- DPL_ARGS...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    tracer = Tracer()
    with tracer:
        from darwinlab import cli

        try:
            return cli.main(args)
        finally:
            tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
