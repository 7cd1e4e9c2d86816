"""In-memory span tracing of the ergolab layers, installed from outside.

The library is not edited: the tracer replaces the public functions of
each layer module (and the names other ergolab modules re-bound with
``from .x import f``) with thin wrappers, plus a few methods named in
``METHODS``.  An import hook adds one span per module import, so work a
module does at import time is charged to its layer.

A span is ``[name, start, end, parent, raised]``; ``parent`` is the index
of the enclosing span or -1.  Self time is a span's duration minus the
durations of its direct children.  Spans nest strictly because the
program is single-threaded at the Python level, so summing self times
over the spans of a layer counts nested same-layer calls once.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "ergolab"
LAYERS = (
    "states",
    "entropy",
    "operators",
    "hamiltonians",
    "ensembles",
    "ergodicity",
    "overlaps",
    "rates",
    "circuits",
    "mps",
    "cli",
)

# (module, class, attribute) -> span name
METHODS = {
    ("hamiltonians", "LocalHamiltonian", "assemble"): "hamiltonians.assemble",
    ("hamiltonians", "SpectralData", "coefficients"): "hamiltonians.coefficients",
    ("states", "DensityMatrix", "__post_init__"): "states.DensityMatrix",
    ("ensembles", "DiagonalEnsemble", "__init__"): "ensembles.DiagonalEnsemble",
    ("ensembles", "DiagonalEnsemble", "reduced"): "ensembles.DiagonalEnsemble.reduced",
}

# Counts derived from call arguments and results.  They depend only on
# the inputs, so they repeat exactly from run to run.
COMPUTED = {
    "hamiltonians.eigh_dim3": "sum of dim**3 over hamiltonians.diagonalize calls",
    "ergodicity.candidates": "sum of len(candidate_subsets(...)) over calls",
    "ergodicity.scan_bytes_computed": (
        "sum over build_profile calls of candidates * eigenvectors.nbytes * 2 "
        "(per-candidate transpose: one read and one write of the eigenvectors)"
    ),
}

clock = time.perf_counter


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and computed counts for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {key: 0 for key in COMPUTED}
        self._patches: list[tuple[object, str, object]] = []
        self._finder: _ImportSpans | None = None
        self.last_candidates = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str):
        """Return a wrapper of ``fn`` that records one span per call."""
        spans, stack = self.spans, self.stack
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install_import_hook(self) -> None:
        """Add one ``<layer>.import`` span per layer module imported from now on."""
        self._finder = _ImportSpans(self)
        sys.meta_path.insert(0, self._finder)

    def install(self) -> None:
        """Wrap the public functions of every layer and the listed methods."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        # every binding of an original, including `from .x import f` re-bindings
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer and per-function calls, self time and errors, plus counts.

        A layer's ``calls`` counts its spans, import spans included;
        ``errors`` counts spans that ended by raising.
        """
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        per_fn: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for (name, _, _, _, raised), own in zip(self.spans, self.self_times()):
            layer = layer_of(name)
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{layer}.errors"] += int(raised)
            entry = per_fn[name]
            entry[0] += 1
            entry[1] += own
            entry[2] += int(raised)
        for name, (calls, own, errors) in per_fn.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
            out[f"{name}.errors"] = errors
        out.update(self.counts)
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "raised"],
            "spans": self.spans,
            "computed": {key: {"value": self.counts[key], "formula": f} for key, f in COMPUTED.items()},
        }


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Meta-path finder that times the execution of layer modules."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.names = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}

    def find_spec(self, fullname, path=None, target=None):
        layer = self.names.get(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        loader = spec.loader
        exec_module = self.tracer.wrap(loader.exec_module, f"{layer}.import")
        spec.loader = _TimedLoader(loader, exec_module)
        return spec


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, exec_module) -> None:
        self.loader = loader
        self.exec_module = exec_module

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def __getattr__(self, attr):
        return getattr(self.loader, attr)


def _count_eigh(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["hamiltonians.eigh_dim3"] += result.dim**3


def _count_candidates(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["ergodicity.candidates"] += len(result)
    tracer.last_candidates = len(result)


def _count_scan_bytes(tracer: Tracer, args, kwargs, result) -> None:
    # build_profile calls candidate_subsets once, before its scan
    spectral = args[0] if args else kwargs["spectral"]
    tracer.counts["ergodicity.scan_bytes_computed"] += (
        tracer.last_candidates * spectral.eigenvectors.nbytes * 2
    )


_AFTER = {
    "hamiltonians.diagonalize": _count_eigh,
    "ergodicity.candidate_subsets": _count_candidates,
    "ergodicity.build_profile": _count_scan_bytes,
}
