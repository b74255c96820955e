"""Spans around the public functions of every tcis module.

The tracer replaces each public module-level function of the package with
a wrapper in every namespace that binds it: the defining module, the
``tcis`` package, and each module that imported it by name, so calls made
inside the library (partition -> span_closure, partition -> invert,
boolfun -> walsh_table, classify -> canonical_form) are caught as nested
spans.  A span is recorded at each layer boundary: for calls from the
benchmark, for calls from one module into another, and for every call of
the functions named in LAYERS.  A helper called from its own module
(z4_derive_bijections -> gray_word, thousands of times a job) records
nothing; its time stays in its caller's span, which is in the same layer.
Spans stay in memory until the benchmark writes them out.

A span is [function index, job id, parent span, start, end, raised, note];
the note holds the one fact some per-layer ratios need from a result.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Layers are the tcis modules; for the functions listed, calls and self
# time are reported individually.
LAYERS = {
    "classify": ("canonical_form", "enumerate_cat"),
    "partition": ("t_cis_partition", "span_closure"),
    "codes": ("min_distance", "dual_distance", "weight_distribution"),
    "boolfun": ("walsh_table", "cip_strength", "t_ci_strength",
                "group_convolution", "derive_bijections"),
    "z4": ("z4_derive_bijections", "gray_image", "lee_min_distance"),
    "gf2": ("invert", "rank"),
    "construct": ("qc_build", "build_up"),
    "formats": (),
    "cli": (),
}

NOTES = {
    "partition.t_cis_partition": lambda r: r.is_partition,
    "classify.classify_tcis": lambda r: len(r[0]),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        out += [(f"{layer}.self_s", "s"), (f"{layer}.errors", "count")]
        for f in funcs:
            out += [(f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_s", "s")]
    out += [
        ("classify.classes_per_canonical", "ratio"),
        ("classify.equivalent.fastpath_share", "ratio"),
        ("partition.violation_share", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.layers: list[str] = []  # layer of each name
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._wrappers: dict[int, object] = {}  # by id of the original
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = self._wrappers
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for m in vars(self.package).values()
            if inspect.ismodule(m) and m.__name__.startswith(prefix)
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(prefix)
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        layer, func = name.split(".", 1)
        self.names.append(name)
        self.layers.append(layer)
        note = NOTES.get(name)
        always = func in LAYERS.get(layer, ())
        spans, stack, layers = self.spans, self.stack, self.layers
        clock, tracer = time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and stack and layers[spans[stack[-1]][0]] == layer:
                return fn(*args, **kwargs)
            span = [idx, tracer.job, stack[-1] if stack else -1, clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                span[6] = note(result)
            return result

        return traced

    def write(self, path) -> None:
        fields = ["func", "job", "parent", "start", "end", "raised", "note"]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "fields": fields, "spans": self.spans}, fh)

    def layer_metrics(self, passes: int, job_seconds: float) -> dict[str, float]:
        """Per-pass per-layer figures from all spans recorded so far.

        job_seconds is the summed job latency of the traced passes; the
        part of it no top-level span covers is reported as uncovered.
        """
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        kids_named: dict[int, int] = defaultdict(int)  # canonical_form children
        canon = self._index("classify.canonical_form")
        roots = 0.0
        for s in spans:
            dur = s[4] - s[3]
            if s[2] >= 0:
                child[s[2]] += dur
                if s[0] == canon:
                    kids_named[s[2]] += 1
            else:
                roots += dur
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        error_jobs: dict[str, set] = defaultdict(set)
        for i, s in enumerate(spans):
            name, layer = names[s[0]], self.layers[s[0]]
            own = s[4] - s[3] - child[i]
            self_s[name] += own
            self_s[layer] += own
            calls[name] += 1
            if s[5]:
                error_jobs[layer].add(s[1])

        out: dict[str, float] = {}
        for layer, funcs in LAYERS.items():
            out[f"{layer}.self_s"] = self_s[layer] / passes
            out[f"{layer}.errors"] = len(error_jobs[layer]) / passes
            for f in funcs:
                out[f"{layer}.{f}.calls"] = calls[f"{layer}.{f}"] / passes
                out[f"{layer}.{f}.self_s"] = self_s[f"{layer}.{f}"] / passes

        classify_idx = self._index("classify.classify_tcis")
        classes = sum(s[6] for s in spans if s[0] == classify_idx and not s[5])
        in_classify = 0
        for s in spans:
            if s[0] == canon:
                p = s[2]
                while p >= 0 and spans[p][0] != classify_idx:
                    p = spans[p][2]
                in_classify += p >= 0
        out["classify.classes_per_canonical"] = _ratio(classes, in_classify)
        equiv_idx = self._index("classify.equivalent")
        equiv = [i for i, s in enumerate(spans) if s[0] == equiv_idx]
        out["classify.equivalent.fastpath_share"] = _ratio(
            sum(kids_named[i] == 0 for i in equiv), len(equiv))
        part_idx = self._index("partition.t_cis_partition")
        part = [s[6] for s in spans if s[0] == part_idx]
        out["partition.violation_share"] = _ratio(part.count(False), len(part))
        out["trace.wall_s"] = job_seconds / passes
        out["trace.uncovered_s"] = (job_seconds - roots) / passes
        return out

    def _index(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
