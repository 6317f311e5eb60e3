"""Per-layer metrics of the traced run.

The interpreter profiler attributes self time and call counts to bjorth's
modules without any change to the library: a profiled function belongs to
the module whose source file defines it.  Counts of particular layers are
taken from the profile by qualified name, and "evaluations" are the calls a
routine makes to its objective (the profile records each caller).  Child
generator creation happens in compiled numpy code that the profiler does
not see, so it is counted by wrapping ``numpy.random.default_rng`` while the
profiled round runs.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from pathlib import Path

import numpy as np

MODULES = ("spaces", "orthogonality", "preserver", "analysis", "sampling", "serialize")


class ChildGenerators:
    """Counts numpy.random.default_rng calls while active()."""

    def __init__(self):
        self.calls = 0

    @contextlib.contextmanager
    def active(self):
        original = np.random.default_rng

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        np.random.default_rng = counting
        try:
            yield
        finally:
            np.random.default_rng = original


def _qualnames(package_dir: Path) -> dict:
    """(module, first line, name) -> qualified name for every bjorth function.

    The names are built as Python builds __qualname__: a class body or a
    comprehension adds "name.", a function or lambda "name.<locals>.".
    """
    out = {}
    for path in package_dir.glob("*.py"):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        stack = [(module, "")]
        while stack:
            code, prefix = stack.pop()
            for child in code.co_consts:
                if not inspect.iscode(child):
                    continue
                qualname = prefix + child.co_name
                out[(path.stem, child.co_firstlineno, child.co_name)] = qualname
                comprehension = child.co_name.startswith("<") and child.co_name != "<lambda>"
                function = child.co_flags & inspect.CO_NEWLOCALS and not comprehension
                inner = ".<locals>." if function else "."
                stack.append((child, qualname + inner))
    return out


class Profile:
    """A pstats table indexed by (module, qualified name)."""

    def __init__(self, stats: dict, package_dir: Path):
        qual = _qualnames(package_dir)
        package_dir = package_dir.resolve()
        self.stats = stats
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.calls = dict.fromkeys(MODULES, 0)
        self.numpy_self_s = 0.0
        self.keys: dict[tuple[str, str], tuple] = {}
        for key, (_, nc, tt, _, _) in stats.items():
            filename, line, name = key
            if filename.endswith(".py") and Path(filename).resolve().parent == package_dir:
                module = Path(filename).stem
                self.keys[(module, qual.get((module, line, name), name))] = key
                if module in self.self_s:
                    self.self_s[module] += tt
                    self.calls[module] += nc
            elif "numpy" in (name if filename == "~" else filename):
                self.numpy_self_s += tt

    def calls_of(self, module: str, *qualnames: str) -> int:
        return sum(self.stats[self.keys[(module, q)]][1]
                   for q in qualnames if (module, q) in self.keys)

    def calls_matching(self, module: str, suffixes: tuple[str, ...]) -> int:
        return sum(self.stats[key][1] for (m, q), key in self.keys.items()
                   if m == module and q.endswith(suffixes))

    def calls_made_by(self, module: str, *qualnames: str) -> int:
        """Calls that the named functions make to bjorth functions."""
        callers = {self.keys[(module, q)] for q in qualnames if (module, q) in self.keys}
        return sum(calls[0] for key in self.keys.values()
                   for caller, calls in self.stats[key][4].items() if caller in callers)

    def calls_from_to(self, caller: tuple[str, str], callee: tuple[str, str]) -> int:
        if caller not in self.keys or callee not in self.keys:
            return 0
        by = self.stats[self.keys[callee]][4]
        return by.get(self.keys[caller], (0,))[0]


def _p50(spans, name: str) -> float:
    ds = spans.durations_us({name})
    return statistics.median(ds) if ds else 0.0


def layer_metrics(profile: Profile, spans, stats: dict, child_generators: int,
                  artifact_bytes: int, overhead_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit).

    Span-based figures come from the pass without the profiler; counts and
    self times come from the profiled pass of the same work.  A metric whose
    layer the workload does not reach reads 0.
    """
    p = profile
    excluded = stats.get("verify_excluded", 0)
    comparisons = stats.get("verify_comparisons", 0)
    evaluated = stats.get("sum_acute_evaluated", 0)
    acute_samples = stats.get("sum_acute_samples", 0)
    m = {
        "spaces.validation.calls": (p.calls_of("spaces", "NormedSpace.check_vector",
                                               "NormedSpace.is_zero"), "count"),
        "spaces.norm.calls": (p.calls_matching("spaces", ("._norm", "._norm2")), "count"),
        "spaces.support.calls": (p.calls_matching("spaces", ("._support", "._grad2")), "count"),
        "orthogonality.classify.calls": (p.calls_of("orthogonality", "classify_angle"), "count"),
        "orthogonality.classify.p50_us": (_p50(spans, "classify_angle"), "us"),
        "orthogonality.oracle.calls": (p.calls_of("orthogonality", "golden_section_min"), "count"),
        "orthogonality.oracle.evals": (p.calls_made_by("orthogonality", "golden_section_min"),
                                       "count"),
        "preserver.build.s": (spans.total_s("build_preserver"), "s"),
        "preserver.bisect.calls": (p.calls_of("preserver", "_bisect_decreasing",
                                              "_bisect_increasing"), "count"),
        "preserver.bisect.evals": (p.calls_made_by("preserver", "_bisect_decreasing",
                                                   "_bisect_increasing"), "count"),
        "preserver.apply.calls": (p.calls_of("preserver", "RadonPlaneMap.apply"), "count"),
        "preserver.apply.p50_us": (_p50(spans, "apply"), "us"),
        "preserver.apply_inverse.p50_us": (_p50(spans, "apply_inverse"), "us"),
        "preserver.verify.s": (spans.total_s("verify_preserver"), "s"),
        "preserver.verify.excluded_ratio": (excluded / comparisons if comparisons else 0.0,
                                            "ratio"),
        "analysis.radon.s": (spans.total_s("radon_defect"), "s"),
        "analysis.orthograph.s": (spans.total_s("sample_orthograph"), "s"),
        "analysis.orthograph.pairs": (p.calls_from_to(("analysis", "sample_orthograph"),
                                                      ("orthogonality", "is_mutually_orthogonal")),
                                      "count"),
        "analysis.orthograph.edges": (stats.get("orthograph_edges", 0), "count"),
        "analysis.sum_acute.s": (spans.total_s("sum_acute_equivalence_check"), "s"),
        "analysis.sum_acute.evaluated_ratio": (evaluated / acute_samples if acute_samples else 0.0,
                                               "ratio"),
        "analysis.sections.s": (spans.total_s("euclidean_section_search"), "s"),
        "analysis.sections.dayjames_flagged": (stats.get("sections_dayjames_flagged", 0),
                                               "count"),
        "sampling.child_rng.calls": (child_generators, "count"),
        "sampling.random_nonzero.calls": (p.calls_of("sampling", "random_nonzero"), "count"),
        "serialize.write.s": (spans.total_s("write"), "s"),
        "serialize.bytes": (artifact_bytes, "bytes"),
        "numpy.self_s": (p.numpy_self_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (p.self_s[module], "s")
        m[f"{module}.calls"] = (p.calls[module], "count")
    return m
