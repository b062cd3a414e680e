"""Per-layer timings and counts, taken from outside the program.

The tracer replaces the public entry points of each ``l2limits`` module (and
``numpy.linalg.eigvalsh``) with timing wrappers, in every module that bound
them by name.  Times are inclusive: a call to ``measure_distance`` also counts
towards the ``ball_distribution`` and ``canonical_code`` calls it makes.
Nothing here runs unless ``--trace 1`` is given, so the untraced run pays no
cost; the traced run's extra ``run_s`` is the tracing overhead.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced callable, under its span name.
SPANS = {
    "rooted_at": ("l2limits.complexes", "rooted_at"),
    "ball": ("l2limits.complexes", "RootedComplex.ball"),
    "local_moment": ("l2limits.estimators", "local_moment"),
    "moments_of_measure": ("l2limits.estimators", "moments_of_measure"),
    "uniform_rooting": ("l2limits.measures", "uniform_rooting"),
    "ball_distribution": ("l2limits.measures", "ball_distribution"),
    "measure_distance": ("l2limits.measures", "measure_distance"),
    "canonical_code": ("l2limits.encoding", "canonical_code"),
    "boundary_matrix": ("l2limits.spectral", "boundary_matrix"),
    "laplacian_matrix": ("l2limits.spectral", "laplacian_matrix"),
    "spectral_measure": ("l2limits.spectral", "spectral_measure"),
    "boundary_rank": ("l2limits.spectral", "boundary_rank"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "read_scx": ("l2limits.formats", "read_scx"),
    "torus_tower": ("l2limits.generators", "torus_tower"),
    "linial_meshulam": ("l2limits.generators", "linial_meshulam"),
    "random_flag": ("l2limits.generators", "random_flag"),
}

GENERATORS = ("torus_tower", "linial_meshulam", "random_flag")

# Per-layer metric name -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "complexes.rooted_at_ms_p50": ("ms", "lower"),
    "complexes.ball_ms_p50": ("ms", "lower"),
    "complexes.rooted_at_calls": ("count", "lower"),
    "estimators.local_moment_ms_p50": ("ms", "lower"),
    "estimators.moments_of_measure_s": ("s", "lower"),
    "measures.uniform_rooting_s": ("s", "lower"),
    "measures.uniform_rooting_classes": ("count", "lower"),
    "measures.ball_distribution_s": ("s", "lower"),
    "measures.measure_distance_s": ("s", "lower"),
    "encoding.canonical_code_ms_p50": ("ms", "lower"),
    "encoding.canonical_code_ms_p90": ("ms", "lower"),
    "encoding.canonical_code_ms_max": ("ms", "lower"),
    "encoding.balls_canonicalized": ("count", "lower"),
    "encoding.distinct_ball_share": ("ratio", "lower"),
    "spectral.boundary_matrix_s": ("s", "lower"),
    "spectral.laplacian_matrix_s": ("s", "lower"),
    "spectral.eigensolve_s": ("s", "lower"),
    "spectral.spectral_measure_s": ("s", "lower"),
    "exact.boundary_rank_s": ("s", "lower"),
    "exact.boundary_rank_calls": ("count", "lower"),
    "formats.read_scx_s": ("s", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    "generators.generate_s": ("s", "lower"),
}


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects call durations per span, plus the results a metric needs."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.classes = 0
        self.codes = set()
        self.active = True
        self.startup_ms = 0.0

    def _wrap(self, span, fn):
        durations = self.durations[span]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)
            if span == "canonical_code":
                self.codes.add(hash(result))
            elif span == "uniform_rooting":
                self.classes += len(result)
            return result

        return traced

    def install(self):
        """Patch every binding of each traced callable in loaded modules."""
        import numpy.linalg  # noqa: F401  (the eigensolver span lives there)
        import l2limits  # noqa: F401  (loads every submodule)

        for span, (module_name, attr) in SPANS.items():
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(span, original)
            targets = [(owner, name)]
            if owner is sys.modules[module_name]:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "l2limits" or mod is owner:
                        continue
                    for key, value in vars(mod).items():
                        if value is original:
                            targets.append((mod, key))
            for target, key in targets:
                setattr(target, key, wrapper)

    def dump(self) -> dict:
        """Raw samples, for merging the trace of a child process."""
        return {"durations": dict(self.durations), "classes": self.classes,
                "codes": sorted(self.codes)}

    def merge(self, raw: dict):
        for span, values in raw["durations"].items():
            self.durations[span].extend(values)
        self.classes += raw["classes"]
        self.codes.update(raw["codes"])

    def metrics(self) -> dict:
        """Every per-layer metric; 0 where the run never entered the layer
        (or, for a p90, made fewer than 100 calls into it)."""
        d = self.durations

        def total(span):
            return sum(d.get(span, ()))

        def ms(span, q):
            values = d.get(span, ())
            if q == "max":
                return 1e3 * max(values, default=0.0)
            if q == 50 and values:
                return 1e3 * statistics.median(values)
            if q == 90 and len(values) >= 100:
                return 1e3 * statistics.quantiles(values, n=10)[-1]
            return 0.0

        calls = len(d.get("canonical_code", ()))
        values = {
            "complexes.rooted_at_ms_p50": ms("rooted_at", 50),
            "complexes.ball_ms_p50": ms("ball", 50),
            "complexes.rooted_at_calls": len(d.get("rooted_at", ())),
            "estimators.local_moment_ms_p50": ms("local_moment", 50),
            "estimators.moments_of_measure_s": total("moments_of_measure"),
            "measures.uniform_rooting_s": total("uniform_rooting"),
            "measures.uniform_rooting_classes": self.classes,
            "measures.ball_distribution_s": total("ball_distribution"),
            "measures.measure_distance_s": total("measure_distance"),
            "encoding.canonical_code_ms_p50": ms("canonical_code", 50),
            "encoding.canonical_code_ms_p90": ms("canonical_code", 90),
            "encoding.canonical_code_ms_max": ms("canonical_code", "max"),
            "encoding.balls_canonicalized": calls,
            "encoding.distinct_ball_share": len(self.codes) / calls if calls else 0.0,
            "spectral.boundary_matrix_s": total("boundary_matrix"),
            "spectral.laplacian_matrix_s": total("laplacian_matrix"),
            "spectral.eigensolve_s": total("eigvalsh"),
            "spectral.spectral_measure_s": total("spectral_measure"),
            "exact.boundary_rank_s": total("boundary_rank"),
            "exact.boundary_rank_calls": len(d.get("boundary_rank", ())),
            "formats.read_scx_s": total("read_scx"),
            "cli.startup_ms": self.startup_ms,
            "generators.generate_s": sum(total(g) for g in GENERATORS),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in LAYER_METRICS.items()}
