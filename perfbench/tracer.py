"""Per-layer spans, work counts and cache statistics, recorded from outside
the library.

:meth:`Tracer.install` replaces every traced ``recdom`` function by a wrapper
wherever callers look it up: in its defining module and in every loaded
``recdom`` module that bound the same object by ``from ... import``.  Calls
between library functions therefore pass through the wrappers too, without
any change to the library.  :meth:`Tracer.uninstall` puts the originals back.

A span covers one call of a wrapped function.  Its self time is its duration
minus the time spent inside wrapped calls it made; the wrapper's own
bookkeeping is charged to no span.  Work counts are computed from the
arguments and results after the call returns.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, prod
from time import perf_counter

import recdom  # noqa: F401  (loads every module named below)

# Traced functions per layer, named by the modules that define them.
TRACED = {
    "geometry": ("rank_over_field", "rref", "solve_exact", "dual_description"),
    "enumerator": (
        "reciprocity_check",
        "domain_gf",
        "simplicial_gf",
        "gf_equal",
        "invert_variables",
        "expand",
        "lattice_points",
    ),
    "topology": (
        "boundary_subcomplex",
        "barycentric",
        "is_cohen_macaulay",
        "link",
        "reduced_homology",
        "recognize_ball_sphere",
    ),
    "separation": ("separation_witness", "shelling_through_witness", "line_shelling"),
    "lifting": (
        "verify_embedding",
        "covering_arrangement",
        "induced_subdivision",
        "lift",
        "verify_lower_hull",
    ),
}

# Module-level lru_caches whose hit and miss counts are reported.
CACHES = {
    "geometry.faces_of": ("geometry", "faces_of"),
    "enumerator.face_gf": ("enumerator", "_face_gf"),
    "enumerator.face_decomposition": ("enumerator", "_face_decomposition"),
    "enumerator.pulling_triangulation": ("enumerator", "_pulling_triangulation"),
    "topology.all_faces": ("topology", "_all_faces"),
}

_MARK = "__perfbench_span__"


def _recdom_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "recdom" or name.startswith("recdom."))
    ]


def installed_wrappers() -> list[str]:
    """Names ``module.attribute`` of recdom attributes that are span wrappers."""
    found = []
    for module in _recdom_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{attr}")
    return sorted(found)


def cache_functions():
    """The traced lru_cache objects, keyed by metric prefix."""
    return {
        key: getattr(sys.modules[f"recdom.{module}"], attr)
        for key, (module, attr) in CACHES.items()
    }


def clear_caches() -> None:
    """Empty the library caches and reset their statistics."""
    for fn in cache_functions().values():
        fn.cache_clear()


def _rank_span(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs.get("field")
    if field is not None and field.characteristic:
        return "geometry.rank_over_field.fp"
    return "geometry.rank_over_field.q"


def _parallelepiped_box(generators) -> int:
    # The box the fundamental-parallelepiped scan walks for these generators.
    d = len(generators[0])
    return prod(
        sum(max(0, v[i]) for v in generators) - sum(min(0, v[i]) for v in generators) + 1
        for i in range(d)
    )


def _degree_box(cone, w, bound) -> int:
    # Bounding box of {x in cone : w.x <= bound}: the origin and scaled rays.
    lows = [0] * cone.dim
    highs = [0] * cone.dim
    for r in cone.rays:
        s = Fraction(bound, sum(a * b for a, b in zip(w, r)))
        for i, a in enumerate(r):
            lows[i] = min(lows[i], floor(s * a))
            highs[i] = max(highs[i], ceil(s * a))
    return prod(hi - lo + 1 for lo, hi in zip(lows, highs))


class Tracer:
    """Collects spans and counts while installed; one per traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patched: list = []
        self._face_counts: dict = {}
        self._counters = {
            "geometry.rank_over_field": self._count_rank,
            "enumerator.simplicial_gf": self._count_simplicial,
            "enumerator.expand": self._count_expand,
            "enumerator.lattice_points": self._count_lattice,
            "topology.reduced_homology": self._count_homology,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _recdom_modules()
        for module_name, names in TRACED.items():
            home = sys.modules[f"recdom.{module_name}"]
            for name in names:
                original = getattr(home, name)
                if getattr(original, _MARK, None) is not None:
                    raise RuntimeError(f"recdom.{module_name}.{name} is already wrapped")
                qualified = f"{module_name}.{name}"
                span = _rank_span if qualified == "geometry.rank_over_field" else qualified
                wrapper = self._wrap(original, span, self._counters.get(qualified))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._stack.clear()

    def reset_stack(self) -> None:
        """Forget open spans after an operation was interrupted."""
        self._stack.clear()

    def _wrap(self, fn, span, counter):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            key = span if isinstance(span, str) else span(args, kwargs)
            children = [0.0]
            stack.append(children)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                # Also on exceptions: line_shelling raises DegeneratePoint,
                # which its caller catches and retries.
                end = perf_counter()
                if stack and stack[-1] is children:
                    stack.pop()
                calls[key] += 1
                self_s[key] += end - start - children[0]
                if returned and counter is not None:
                    counter(key, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - entered
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        setattr(wrapper, _MARK, span)
        return wrapper

    # -- work counts ----------------------------------------------------

    def _count_rank(self, key, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        width = len(rows[0]) if len(rows) else 0
        self.counts[f"{key}.entries"] += len(rows) * width

    def _count_simplicial(self, key, args, kwargs, result):
        gens = tuple(args[0] if args else kwargs["generators"])
        self.counts[f"{key}.box_points"] += _parallelepiped_box(gens)
        self.counts[f"{key}.kept_points"] += sum(result.numerator.terms.values())

    def _count_expand(self, key, args, kwargs, result):
        self.counts[f"{key}.terms"] += len(result.coeffs)

    def _count_lattice(self, key, args, kwargs, result):
        spec = args[0]
        self.counts[f"{key}.box_points"] += _degree_box(spec.cone, result.grading, result.bound)

    def _count_homology(self, key, args, kwargs, result):
        sc = args[0]
        n = self._face_counts.get(sc)
        if n is None:
            faces = set()
            for facet in sc.facets:
                for k in range(1, len(facet) + 1):
                    faces.update(combinations(facet, k))
            n = self._face_counts[sc] = len(faces)
        self.counts[f"{key}.faces"] += n

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); absent work reads 0."""
        out: dict[str, tuple[float, str]] = {}
        spans = []
        for module_name, names in TRACED.items():
            for name in names:
                if (module_name, name) == ("geometry", "rank_over_field"):
                    spans += ["geometry.rank_over_field.q", "geometry.rank_over_field.fp"]
                else:
                    spans.append(f"{module_name}.{name}")
        for span in spans:
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_s"] = (self.self_s[span], "s")
        for key in ("geometry.rank_over_field.q", "geometry.rank_over_field.fp"):
            out[f"{key}.entries"] = (self.counts[f"{key}.entries"], "count")
        box = self.counts["enumerator.simplicial_gf.box_points"]
        kept = self.counts["enumerator.simplicial_gf.kept_points"]
        out["enumerator.simplicial_gf.box_points"] = (box, "count")
        out["enumerator.simplicial_gf.kept_points"] = (kept, "count")
        out["enumerator.simplicial_gf.keep_ratio"] = (kept / box if box else 0.0, "ratio")
        out["enumerator.expand.terms"] = (self.counts["enumerator.expand.terms"], "count")
        out["enumerator.lattice_points.box_points"] = (
            self.counts["enumerator.lattice_points.box_points"],
            "count",
        )
        out["topology.reduced_homology.faces"] = (
            self.counts["topology.reduced_homology.faces"],
            "count",
        )
        shellings = self.calls["separation.shelling_through_witness"]
        attempts = self.calls["separation.line_shelling"]
        out["separation.shelling.attempts_per_shelling"] = (
            attempts / shellings if shellings else 0.0,
            "ratio",
        )
        for key, fn in cache_functions().items():
            info = fn.cache_info()
            out[f"{key}.hits"] = (info.hits, "count")
            out[f"{key}.misses"] = (info.misses, "count")
        return out
