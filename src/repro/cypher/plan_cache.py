"""Compile-once plan caching keyed by (query text, statistics band).

A physical plan bakes in join order, orientation, and seek choices made
from cheap cardinality statistics.  Those choices stay good while the
statistics stay in the same *band* — we quantize every count to its bit
length (0, 1, 2, 3–4, 5–8, …), so a cached plan survives ordinary
window-to-window churn and is recompiled only when a referenced count
crosses a power-of-two boundary (the classic log-scale invalidation
band: cost ratios inside one band are below 2x, within the noise of the
heuristic cost model anyway).

The band signature covers exactly what compilation reads: per MATCH
window, the graph order/size bands plus the bands of every label and
relationship type the query's patterns mention.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.cypher import ast
from repro.cypher.physical import PhysicalPlan, compile_query

__all__ = ["PlanCache", "stats_band", "band_signature"]


def stats_band(count: int) -> int:
    """Log-scale quantization: counts in [2^(b-1), 2^b) share band ``b``."""
    return int(count).bit_length()


def _pattern_names(pattern: ast.Pattern):
    """(labels, relationship types) a pattern's cost estimate reads."""
    labels = set()
    types = set()
    for path in pattern.paths:
        for node in path.nodes:
            labels.update(node.labels)
        for rel in path.relationships:
            types.update(rel.types)
    return labels, types


def band_signature(
    query,
    stats_for: Callable[[str, int], Any],
    quantize: Callable[[int], int] = stats_band,
) -> tuple:
    """The invalidation key: per-window quantized statistics.

    ``quantize`` defaults to :func:`stats_band`; passing ``int`` (the
    identity on counts) turns the cache into an exact-statistics cache —
    useful in tests that want plan recompilation on any drift.
    """
    from repro.seraph.ast import SeraphMatch

    entries = []
    for clause in query.body:
        if not isinstance(clause, SeraphMatch):
            continue
        window_key = (clause.stream_name, clause.within)
        stats = stats_for(*window_key)
        labels, types = _pattern_names(clause.match.pattern)
        entries.append(
            (
                window_key,
                quantize(stats.order),
                quantize(stats.size),
                tuple(
                    (label, quantize(stats.label_count(label)))
                    for label in sorted(labels)
                ),
                tuple(
                    (rel_type, quantize(stats.rel_type_count(rel_type)))
                    for rel_type in sorted(types)
                ),
            )
        )
    return tuple(entries)


class PlanCache:
    """Per-registry cache of compiled plans with hit/invalidation stats."""

    def __init__(self, quantize: Callable[[int], int] = stats_band):
        self._quantize = quantize
        self._plans: Dict[str, PhysicalPlan] = {}
        # Rendered query text per query object, keyed by id() with the
        # query kept alive in the value so a recycled id can never alias.
        self._keys: Dict[int, Tuple[Any, str]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def plan_for(
        self, query, stats_for: Callable[[str, int], Any]
    ) -> PhysicalPlan:
        """The cached plan for ``query``, recompiling on band drift.

        Raises :class:`~repro.errors.PhysicalPlanError` when the query
        cannot be lowered (never cached; callers remember the failure).
        """
        text = self._key(query)
        band = band_signature(query, stats_for, self._quantize)
        cached = self._plans.get(text)
        if cached is not None and cached.band == band:
            self.hits += 1
            return cached
        if cached is not None:
            self.invalidations += 1
        self.misses += 1
        plan = compile_query(query, stats_for, band=band)
        self._plans[text] = plan
        return plan

    def evict(self, query) -> None:
        """Drop the plan cached for ``query`` (on deregistration)."""
        self._plans.pop(self._key(query), None)
        self._keys.pop(id(query), None)

    def _key(self, query) -> str:
        """The cache key — the query's rendered text, rendered once per
        query object rather than on every lookup."""
        entry = self._keys.get(id(query))
        if entry is None or entry[0] is not query:
            entry = (query, query.render())
            self._keys[id(query)] = entry
        return entry[1]

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
