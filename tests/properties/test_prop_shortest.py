"""Differential test of shortestPath matching.

``PatternMatcher._match_shortest`` reads every start/end pair's shortest
paths off one BFS tree per root.  The oracle below is the per-pair
search it replaced: for every (start, end) pair, one walk-level BFS
(:meth:`PatternMatcher._bfs_shortest`).  On random small multigraphs —
self-loops, parallel edges, all three directions, type disjunctions,
lower bounds 0-3, bounded and unbounded upper bounds, literal and
endpoint-dependent relationship property maps, a preceding path that
makes relationship uniqueness bite, and both tree-root sides — both
must yield the same bindings, footprints and used-relationship sets in
the same order, on both graph backends and with vectorized pruning.
"""

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.matcher import PatternMatcher, footprint_of
from repro.cypher.parser import CypherParser
from repro.cypher.vectorized import pruner_for
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import Node, Path, PropertyGraph, Relationship

TYPES = ["X", "Y", "Z"]


class PerPairMatcher(PatternMatcher):
    """The per-pair shortestPath loop: one walk BFS per (start, end)."""

    def _match_shortest(self, path, bindings, used):
        rel_pattern = path.relationships[0]
        low, high = (
            rel_pattern.var_length
            if rel_pattern.var_length is not None else (1, 1)
        )
        low = 1 if low is None else low
        want_all = path.shortest == "allShortestPaths"
        for start in self._node_candidates(path.nodes[0], bindings):
            start_bindings = self._bind_node(path.nodes[0], start, bindings)
            if start_bindings is None:
                continue
            for end in self._node_candidates(path.nodes[1], start_bindings):
                end_bindings = self._bind_node(
                    path.nodes[1], end, start_bindings
                )
                if end_bindings is None:
                    continue
                shortest = self._bfs_shortest(
                    start, end, rel_pattern, end_bindings, used, low, high
                )
                emitted = shortest if want_all else shortest[:1]
                for path_value in emitted:
                    final = end_bindings
                    new_used = used | {
                        rel.id for rel in path_value.relationships
                    }
                    if rel_pattern.variable is not None:
                        final = dict(final)
                        final[rel_pattern.variable] = list(
                            path_value.relationships
                        )
                    if path.variable is not None:
                        final = dict(final)
                        final[path.variable] = path_value
                    yield final, new_used, footprint_of(
                        iter(path_value.nodes),
                        iter(path_value.relationships),
                    )


def canonical(value: Any) -> Any:
    """An order-preserving, id-level rendering of one bound value."""
    if isinstance(value, Node):
        return ("n", value.id, sorted(value.labels),
                sorted(value.properties.items()))
    if isinstance(value, Relationship):
        return ("r", value.id, value.type, value.src, value.trg)
    if isinstance(value, Path):
        return ("p", [canonical(node) for node in value.nodes],
                [canonical(rel) for rel in value.relationships])
    if isinstance(value, list):
        return [canonical(item) for item in value]
    return value


def run(matcher: PatternMatcher, pattern) -> List[Tuple]:
    out = []
    for bindings, used, footprint in matcher._match_paths(
        list(pattern.paths), {}, frozenset(), frozenset()
    ):
        out.append((
            sorted((name, canonical(value))
                   for name, value in bindings.items()),
            sorted(used),
            sorted(footprint),
        ))
    return out


@st.composite
def multigraph(draw):
    node_count = draw(st.integers(min_value=1, max_value=7))
    nodes = [
        Node(
            id=node_id,
            labels=draw(st.sampled_from([("A",), ("B",), ("A", "B")])),
            properties={
                "id": node_id,
                "k": draw(st.integers(min_value=0, max_value=1)),
            },
        )
        for node_id in range(node_count)
    ]
    rel_count = draw(st.integers(min_value=0, max_value=14))
    ends = st.integers(min_value=0, max_value=node_count - 1)
    rels = [
        Relationship(
            id=100 + index,
            type=draw(st.sampled_from(TYPES)),
            src=draw(ends),
            trg=draw(ends),
            properties={"w": draw(st.integers(min_value=0, max_value=1))},
        )
        for index in range(rel_count)
    ]
    return nodes, rels


def _bounds(low: Optional[int], high: Optional[int]) -> str:
    return "*" + ("" if low is None else str(low)) + ".." + (
        "" if high is None else str(high)
    )


@st.composite
def shortest_query(draw):
    function = draw(st.sampled_from(["shortestPath", "allShortestPaths"]))
    low = draw(st.sampled_from([None, 0, 1, 2, 3]))
    high = draw(st.sampled_from([None, 1, 2, 3, 5]))
    types = draw(st.sampled_from(["", ":X", ":X|Y", ":Y|Z"]))
    props = draw(st.sampled_from(["", " {w: 1}", " {w: a.k}"]))
    rel = f"[r{types}{_bounds(low, high)}{props}]"
    left, right = draw(st.sampled_from([
        ("-", "->"), ("<-", "-"), ("-", "-"),
    ]))
    # Both root sides: many starts/one end, one start/many ends, and
    # endpoint maps the ends cannot resolve once for every start.
    start, end = draw(st.sampled_from([
        ("(a)", "(b {id: 0})"),
        ("(a {id: 0})", "(b)"),
        ("(a)", "(b)"),
        ("(a:A)", "(b:B {k: 1})"),
        ("(a {k: 0})", "(b:A)"),
        ("(a:B)", "(b {k: a.k})"),
        ("(a)", "(a)"),
        ("(a:A)", "()"),
    ]))
    body = f"p = {function}({start}{left}{rel}{right}{end})"
    if draw(st.booleans()):
        # A preceding path binds a relationship first: `used` is
        # non-empty when the shortest path is matched.
        prefix = draw(st.sampled_from(["(x)-[q]->(y)", "(x)-[q:X]-(a)"]))
        body = f"{prefix}, {body}"
    return body


@given(graph=multigraph(), text=shortest_query(),
       backend=st.sampled_from(["reference", "columnar"]),
       vectorized=st.booleans())
@settings(max_examples=400, deadline=None)
def test_tree_matches_per_pair_search(graph, text, backend, vectorized):
    nodes, rels = graph
    built = (PropertyGraph if backend == "reference" else ColumnarGraph).of(
        nodes, rels
    )
    pattern = CypherParser(text).parse_pattern()
    pruner = pruner_for(built) if vectorized else None
    tree = PatternMatcher(built, ExpressionEvaluator(built), pruner=pruner)
    fallbacks = []
    per_pair_search = tree._bfs_shortest

    def spy(start, end, rel_pattern, scope, used, low, high):
        fallbacks.append((start.id, end.id, low))
        return per_pair_search(start, end, rel_pattern, scope, used, low, high)

    tree._bfs_shortest = spy
    oracle = PerPairMatcher(built, ExpressionEvaluator(built), pruner=pruner)
    assert run(tree, pattern) == run(oracle, pattern)
    # The per-pair search only serves distances below the lower bound:
    # start == end, or a lower bound of at least two.
    for start_id, end_id, low in fallbacks:
        assert start_id == end_id or low >= 2
