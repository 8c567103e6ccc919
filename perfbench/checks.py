"""Output checks against the sequential references.

Every answer is reduced to a compact canonical form (a flat integer
array) as soon as it is returned, outside any timed region, so equal
answers compare equal across backends, processes and repeated queries,
and keeping every answer of a run until the checks costs little memory:

* mis — the sorted vertex set, which must equal
  ``greedy_mis(graph, ranks)`` and be maximal;
* matching — the sorted normalised edges, a maximal matching;
* msf — the sorted normalised forest, a spanning forest whose weight
  equals the weight of ``kruskal_msf``;
* components — labels relabelled by first occurrence, which must induce
  the partition of ``connected_components``.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.generators import degree_weighted
from repro.graph.properties import connected_components
from repro.sequential import (greedy_mis, is_maximal_independent_set,
                              is_maximal_matching, is_spanning_forest,
                              kruskal_msf, msf_weight)


def _edges(edges) -> array:
    flat = array("l")
    for u, v in sorted((min(u, v), max(u, v)) for u, v in edges):
        flat.append(u)
        flat.append(v)
    return flat


def _pairs(flat: array) -> List[Tuple[int, int]]:
    it = iter(flat)
    return list(zip(it, it))


def _relabel(labels) -> array:
    first: Dict[int, int] = {}
    return array("l", (first.setdefault(label, len(first))
                       for label in labels))


def answer(algo: str, output: Any) -> Tuple[array, Any]:
    """-> (canonical answer, extra data the check needs)."""
    if algo == "mis":
        return (array("l", sorted(output.independent_set)),
                array("d", output.ranks))
    if algo == "matching":
        return _edges(output.matching), None
    if algo == "msf":
        return _edges(output.forest), None
    if algo == "components":
        return _relabel(output.labels), None
    raise ValueError(f"no check for algorithm {algo!r}")


class Checker:
    """Validates answers on one fixed graph version.

    Seed-independent references (the MSF weight, the component partition)
    are computed once per version and reused by every query on it.
    """

    def __init__(self, graph, weighted=None):
        self.graph = graph
        self._weighted = weighted
        self._msf_weight: Optional[float] = None
        self._components: Optional[array] = None

    @property
    def weighted(self):
        if self._weighted is None:
            self._weighted = degree_weighted(self.graph)
        return self._weighted

    def check(self, algo: str, canonical: Any, extra: Any) -> str:
        """'' when the answer is right, else the reason it is wrong."""
        graph = self.graph
        if algo == "mis":
            vertices = set(canonical)
            if vertices != greedy_mis(graph, list(extra)):
                return "mis differs from greedy_mis under the run's ranks"
            if not is_maximal_independent_set(graph, vertices):
                return "mis is not a maximal independent set"
            return ""
        if algo == "matching":
            if not is_maximal_matching(graph, _pairs(canonical)):
                return "matching is not a maximal matching"
            return ""
        if algo == "msf":
            weighted = self.weighted
            forest = _pairs(canonical)
            if not is_spanning_forest(graph, forest):
                return "msf is not a spanning forest"
            if self._msf_weight is None:
                self._msf_weight = msf_weight(weighted, kruskal_msf(weighted))
            if msf_weight(weighted, forest) != self._msf_weight:
                return "msf weight differs from kruskal_msf"
            return ""
        if algo == "components":
            if self._components is None:
                self._components = _relabel(connected_components(graph))
            if canonical != self._components:
                return "components partition differs from connected_components"
            return ""
        return f"no check for algorithm {algo!r}"
