"""Timestamp-sorted adjacency used by the per-query local kernels.

Every VUG phase that sweeps edges in time order — polarity (Alg. 3) and
the TCV sweeps (Alg. 4) — reads ``by_time``: all edges in (τ, u, v) order,
sorted once at build.  ``slice(tb, te)`` cuts the θ-window out of it by
binary search, so a query touches only its window's edges.  The backward
sweeps read the same list through :func:`time_reversed`.

Per vertex it also keeps the neighbor lists that EEV's bidirectional DFS
(Alg. 7) and the baselines traverse: ``out_desc[u]``, out-neighbors
``(τ, v)`` by **descending** τ (forward search explores latest-first), and
``in_asc[u]``, in-neighbors ``(τ, v)`` by **ascending** τ (backward search
explores earliest-first).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.graph.schema import Edge


_TS = itemgetter(2)
_TAU = itemgetter(0)


class TemporalAdjacency:
    """Immutable adjacency view of a temporal edge set."""

    def __init__(self, edges: Iterable[Edge]):
        self.edges: List[Edge] = sorted(set(edges))
        # Stable sort on τ of the (u, v, τ)-sorted list: (τ, u, v) order.
        self.by_time: List[Edge] = sorted(self.edges, key=_TS)
        out: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        inc: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        # In (τ, u, v) order every in-list comes out sorted by (τ, u), and
        # every out-list by (τ, v); a stable reverse sort on τ alone turns
        # the latter into (τ descending, v ascending).
        for u, v, ts in self.by_time:
            out[u].append((ts, v))
            inc[v].append((ts, u))
        for lst in out.values():
            lst.sort(key=_TAU, reverse=True)
        self.out_desc: Dict[int, List[Tuple[int, int]]] = dict(out)
        self.in_asc: Dict[int, List[Tuple[int, int]]] = dict(inc)
        # Ascending out-lists, cached: enumeration and the Dijkstra baseline
        # iterate them on every vertex visit.
        self._out_asc: Dict[int, List[Tuple[int, int]]] = {
            u: list(reversed(lst)) for u, lst in self.out_desc.items()
        }
        self.vertices = out.keys() | inc.keys()

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_edges(self, u: int) -> List[Tuple[int, int]]:
        """Out-neighbors ``(τ, v)`` of ``u``, descending τ."""
        return self.out_desc.get(u, [])

    def in_edges(self, v: int) -> List[Tuple[int, int]]:
        """In-neighbors ``(τ, u)`` of ``v``, ascending τ."""
        return self.in_asc.get(v, [])

    def out_asc(self, u: int) -> List[Tuple[int, int]]:
        """Out-neighbors ``(τ, v)`` of ``u``, ascending τ (for enumeration)."""
        return self._out_asc.get(u, [])

    def max_degree(self) -> int:
        """d = max over vertices of max(in-degree, out-degree) (TABLE I)."""
        if not self.edges:
            return 0
        return max(
            max((len(l) for l in self.out_desc.values()), default=0),
            max((len(l) for l in self.in_asc.values()), default=0),
        )

    def slice(self, tb: int, te: int) -> List[Edge]:
        """Edges with τ in ``[tb, te]``, in (τ, u, v) order."""
        lo = bisect_left(self.by_time, tb, key=_TS)
        return self.by_time[lo:bisect_right(self.by_time, te, lo, key=_TS)]

    def window(self, tb: int, te: int) -> "TemporalAdjacency":
        """Adjacency of the projected graph within ``[tb, te]``."""
        return TemporalAdjacency(self.slice(tb, te))


def time_reversed(edges: List[Edge]) -> Iterator[Edge]:
    """Edges ``(v, u, −τ)`` of a τ-ascending list, in ascending key: a path
    ``u → t`` departing after τ is a path ``t → u`` here arriving before −τ."""
    return ((v, u, -ts) for u, v, ts in reversed(edges))
