"""Quick upper-bound graph generation (paper Alg. 2).

Keep edge ``e(u, v, τ)`` iff ``A(u) < τ < D(v)`` (Lemma 1): the edge lies on
at least one *temporal* (not necessarily simple) path from ``s`` to ``t``
within ``[τb, τe]``.  With the conventions ``A(s)=τb-1`` and ``D(t)=τe+1``
this uniformly covers all four cases of Observation 1.  Vertices missing
from A/D are unreachable (±∞ in the paper) and their edges drop out.
"""
from __future__ import annotations

from typing import Dict, Iterable, List

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge
from repro.core.polarity import arrival_times, departure_times


def quick_ubg_edges(
    edges: Iterable[Edge], A: Dict[int, int], D: Dict[int, int]
) -> List[Edge]:
    """Filter an edge list by Lemma 1 given precomputed polarity maps."""
    out = []
    for u, v, ts in edges:
        au = A.get(u)
        dv = D.get(v)
        if au is not None and dv is not None and au < ts < dv:
            out.append((u, v, ts))
    return out


def quick_ubg(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> TemporalAdjacency:
    """QuickUBG for one query: polarity times (Alg. 3) + Lemma-1 filter."""
    A = arrival_times(adj, s, t, tb, te)
    D = departure_times(adj, s, t, tb, te)
    return TemporalAdjacency(quick_ubg_edges(adj.slice(tb, te), A, D))
