"""Polarity time computation (paper Alg. 3).

``A(u)`` (earliest arrival) is the smallest arrival timestamp over temporal
paths ``s → u`` within ``[τb, τe]`` that do not pass through ``t``;
``D(u)`` (latest departure) is the largest departure timestamp over temporal
paths ``u → t`` within the window that do not pass through ``s``.
Conventions: ``A(s) = τb - 1``, ``D(t) = τe + 1``; unreachable vertices are
absent from the returned maps (paper: +∞ / −∞).

Local kernel: Wu et al.'s one-pass edge-stream earliest arrival (*Path
Problems in Temporal Graphs*, PVLDB 7(9), 2014) over the window's τ-ordered
edge slice, O(|window|) per query; latest departure is the same pass over
the time-reversed slice.
"""
from __future__ import annotations

from typing import Dict, Iterable

from repro.graph.adjacency import TemporalAdjacency, time_reversed
from repro.graph.schema import Edge


def _first_labels(
    stream: Iterable[Edge], s: int, start: int, avoid: int, blocked: frozenset
) -> Dict[int, int]:
    """Label ``b`` with ``key`` the first time an edge ``(a, b, key)`` of
    the ascending-key ``stream`` leaves an ``a`` with ``L[a] < key``.

    One pass is exact: the strict ``<`` means edges with equal keys cannot
    chain, so every label an edge reads is final when the edge arrives; and
    keys only grow, so the first label a vertex gets is its minimum.
    ``avoid`` and ``blocked`` vertices are never labelled.
    """
    skip = blocked | {avoid}
    L: Dict[int, int] = {s: start}
    for a, b, key in stream:
        la = L.get(a)
        if la is not None and la < key and b not in L and b not in skip:
            L[b] = key
    return L


def arrival_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Earliest arrival A(·) from ``s`` avoiding ``t`` — paper Alg. 3, forward.

    Returns ``{u: A(u)}`` for every reachable ``u`` (including ``A(s)=τb-1``);
    ``t`` never receives a label (paths must not pass through it, Alg. 3 L6).
    ``blocked`` vertices are treated as absent (EEV uses this to bound
    reachability around a partially claimed path).
    """
    return _first_labels(adj.slice(tb, te), s, tb - 1, t, blocked)


def departure_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Latest departure D(·) toward ``t`` avoiding ``s`` — Alg. 3, backward:
    the forward pass from ``t`` over the time-reversed window, labels negated
    back.  Same ``blocked`` semantics."""
    stream = time_reversed(adj.slice(tb, te))
    L = _first_labels(stream, t, -(te + 1), s, blocked)
    return {u: -key for u, key in L.items()}
