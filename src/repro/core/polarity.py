"""Polarity time computation (paper Alg. 3).

``A(u)`` (earliest arrival) is the smallest arrival timestamp over temporal
paths ``s → u`` within ``[τb, τe]`` that do not pass through ``t``;
``D(u)`` (latest departure) is the largest departure timestamp over temporal
paths ``u → t`` within the window that do not pass through ``s``.
Conventions: ``A(s) = τb - 1``, ``D(t) = τe + 1``; unreachable vertices are
absent from the returned maps (paper: +∞ / −∞).

Local kernel: label-correcting BFS with monotone scan pointers over
timestamp-sorted neighbor lists.  ``A(u)`` only ever decreases, and the
admissible out-edges (``τ > A(u)``) form a growing suffix of the
descending-τ list, so a per-vertex pointer touches each edge once — the
paper's O(n+m) bound.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

from repro.graph.adjacency import TemporalAdjacency


def _first_le_desc(lst, val: int) -> int:
    """First index of a τ-descending list with τ ≤ val (binary search)."""
    lo, hi = 0, len(lst)
    while lo < hi:
        mid = (lo + hi) // 2
        if lst[mid][0] > val:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _first_ge_asc(lst, val: int) -> int:
    """First index of a τ-ascending list with τ ≥ val (binary search)."""
    lo, hi = 0, len(lst)
    while lo < hi:
        mid = (lo + hi) // 2
        if lst[mid][0] < val:
            lo = mid + 1
        else:
            hi = mid
    return lo


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
    On first visit the scan pointer starts past the τ > τe prefix (binary
    search) so out-of-window edges are never touched — the pointer then only
    moves forward, so each in-window edge is consumed once.

    ``blocked`` vertices are treated as absent (EEV uses this to bound
    reachability around a partially claimed path).
    """
    A: Dict[int, int] = {s: tb - 1}
    ptr: Dict[int, int] = {}
    q = deque([s])
    in_q = {s}
    inf = te + 1
    while q:
        u = q.popleft()
        in_q.discard(u)
        lst = adj.out_edges(u)  # descending τ
        i = ptr.get(u)
        if i is None:
            i = _first_le_desc(lst, te)
        au = A[u]
        n = len(lst)
        while i < n:
            ts, v = lst[i]
            if ts <= au:
                break  # remaining edges have τ ≤ A(u); resume if A(u) drops
            i += 1  # edge consumed permanently (A(u) only decreases)
            if v == t or v in blocked:
                continue
            if ts >= A.get(v, inf):
                continue
            A[v] = ts
            if ts != te and v not in in_q:
                q.append(v)
                in_q.add(v)
        ptr[u] = i
    return A


def departure_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Latest departure D(·) toward ``t`` avoiding ``s`` — Alg. 3, backward.

    Mirror of :func:`arrival_times`, including ``blocked`` semantics.
    """
    D: Dict[int, int] = {t: te + 1}
    ptr: Dict[int, int] = {}
    q = deque([t])
    in_q = {t}
    neg = tb - 1
    while q:
        u = q.popleft()
        in_q.discard(u)
        lst = adj.in_edges(u)  # ascending τ
        i = ptr.get(u)
        if i is None:
            i = _first_ge_asc(lst, tb)
        du = D[u]
        n = len(lst)
        while i < n:
            ts, v = lst[i]
            if ts >= du:
                break  # remaining edges have τ ≥ D(u); resume if D(u) grows
            i += 1
            if v == s or v in blocked:
                continue
            if ts <= D.get(v, neg):
                continue
            D[v] = ts
            if ts != tb and v not in in_q:
                q.append(v)
                in_q.add(v)
        ptr[u] = i
    return D


def polarity_times(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Both polarity maps (paper Alg. 3)."""
    return (
        arrival_times(adj, s, t, tb, te),
        departure_times(adj, s, t, tb, te),
    )
