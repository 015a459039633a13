"""Time-stream common vertices (paper Def. 5, Alg. 4).

``TCV_τ(s,u)`` is the set of vertices (except ``s``) shared by *all*
temporal simple paths ``s → u`` arriving by τ that avoid ``t``;
``TCV_τ(u,t)`` mirrors it for paths ``u → t`` departing at/after τ that
avoid ``s``.  By Lemma 6 they can be computed over temporal *walks*, which
admits the recursive sweep of Alg. 4:

    TCV_τ(s,u) = ∩ over in-edges (v,τ') of u with τ' ≤ τ of
                 (TCV_{τ'-1}(s,v) ∪ {u}),     TCV_.(s,s) = ∅.

Entries are stored only at the timestamps in ``T_in(u, Gq)`` (resp.
``T_out(u, Gq)``); Lemma 5 makes other timestamps a floor/ceiling lookup.
One sweep reads ``Gq``'s τ-ordered edges ascending (source side) or
time-reversed as ``(v, u, −τ)`` (target side: a τ-ceiling is a −τ-floor),
so every looked-up entry is already final, and applies the Lemma-7
pruning: once an entry collapses to ``{u}`` the vertex is *completed* — all
later entries would equal ``{u}``, and the floor lookup finding the stored
``{u}`` entry keeps lookups transparent to the pruning.

Entry tables map ``u -> [(τ, frozenset), ...]`` with τ ascending for the
source side and descending for the target side (the order the sweep appends
in).  Lists are at most θ long, so lookups scan linearly.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.graph.adjacency import TemporalAdjacency, time_reversed
from repro.graph.schema import Edge

TcvEntries = Dict[int, List[Tuple[int, FrozenSet[int]]]]

_EMPTY: FrozenSet[int] = frozenset()


def _floor(lst, key: int, sign: int) -> Optional[FrozenSet[int]]:
    """Lemma 5: the set of the last entry of ``lst`` (stored in ascending
    ``sign·τ``) with ``sign·τ ≤ key``; ``None`` if there is none."""
    for ts, vset in reversed(lst):
        if sign * ts <= key:
            return vset
    return None


def lookup_source(
    entries: TcvEntries, s: int, u: int, tau: int
) -> Optional[FrozenSet[int]]:
    """``TCV_τ(s,u)`` via Lemma 5: the entry with the largest stored τ' ≤ τ.

    ``None`` means no temporal path ``s → u`` arrives by τ (the intersection
    over an empty path set — "no constraint" does not arise for Gq edges).
    """
    return _EMPTY if u == s else _floor(entries.get(u, []), tau, 1)


def lookup_target(
    entries: TcvEntries, t: int, u: int, tau: int
) -> Optional[FrozenSet[int]]:
    """``TCV_τ(u,t)``: the entry with the smallest stored τ' ≥ τ."""
    return _EMPTY if u == t else _floor(entries.get(u, []), -tau, -1)


def _sweep(stream: Iterable[Edge], s: int, t: int) -> TcvEntries:
    """Alg. 4 over edges ``(v, u, key)`` in ascending key: entries of
    ``TCV_.(s, ·)`` avoiding ``t``, keyed by each vertex's in-edge keys."""
    entries: TcvEntries = {}
    completed = set()
    for v, u, key in stream:
        if u == t or u == s or u in completed:
            continue
        base = lookup_source(entries, s, v, key - 1)
        if base is None:
            # Every Gq edge's source has an in-entry at A(v) ≤ τ-1 (Lemma 4);
            # reaching here means the input was not a genuine QuickUBG.
            raise AssertionError(f"no TCV entry for {v}, next to {u} in Gq")
        cand = base | {u}
        lst = entries.setdefault(u, [])
        if lst and lst[-1][0] == key:
            lst[-1] = (key, lst[-1][1] & cand)
        else:
            prev = lst[-1][1] if lst else None
            lst.append((key, cand if prev is None else prev & cand))
        if lst[-1][1] == frozenset((u,)):
            completed.add(u)  # Lemma 7
    return entries


def tcv_from_source(gq: TemporalAdjacency, s: int, t: int) -> TcvEntries:
    """Alg. 4 forward sweep: entries of ``TCV_.(s, ·)`` keyed by T_in(·, Gq)."""
    return _sweep(gq.by_time, s, t)


def tcv_to_target(gq: TemporalAdjacency, s: int, t: int) -> TcvEntries:
    """Alg. 4 backward sweep: entries of ``TCV_.(·, t)`` keyed by T_out(·, Gq),
    i.e. the sweep from ``t`` over the time-reversed Gq, keys mapped back."""
    rev = _sweep(time_reversed(gq.by_time), t, s)
    return {u: [(-key, vset) for key, vset in lst] for u, lst in rev.items()}
