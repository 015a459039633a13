"""Spans around calls into the kernel's layers, and the traced kernel driver.

A span records name, start, end, parent and query id.  Spans stay in memory
until the run ends; a layer's self time is its span minus the time its child
spans cover.  The traced driver rebuilds ``vug_local`` from the public layer
functions so that each call gets its own span.  A layer whose function is
gone is reported absent: the driver stops at that call and the query is
answered by ``vug_local`` instead.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Public calls the traced driver makes, as module → names.
LAYER_CALLS = {
    "repro.graph.adjacency": ["TemporalAdjacency"],
    "repro.core.polarity": ["arrival_times", "departure_times"],
    "repro.core.quick_ubg": ["quick_ubg_edges"],
    "repro.core.tcv": ["tcv_from_source", "tcv_to_target"],
    "repro.core.tight_ubg": ["tight_ubg"],
    "repro.core.eev": ["preverified_edges", "bidir_search", "confirm_path"],
}

# Which spans feed which per-layer metric.
SPAN_METRICS = {
    "polarity.arrival": "polarity.arrival_s",
    "polarity.departure": "polarity.departure_s",
    "quick_ubg.lemma1": "quick_ubg.lemma1_s",
    "quick_ubg.gq_build": "quick_ubg.gq_build_s",
    "tcv.source": "tcv.source_s",
    "tcv.target": "tcv.target_s",
    "tight_ubg.filter": "tight_ubg.filter_s",
    "eev.preverify": "eev.preverify_s",
    "eev.polarity": "eev.polarity_s",
    "eev.search": "eev.search_s",
    "eev.confirm": "eev.confirm_s",
}


def resolve_layers() -> Dict[str, Optional[Callable]]:
    """Look up every layer function; a missing one maps to ``None``."""
    fns: Dict[str, Optional[Callable]] = {}
    for module, names in LAYER_CALLS.items():
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        for name in names:
            fns[name] = getattr(mod, name, None)
    return fns


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        # [name, qid, parent index, start, end]
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, qid: Optional[int] = None):
        parent = self._open[-1] if self._open else -1
        rec = [name, qid, parent, time.perf_counter(), None]
        idx = len(self.spans)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, qid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, qid, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, qid, parent, start, end in self.spans:
                f.write(json.dumps({"name": name, "qid": qid, "parent": parent,
                                    "start": start, "end": end}) + "\n")


class LayerAbsent(Exception):
    """A layer function the traced driver calls no longer exists."""


def traced_vug(fns, adj, q, tracer: Tracer, qid: int, counts: Dict[str, float]):
    """``vug_local`` rebuilt from public layer calls, one span per call.

    Adds the query's sizes and EEV counters to ``counts`` (a
    ``defaultdict(float)``) as they become known and returns the tspG edges;
    raises :class:`LayerAbsent` at the first missing function.
    """

    def call(span, name, *args):
        f = fns[name]
        if f is None:
            raise LayerAbsent(name)
        with tracer.span(span, qid):
            return f(*args)

    s, t, tb, te = q.s, q.t, q.tb, q.te
    A = call("polarity.arrival", "arrival_times", adj, s, t, tb, te)
    D = call("polarity.departure", "departure_times", adj, s, t, tb, te)
    counts["a_size"] += len(A)
    counts["d_size"] += len(D)
    gq_edges = call("quick_ubg.lemma1", "quick_ubg_edges", adj.edges, A, D)
    counts["edges_scanned"] += len(adj.edges)
    gq = call("quick_ubg.gq_build", "TemporalAdjacency", gq_edges)
    counts["gq_edges"] += gq.m
    tcv_s = call("tcv.source", "tcv_from_source", gq, s, t)
    tcv_t = call("tcv.target", "tcv_to_target", gq, s, t)
    gt = call("tight_ubg.filter", "tight_ubg", gq, s, t, tcv_s, tcv_t)
    counts["gt_edges"] += gt.m
    with tracer.span("eev", qid):
        confirmed = call("eev.preverify", "preverified_edges", gt, s, t)
        counts["preverified"] += len(confirmed)
        arrival = call("eev.polarity", "arrival_times", gt, s, t, tb, te)
        departure = call("eev.polarity", "departure_times", gt, s, t, tb, te)
        for edge in sorted(gt.edges, key=lambda e: (e[2], e[0], e[1])):
            if edge in confirmed:
                continue
            counts["searches"] += 1
            path = call("eev.search", "bidir_search", edge, gt, s, t, tb, te, arrival, departure)
            if path is None:
                counts["absent"] += 1
                continue
            counts["found"] += 1
            call("eev.confirm", "confirm_path", path, gt, confirmed)
        edges = sorted(confirmed)
    counts["tspg_edges"] += len(edges)
    return edges


def kernel_layer_metrics(tracer: Tracer, counts: Dict[str, float], n: int) -> Dict[str, float]:
    """Per-query means of span self times and counters over ``n`` traced
    queries, plus the useful-work ratios."""
    self_s = tracer.self_times()
    out = {metric: self_s.get(span, 0.0) / n for span, metric in SPAN_METRICS.items()}
    for key, metric in (
        ("a_size", "polarity.a_size"), ("d_size", "polarity.d_size"),
        ("edges_scanned", "quick_ubg.edges_scanned"),
        ("window_edges", "quick_ubg.window_edges"),
        ("gq_edges", "quick_ubg.gq_edges"), ("gt_edges", "tight_ubg.gt_edges"),
        ("preverified", "eev.preverified"), ("searches", "eev.searches"),
        ("found", "eev.found"), ("absent", "eev.absent"),
    ):
        out[metric] = counts[key] / n
    tspg = counts["tspg_edges"]
    out["quick_ubg.useful_ratio"] = tspg / counts["gq_edges"] if counts["gq_edges"] else 0.0
    out["tight_ubg.useful_ratio"] = tspg / counts["gt_edges"] if counts["gt_edges"] else 0.0
    out["eev.hit_rate"] = counts["found"] / counts["searches"] if counts["searches"] else 0.0
    return out
