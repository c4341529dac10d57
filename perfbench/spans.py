"""Spans around the public functions of each spectratile layer.

The tracer wraps each function listed in LAYERS at every module that binds
it, because the package's modules import one another by name (for example
``spectral.is_vanishing_sum`` or ``certio.verify_spectrum``).  Each call
becomes one span: name, start, end, parent span and instance id.  Functions
in HOT are called hundreds of thousands of times per instance, so their
calls are folded into one aggregate node per parent instead; the parent's
self time still subtracts them.

A layer's self time is the duration of its spans minus the time their child
spans cover.  The wrappers' own bookkeeping lands in the caller's self time,
which is why end-to-end numbers come from untraced rounds.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = {
    "cyclotomic": ("is_vanishing_sum", "cyclotomic_polynomial"),
    "modlinalg": ("det_and_adjugate", "matmul_mod", "rank_mod_p", "rank_factorize_mod_p"),
    "spectral": (
        "verify_spectrum",
        "compose_spectral",
        "cube_spectrum",
        "is_log_hadamard",
        "find_spectrum",
    ),
    "tiling": (
        "decide_m_tile",
        "lift_tile",
        "independent_tile",
        "verify_tiling",
        "extension_obstructions",
    ),
    "certio": ("serialize", "parse", "verify_envelope"),
    "counterexample": ("run_counterexample",),
    "guard": ("check_guard",),
}

HOT = frozenset({"is_vanishing_sum", "cyclotomic_polynomial", "matmul_mod", "rank_mod_p", "check_guard"})

BENCH_LAYER = "bench"


class Node:
    """A span (one call) or, for HOT functions, an aggregate of calls."""

    __slots__ = ("id", "layer", "name", "parent", "instance", "start", "dur", "calls", "child_s", "kids")

    def __init__(self, id_, layer, name, parent, instance, start):
        self.id = id_
        self.layer = layer
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = start  # None for an aggregate
        self.dur = 0.0
        self.calls = 0
        self.child_s = 0.0
        self.kids = None  # aggregate children by name

    def to_json(self) -> dict:
        doc = {
            "id": self.id,
            "layer": self.layer,
            "name": self.name,
            "parent": self.parent.id if self.parent else None,
            "instance": self.instance,
            "calls": self.calls,
            "self_s": self.dur - self.child_s,
        }
        if self.start is None:
            doc["total_s"] = self.dur
        else:
            doc["start"] = self.start
            doc["end"] = self.start + self.dur
        return doc


class Tracer:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.stack: list[Node] = []
        self.instance: str | None = None
        self.on = True
        self.calls: Counter = Counter()
        self.inclusive_s: Counter = Counter()  # outermost calls only
        self.counts: Counter = Counter()  # exact counts seen at the boundaries
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._cold: set = set()
        self._root_kids: dict[str, Node] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str, name: str, hot: bool) -> Node:
        parent = self.stack[-1] if self.stack else None
        if hot:
            kids = parent.kids if parent else self._root_kids
            if kids is None:
                kids = parent.kids = {}
            node = kids.get(name)
            if node is None:
                node = Node(len(self.nodes), layer, name, parent, self.instance, None)
                kids[name] = node
                self.nodes.append(node)
        else:
            node = Node(len(self.nodes), layer, name, parent, self.instance, time.perf_counter())
            self.nodes.append(node)
        self.stack.append(node)
        self._depth[name] += 1
        return node

    def _close(self, node: Node, dur: float) -> None:
        self.stack.pop()
        node.dur += dur
        node.calls += 1
        if node.parent:
            node.parent.child_s += dur
        self.calls[node.name] += 1
        self._depth[node.name] -= 1
        if not self._depth[node.name]:
            self.inclusive_s[node.name] += dur

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span around one step of one instance."""
        node = self._open(BENCH_LAYER, name, False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(node, time.perf_counter() - start)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        observe = _OBSERVERS.get(name)
        hot = name in HOT
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            node = tracer._open(layer, name, hot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(node, time.perf_counter() - start)
                if name == "check_guard" and type(exc).__name__ == "GuardExceeded":
                    tracer.counts["guard_refusals"] += 1
                raise
            dur = time.perf_counter() - start
            tracer._close(node, dur)
            if observe:
                observe(tracer, sig, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str) -> dict[str, int]:
        """Wrap every binding of every listed function; returns sites per name."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == package or mod_name.startswith(package + ".")
        ]
        sites: dict[str, int] = {}
        for layer, names in LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                sites[name] = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
                            sites[name] += 1
        return sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_s(self, key: str, by: str = "name") -> float:
        return sum(n.dur - n.child_s for n in self.nodes if getattr(n, by) == key)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for node in self.nodes:
                fh.write(json.dumps(node.to_json(), sort_keys=True) + "\n")


# -- observers: exact counts taken from arguments and results ----------------


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


def _obs_vanishing(tr, sig, args, kwargs, result, dur):
    if result is True:
        tr.counts["vanishing_true"] += 1


def _obs_cyclotomic(tr, sig, args, kwargs, result, dur):
    m = args[0] if args else kwargs["m"]
    if m not in tr._cold:  # first call per index: the cold build of Phi_m
        tr._cold.add(m)
        tr.counts["cyclotomic_cold_s"] += dur


def _obs_verify_spectrum(tr, sig, args, kwargs, result, dur):
    k = len(_arg(sig, args, kwargs, "cert").set)
    tr.counts["row_pairs"] += k * (k - 1) // 2


def _obs_find_spectrum(tr, sig, args, kwargs, result, dur):
    if result is not None:
        tr.counts["spectra_found"] += 1


def _obs_decide(tr, sig, args, kwargs, result, dur):
    reason = getattr(result, "reason", None)
    verdict = VERDICT_NAMES[type(reason).__name__ if reason is not None else "TilingCertificate"]
    tr.counts[f"verdict.{verdict}"] += 1
    if verdict == "exhausted":
        tr.counts["search_nodes"] += reason.nodes
        tr.counts["search_s"] += dur


def _obs_lift(tr, sig, args, kwargs, result, dur):
    bound = sig.bind(*args, **kwargs).arguments
    tr.counts["lift_cells"] += bound["base"].group.modulus ** bound["point_set"].dimension


def _obs_verify_tiling(tr, sig, args, kwargs, result, dur):
    cert = _arg(sig, args, kwargs, "cert")
    tr.counts["verify_cells"] += len(cert.set) * len(cert.complement)


def _obs_serialize(tr, sig, args, kwargs, result, dur):
    tr.counts["bytes"] += len(result)


VERDICT_NAMES = {
    "TilingCertificate": "tiling",
    "DivisibilityObstruction": "divisibility",
    "DuplicateResidues": "duplicate",
    "ExhaustedSearch": "exhausted",
}

_OBSERVERS = {
    "is_vanishing_sum": _obs_vanishing,
    "cyclotomic_polynomial": _obs_cyclotomic,
    "verify_spectrum": _obs_verify_spectrum,
    "find_spectrum": _obs_find_spectrum,
    "decide_m_tile": _obs_decide,
    "lift_tile": _obs_lift,
    "verify_tiling": _obs_verify_tiling,
    "serialize": _obs_serialize,
}


PIPELINE_STEPS = (
    "phase-matrix-log-hadamard",
    "rank-mod-3",
    "published-factorization",
    "fresh-factorization",
    "base-set-spectral",
    "base-set-not-a-tile-divisibility",
    "base-set-not-a-tile-exhaustive",
    "composed-set-spectral",
    "extension-obstructions",
)


def layer_metrics(tr: Tracer, step_seconds: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    calls, incl, counts = tr.calls, tr.inclusive_s, tr.counts

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "cyclotomic.is_vanishing_sum.calls": (calls["is_vanishing_sum"], "count"),
        "cyclotomic.is_vanishing_sum.self_s": (tr.self_s("is_vanishing_sum"), "s"),
        "cyclotomic.vanishing_share": (
            share(counts["vanishing_true"], calls["is_vanishing_sum"]),
            "ratio",
        ),
        "cyclotomic.cyclotomic_polynomial.s": (counts["cyclotomic_cold_s"], "s"),
        "spectral.verify_spectrum.calls": (calls["verify_spectrum"], "count"),
        "spectral.verify_spectrum.s": (incl["verify_spectrum"], "s"),
        "spectral.row_pairs": (counts["row_pairs"], "count"),
        "spectral.compose_spectral.s": (incl["compose_spectral"], "s"),
        "spectral.cube_spectrum.s": (incl["cube_spectrum"], "s"),
        "spectral.is_log_hadamard.s": (incl["is_log_hadamard"], "s"),
        "spectral.find_spectrum.calls": (calls["find_spectrum"], "count"),
        "spectral.find_spectrum.s": (incl["find_spectrum"], "s"),
        "spectral.find_spectrum.found_share": (
            share(counts["spectra_found"], calls["find_spectrum"]),
            "ratio",
        ),
        "tiling.decide_m_tile.calls": (calls["decide_m_tile"], "count"),
        "tiling.decide_m_tile.s": (incl["decide_m_tile"], "s"),
        "tiling.search_nodes": (counts["search_nodes"], "count"),
        "tiling.nodes_per_s": (share(counts["search_nodes"], counts["search_s"]), "1/s"),
    }
    for verdict in VERDICT_NAMES.values():
        out[f"tiling.verdicts.{verdict}"] = (counts[f"verdict.{verdict}"], "count")
    out.update(
        {
            "tiling.lift_tile.calls": (calls["lift_tile"], "count"),
            "tiling.lift_tile.s": (incl["lift_tile"], "s"),
            "tiling.lift_tile.cells": (counts["lift_cells"], "count"),
            "tiling.independent_tile.s": (incl["independent_tile"], "s"),
            "tiling.verify_tiling.calls": (calls["verify_tiling"], "count"),
            "tiling.verify_tiling.s": (incl["verify_tiling"], "s"),
            "tiling.verify_tiling.cells": (counts["verify_cells"], "count"),
            "tiling.extension_obstructions.s": (incl["extension_obstructions"], "s"),
            "modlinalg.det_and_adjugate.calls": (calls["det_and_adjugate"], "count"),
            "modlinalg.det_and_adjugate.s": (incl["det_and_adjugate"], "s"),
            "modlinalg.matmul_mod.calls": (calls["matmul_mod"], "count"),
            "modlinalg.matmul_mod.s": (incl["matmul_mod"], "s"),
            "modlinalg.rank_mod_p.s": (incl["rank_mod_p"], "s"),
            "modlinalg.rank_factorize_mod_p.s": (incl["rank_factorize_mod_p"], "s"),
            "certio.serialize.calls": (calls["serialize"], "count"),
            "certio.serialize.s": (incl["serialize"], "s"),
            "certio.bytes": (counts["bytes"], "bytes"),
            "certio.parse.s": (incl["parse"], "s"),
            "certio.verify_envelope.s": (incl["verify_envelope"], "s"),
            "certio.decode_s": (incl["parse"] - incl["verify_envelope"], "s"),
        }
    )
    for step in PIPELINE_STEPS:
        out[f"counterexample.step.{step}.s"] = (step_seconds[step], "s")
    out["guard.check_guard.calls"] = (calls["check_guard"], "count")
    out["guard.refusals"] = (counts["guard_refusals"], "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_s(layer, by="layer"), "s")
    return out


# Counts that must repeat exactly between two runs of one seed.
EXACT_COUNT_METRICS = (
    "cyclotomic.is_vanishing_sum.calls",
    "spectral.verify_spectrum.calls",
    "spectral.row_pairs",
    "spectral.find_spectrum.calls",
    "tiling.decide_m_tile.calls",
    "tiling.search_nodes",
    "tiling.verdicts.tiling",
    "tiling.verdicts.divisibility",
    "tiling.verdicts.duplicate",
    "tiling.verdicts.exhausted",
    "tiling.lift_tile.calls",
    "tiling.lift_tile.cells",
    "tiling.verify_tiling.calls",
    "tiling.verify_tiling.cells",
    "modlinalg.det_and_adjugate.calls",
    "modlinalg.matmul_mod.calls",
    "certio.serialize.calls",
    "certio.bytes",
    "guard.check_guard.calls",
    "guard.refusals",
)
