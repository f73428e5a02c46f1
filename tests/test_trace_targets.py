"""The traced benchmark (perfbench/spans.py) wraps calls by their names in
the classes and modules that define them. A refactor that moves one of those
names fails here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

from aostore.engine import ByRef, Engine, ResultPlacement
from aostore.kernels import MATRIX_CLASS, build_catalog, kernel_classes, kernel_methods
from aostore.model import ObjectIdFactory, Submatrix
from aostore.tiers import ArenaConfig, DramTier, TierKind

from .conftest import make_tiers, peak_traced_bytes, persist


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def test_tracer_installs_and_uninstalls(monkeypatch):
    spans = _spans(monkeypatch)
    originals = [vars(owner)[attr] for owner, attr, _ in spans._TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tier = DramTier(ArenaConfig(capacity_bytes=1 << 12))
        tier.store(ObjectIdFactory(seed=1).new_object_id(), bytes(8))
        tier.close()
    finally:
        tracer.uninstall()
    assert [span[spans.NAME] for span in tracer.spans] == ["tiers.store"]
    assert [vars(owner)[attr] for owner, attr, _ in spans._TARGETS] == originals


def test_traced_catalog_computes_stored_results_in_place(monkeypatch, arena_dir):
    """The traced catalog's wrappers keep a routine's ``out=``, so a traced
    run stores a target-shaped result without computing it apart first."""
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    engine = Engine(make_tiers(arena_dir), tracer.catalog(build_catalog()), ObjectIdFactory(3))
    for c in kernel_classes():
        engine.register_class(c)
    for m in kernel_methods():
        engine.register_method(m)
    k = 512  # a 2 MiB block
    a, b = (
        persist(engine, MATRIX_CLASS, Submatrix(np.full((k, k), v)), TierKind.NVM_DIRECT)
        for v in (1.0, 2.0)
    )
    placement = ResultPlacement.store_in(TierKind.NVM_DIRECT)
    assert peak_traced_bytes(lambda: engine.invoke(a, "add", [ByRef(b)], placement)) < 512 * 1024
    assert "kernels.mat.add" in [span[spans.NAME] for span in tracer.spans]
    engine.close()
