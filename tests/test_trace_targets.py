"""The traced benchmark (perfbench/spans.py) wraps calls by their names in
the classes and modules that define them. A refactor that moves one of those
names fails here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

from aostore.model import ObjectIdFactory
from aostore.tiers import ArenaConfig, DramTier


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
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
