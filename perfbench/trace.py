"""In-memory span recorder and object-store sampler of the traced run."""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans ``{id, name, parent, start, end, attrs}`` kept in memory and
    written once, when the run ends.  Single-threaded: spans nest by call
    order on the thread that opens them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str, root: int | None = None) -> float:
        """Total duration of the ``name`` spans under span ``root``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and (root is None or self.is_under(s, root)))

    def self_time(self, name: str, root: int | None = None) -> float:
        """Duration of the ``name`` spans under ``root`` not covered by
        their direct children."""
        ids = {s["id"] for s in self.spans if s["name"] == name
               and (root is None or self.is_under(s, root))}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["id"] in ids) - sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids)

    def is_under(self, span: dict, root: int) -> bool:
        p = span["parent"]
        while p is not None:
            if p == root:
                return True
            p = self.spans[p]["parent"]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def check_tree(spans: list[dict]) -> list[str]:
    """Problems that make a span list not a well-formed tree (empty = ok):
    ids are list positions, every span is closed, and a child's interval
    lies inside its parent's."""
    bad = []
    for i, s in enumerate(spans):
        if s["id"] != i:
            bad.append(f"span {i}: id {s['id']}")
        if s["end"] is None or s["end"] < s["start"]:
            bad.append(f"span {i} ({s['name']}): not closed")
            continue
        p = s["parent"]
        if p is None:
            continue
        if not 0 <= p < i:
            bad.append(f"span {i} ({s['name']}): parent {p} not earlier")
            continue
        par = spans[p]
        if par["end"] is None or not (par["start"] <= s["start"]
                                      and s["end"] <= par["end"]):
            bad.append(f"span {i} ({s['name']}): outside parent {p}")
    return bad


class ObjectStoreSampler(threading.Thread):
    """Peak used object-store bytes (total − available), sampled at 5 Hz
    while running — the sampler of bench_sf1.py."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self._halt = threading.Event()

    def run(self):
        import ray

        total = ray.cluster_resources().get("object_store_memory", 0)
        while not self._halt.is_set():
            avail = ray.available_resources().get("object_store_memory",
                                                  total)
            self.peak = max(self.peak, int(total - avail))
            self._halt.wait(0.2)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak
