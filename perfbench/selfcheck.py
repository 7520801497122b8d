"""Self-check of the benchmark's own code (a few minutes at 1 CPU).

    python3 perfbench/selfcheck.py

Runs every workload at a tiny scale, untraced and traced, and asserts:

* ``BENCHMARK.json`` names exactly the workloads and metrics defined in
  ``perfbench/workloads.py``, with the same units;
* the ``entry_exchange`` tables, at benchmark scale, have the shape of the
  sf0.1 test tables (``perfbench.shape.SF01``);
* every named metric is emitted, and every output matches its oracle;
* a corrupted output is counted as a failure (analyze and entry outputs);
* a step that stalls is failed by the step timeout and the run continues;
* the traced run's span tree is well-formed and the known-stall probe is
  recorded.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run as R  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.session import MIN_OPS  # noqa: E402
from perfbench.trace import check_tree  # noqa: E402

SCALE = 0.05
SEED = 0


def tiny(workload: str, trace: bool = False, **kw) -> tuple[R.Run, dict]:
    run = R.Run(workload, SEED, 1.0, trace, sessions=1, scale=SCALE, **kw)
    gen = run.execute()
    return run, run.metrics(gen)


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    assert [w["name"] for w in b["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == W.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == {
        n: W.layer_unit(n) for n in W.LAYER_MAP}


def check_table_shape() -> None:
    from perfbench import gen, shape

    work = os.path.join(ROOT, ".pbrun")
    gen.ensure(work, "tables", SEED, 1.0)
    s = shape.shape(gen.input_dir(work, "tables", SEED, 1.0))
    assert not shape.off_shape(s), shape.off_shape(s)
    print(f"ok  entry tables in the sf0.1 shape ({s['documents']} documents, "
          f"{s['lineitem']} lineitem rows)")


def main() -> int:
    R._become_subreaper()
    check_benchmark_json()
    check_table_shape()
    run, _ = tiny("agg_generic", stall=True, step_timeout=10.0)
    assert run.failed == 1 and run.attempted > 1, (run.attempted, run.failed)
    assert len(run.setups) == 2 and run.walls, run.setups
    print(f"ok  stalled step failed after its timeout; the run continued "
          f"({run.attempted - 1} more operations)")

    for wl in W.WORKLOADS:
        run, m = tiny(wl)
        assert set(m) == set(W.END_TO_END), (wl, m)
        assert run.failed == 0 and run.attempted >= MIN_OPS, (wl, run.errors)
        assert all(v["value"] > 0 for v in m.values()), (wl, m)
        print(f"ok  {wl}: end-to-end metrics, outputs match the oracle")

        run, m = tiny(wl, trace=True)
        assert set(m) == set(W.LAYER_MAP), (wl, set(W.LAYER_MAP) ^ set(m))
        assert run.failed == 0, (wl, run.errors)
        with open(os.path.join(run.out, f"trace-{wl}-s{SEED}.json")) as f:
            spans = json.load(f)
        assert spans and not check_tree(spans), check_tree(spans)[:5]
        if W.WORKLOADS[wl]["kind"] == "entry":
            assert set(run.probes) == set(W.STALL_PROBES), run.probes
            print(f"    known-stall probes: {run.probes}")
        print(f"ok  {wl}: traced run, {len(spans)} spans well-formed")

    for wl in ("agg_generic", "entry_exchange"):
        run, _ = tiny(wl, corrupt=True)
        assert run.attempted >= MIN_OPS and run.failed == run.attempted, (
            wl, run.attempted, run.failed)
        print(f"ok  {wl}: {run.failed}/{run.attempted} corrupted outputs "
              "counted as failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
