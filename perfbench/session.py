"""One benchmark session: a Ray driver sized to nproc, run as a child of
``perfbench.run``.

    python3 -m perfbench.session '<plan json>'

It starts Ray, warms it with ``workloads.WARM_RUNS`` unchecked runs of the
workload's operation, and reports ``ready``.  It then runs
the closed loop: one operation at a time, each timed alone and checked against the oracle outside its timing,
until ``seconds`` have passed and at least ``MIN_OPS`` ran.  With
``trace`` it also runs the traced phase (spans, layer pass, object-store
peak).  Events go to the parent as JSON lines on the original stdout, so the
parent can time out a stalled step.  The process exits without shutting Ray
down: the parent stops every process of the session.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import shutil
import statistics
import sys
import time

from perfbench import layers
from perfbench import workloads as W
from perfbench.gen import input_dir
from perfbench.trace import ObjectStoreSampler, Tracer

MIN_OPS = 2  # per session
LAYER_REPS = 3


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s+(\d+)", f.read()).group(1)) / 1024


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


# -- checks ------------------------------------------------------------------

def check_report(report: dict, want: dict) -> list[str]:
    """Differences between an analyze report and the oracle summary."""
    st = report["stats"] or {}
    got = {
        "total": report["total_count"],
        "levels": {d["level"]: d["count"] for d in st.get("log_levels", [])},
        "errors": {d["error_type"]: d["count"]
                   for d in st.get("error_types", [])},
        "trends": {d["timestamp"]: d["count"]
                   for d in report["time_trends"] or []},
        "unique": st.get("unique_messages_count"),
    }
    return [f"{k}: got {got[k]!r:.200} want {want[k]!r:.200}"
            for k in want if got[k] != want[k]]


def check_frame(got, want) -> list[str]:
    """Order-insensitive frame equality, normalized as the entry-query
    tests do (sorted columns and rows; floats within 1e-6)."""
    import pandas as pd

    def norm(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    got, want = norm(got), norm(want)
    if list(got.columns) != list(want.columns):
        return [f"columns {list(got.columns)} != {list(want.columns)}"]
    if len(got) != len(want):
        return [f"rows {len(got)} != {len(want)}"]
    bad = []
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            ok = len(a) == 0 or (a - b).abs().max() < 1e-6
        else:
            ok = a.astype(str).tolist() == b.astype(str).tolist()
        if not ok:
            bad.append(f"column {c} differs")
    return bad


def corrupt(out):
    """A wrong output, for the self-check's failure counting: one more
    line in an analyze report, one row fewer in a query result."""
    if hasattr(out, "report"):
        return dataclasses.replace(out, report=corrupt(out.report))
    if isinstance(out, dict):
        return dict(out, total_count=out["total_count"] + 1)
    return out[: len(out) - 1]


# -- operations ----------------------------------------------------------------

class Step:
    """One timed call and the check of its output."""

    def __init__(self, name, fn, check, prepare=None):
        self.name, self.fn, self.check, self.prepare = name, fn, check, prepare


def analyze_steps(workload: str, seq_dir: str, oracle: dict,
                  out_dir: str) -> list[Step]:
    from timberjack_ray import AnalyzeConfig
    from timberjack_ray.data import synth
    from timberjack_ray.pipelines.analyze import analyze_parquet

    w = W.WORKLOADS[workload]
    cfg = AnalyzeConfig(**w["cfg"])
    paths = sorted(os.path.join(seq_dir, f) for f in os.listdir(seq_dir)
                   if f.endswith(".parquet"))
    if w["routed"]:
        lookup = synth.source_lookup_dict()

        def fn():
            return analyze_parquet(paths, cfg, out_dir=out_dir, lookup=lookup,
                                   num_partitions=W.NUM_PARTITIONS)

        def prepare():
            shutil.rmtree(out_dir, ignore_errors=True)
    else:
        def fn():
            return analyze_parquet(paths, cfg)
        prepare = None

    def check(out):
        bad = check_report(out.report, oracle)
        if w["routed"]:
            c = out.counts
            sink = dict(zip(c[c["kind"] == "sink"]["key"],
                            c[c["kind"] == "sink"]["n"]))
            if sink != oracle["levels"]:
                bad.append(f"sink rows {sink} != levels {oracle['levels']}")
        return bad

    return [Step(workload, fn, check, prepare)]


def entry_steps(tables_dir: str, queries: list[str]) -> list[Step]:
    import pandas as pd

    import __ray_entry__ as em

    qs = em.queries()
    steps = []
    for q in queries:
        want = pd.read_parquet(os.path.join(tables_dir, f"oracle-{q}.parquet"))
        steps.append(Step(q, (lambda q=q: qs[q](tables_dir)),
                          (lambda out, want=want: check_frame(out, want))))
    return steps


class Session:
    def __init__(self, plan: dict, chan):
        self.plan, self.chan = plan, chan
        self.work, self.seed, self.scale = plan["work"], plan["seed"], \
            plan["scale"]
        self.workload = plan["workload"]
        self.corrupt = plan.get("corrupt", False)

    def send(self, **msg) -> None:
        self.chan.write(json.dumps(msg) + "\n")
        self.chan.flush()

    def idir(self, name: str) -> str:
        return input_dir(self.work, name, self.seed, self.scale)

    def oracle(self, name: str, workload: str) -> dict:
        with open(os.path.join(self.idir(name), "_DONE.json")) as f:
            return json.load(f)["oracles"][workload]

    def op_steps(self, workload: str) -> list[Step]:
        w = W.WORKLOADS[workload]
        if w["kind"] == "entry":
            return entry_steps(self.idir(w["input"]), W.ENTRY_QUERIES)
        return analyze_steps(workload, self.idir(w["input"]),
                             self.oracle(w["input"], workload),
                             os.path.join(self.work, "out", workload))

    def call(self, st: Step, tr: Tracer | None = None):
        """Time one step and check its output → (seconds, problems)."""
        if st.prepare:
            st.prepare()
        t0 = time.perf_counter()
        try:
            if tr is None:
                out = st.fn()
            else:
                name = (f"entry.{st.name}" if st.name in W.ENTRY_QUERIES
                        else st.name)
                with tr.span(name) as sp:
                    out = st.fn()
                    if hasattr(out, "__len__"):
                        sp["attrs"]["rows"] = len(out)
            dt = time.perf_counter() - t0
            return dt, st.check(corrupt(out) if self.corrupt else out)
        except Exception as e:  # a failed operation, not a failed run
            return time.perf_counter() - t0, [f"{type(e).__name__}: {e}"[:500]]

    def run_op(self, steps: list[Step], tr: Tracer | None = None):
        """Run one operation (its steps in order) → (wall, errors)."""
        wall, errors = 0.0, []
        for st in steps:
            self.send(ev="start", step=st.name)
            dt, bad = self.call(st, tr)
            wall += dt
            errors += [f"{st.name}: {b}" for b in bad]
            self.send(ev="done", step=st.name, wall=dt, ok=not bad)
        return wall, errors

    def op_event(self, wall: float, errors: list[str]) -> None:
        self.send(ev="op", wall=wall, ok=not errors, errors=errors[:5])

    # -- phases ----------------------------------------------------------

    def start(self) -> dict:
        """Start Ray and warm it → the seconds each part took."""
        t0 = time.perf_counter()
        import ray

        from timberjack_ray.rayctx import tune_for_cluster

        t1 = time.perf_counter()
        n = W.nproc()
        ray.init(address="local", num_cpus=n, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 2**20,
                 _temp_dir=self.work)
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        tune_for_cluster(n)
        t2 = time.perf_counter()
        for _ in range(W.WARM_RUNS[W.WORKLOADS[self.workload]["kind"]]):
            for st in self.op_steps(self.workload):
                if st.prepare:
                    st.prepare()
                st.fn()
        return {"import_s": t1 - t0, "init_s": t2 - t1,
                "warm_s": time.perf_counter() - t2}

    def measure(self, seconds: float) -> None:
        steps = self.op_steps(self.workload)
        _reset_peak_rss()
        t0 = time.perf_counter()
        n = 0
        while time.perf_counter() - t0 < seconds or n < MIN_OPS:
            wall, errors = self.run_op(steps)
            self.op_event(wall, errors)
            n += 1
        self.send(ev="result", rss_mb=_peak_rss_mb())

    def traced(self, seconds: float) -> None:
        """Alternate untraced and traced operations, then the layer pass
        and the traced entry rounds; report every per-layer metric."""
        tr = Tracer()
        steps = self.op_steps(self.workload)
        untraced, traced, peaks = [], [], []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(traced) < MIN_OPS:
            wall, errors = self.run_op(steps)
            self.op_event(wall, errors)
            untraced.append(wall)
            sampler = ObjectStoreSampler()
            sampler.start()
            with tr.span("op", workload=self.workload):
                wall, errors = self.run_op(steps, tr)
            peaks.append(sampler.stop())
            self.op_event(wall, errors)
            traced.append(wall)
        m = {"op.wall.s": statistics.median(untraced),
             "op.traced_wall.s": statistics.median(traced),
             "ray.object_store_peak_mb": max(peaks) / 2**20}
        m["trace.overhead_s"] = m["op.traced_wall.s"] - m["op.wall.s"]

        # the analyze layers: this workload's input, or the flagship's
        is_entry = W.WORKLOADS[self.workload]["kind"] == "entry"
        awl = "routed_mixed" if is_entry else self.workload
        if is_entry:  # the flagship's own Ray wall, warm first
            asteps = self.op_steps(awl)
            for _ in range(W.WARM_RUNS["analyze"]):
                self.run_op(asteps)
            awalls = []
            for _ in range(LAYER_REPS):
                wall, errors = self.run_op(asteps)
                self.op_event(wall, errors)
                awalls.append(wall)
            a_wall = statistics.median(awalls)
        else:
            a_wall = m["op.wall.s"]
        m.update(self.layer_pass(tr, awl, a_wall))

        if is_entry:
            rounds = [s for s in tr.spans if s["name"] == "op"]
        else:
            esteps = entry_steps(self.idir("tables"), W.ENTRY_QUERIES)
            self.run_op(esteps)  # warm the entry modules on the workers
            rounds = []
            for _ in range(LAYER_REPS):
                with tr.span("op", workload="entry_exchange") as sp:
                    wall, errors = self.run_op(esteps, tr)
                self.op_event(wall, errors)
                rounds.append(sp)
        m.update(self.entry_metrics(tr, rounds))
        tr.write(os.path.join(self.work, "out",
                              f"trace-{self.workload}-s{self.seed}.json"))
        self.send(ev="result", layers=m)

    def layer_pass(self, tr: Tracer, awl: str, a_wall: float) -> dict:
        """The layer pass of workload ``awl`` (its own pipeline), plus a
        routed pass over the same input for the routed-only layers of an
        aggregate-only workload; medians over ``LAYER_REPS`` rounds."""
        w = W.WORKLOADS[awl]
        reps = []
        for _ in range(LAYER_REPS):
            lm = self.one_pass(tr, awl, w["routed"])
            lm["layers.sum.s"] = sum(lm[f"{n}.s"]
                                     for n in layers.pipeline_layers(awl))
            if not w["routed"]:
                sub = self.one_pass(tr, awl, True)
                lm.update({k: sub[k] for k in layers.ROUTED_ONLY})
            reps.append(lm)
        out = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
        out["pipeline.overhead.s"] = a_wall - out["layers.sum.s"]
        return out

    def one_pass(self, tr: Tracer, awl: str, routed: bool) -> dict:
        """One checked layer pass over ``awl``'s input → its layer values."""
        from timberjack_ray import AnalyzeConfig

        w = W.WORKLOADS[awl]
        seq = self.idir(w["input"])
        paths = sorted(os.path.join(seq, f) for f in os.listdir(seq)
                       if f.endswith(".parquet"))
        oracle = self.oracle(w["input"], awl)
        t0 = time.perf_counter()
        root, report, sink = layers.analyze_pass(
            tr, paths, AnalyzeConfig(**w["cfg"]), routed,
            os.path.join(self.work, "out", "layers"))
        bad = check_report(corrupt(report) if self.corrupt else report,
                           oracle)
        if routed and sink != oracle["levels"]:
            bad.append(f"sink rows {sink} != levels {oracle['levels']}")
        self.op_event(time.perf_counter() - t0, bad)
        return layers.layer_metrics(tr, root)

    def entry_metrics(self, tr: Tracer, rounds: list[dict]) -> dict:
        out = {}
        for q in W.ENTRY_QUERIES:
            name = f"entry.{q}"
            spans = [s for s in tr.spans if s["name"] == name
                     and any(tr.is_under(s, r["id"]) for r in rounds)]
            out[f"{name}.s"] = statistics.median(
                s["end"] - s["start"] for s in spans)
            out[f"{name}.rows"] = statistics.median(
                s["attrs"].get("rows", 0) for s in spans)
        return out

    def probe(self) -> None:
        """Known-stall probes, last: the parent kills this process if one
        outlives its timeout."""
        for st in entry_steps(self.idir("tables"), W.STALL_PROBES):
            self.send(ev="probe", step=st.name,
                      timeout=W.STALL_PROBE_TIMEOUT_S)
            wall, errors = self.call(st)
            self.send(ev="probe_done", step=st.name, wall=wall,
                      ok=not errors, errors=errors[:5])


def main() -> None:
    plan = json.loads(sys.argv[1])
    chan = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # stray prints go to the log, not the event channel
    s = Session(plan, chan)
    s.send(ev="ready", parts=s.start())
    if plan["stall"]:  # self-check of the parent's step timeout
        s.send(ev="start", step="stall")
        time.sleep(3600)
    if plan["trace"]:
        s.traced(plan["seconds"])
    else:
        s.measure(plan["seconds"])
    if plan["probe"]:
        s.probe()
    s.send(ev="end")
    os._exit(0)  # the parent stops the Ray processes left behind


if __name__ == "__main__":
    main()
