"""Benchmark of the timberjack_ray engine.

    python3 perfbench/run.py --workload routed_mixed --seed 1 --seconds 4 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics (``wall_s``, ``rows_per_s``,
``driver_peak_rss_mb``, ``setup_s``), with ``--trace 1`` the per-layer ones.
The full record (samples, generation time, errors, known-stall probes) is
written to ``.pbrun/out/`` and summarized on standard error.

This process only supervises.  ``perfbench.gen`` makes the inputs and their
oracles; each ``perfbench.session`` child is one Ray driver, confined with
every process it starts to ``nproc`` CPUs.  A run starts
``SESSIONS`` children one after another, each measuring an equal share of
``--seconds``; ``setup_s`` is the median, over them, of the time from
spawning the child to its warm session.  A step that sends no event within
its timeout counts as a failed operation: the child's process tree is killed
and a new child measures the rest of its share.  Every process started here is
stopped and reaped before exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import procs  # noqa: E402
from perfbench import workloads as W  # noqa: E402

SESSIONS = 2
STEP_TIMEOUT_S = 45.0
GEN_TIMEOUT_S = 600.0
RUN_BUDGET_S = 165.0  # a run stops starting sessions past this


class RunError(Exception):
    pass


# -- process bookkeeping -------------------------------------------------------

def _become_subreaper() -> None:
    """Orphaned descendants (Ray daemons) re-parent to this process, so
    they can be found, stopped and reaped here."""
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0,
                                            0)


def stop_descendants() -> None:
    """SIGKILL every descendant of this process and reap them all."""
    while True:
        left = procs.descendants(os.getpid())
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


class Child:
    """A ``perfbench.<module>`` child and its JSON-lines event stream."""

    def __init__(self, module: str, plan: dict, log_path: str, env: dict,
                 cpus: list[int] | None = None):
        def confine():
            if cpus:
                os.sched_setaffinity(0, cpus)

        self.t_spawn = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", f"perfbench.{module}",
                 json.dumps(plan)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                preexec_fn=confine)
        self.buf = b""

    def event(self, timeout: float) -> dict | None:
        """Next event, or None on timeout or end of stream."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> None:
        """Stop the child and everything it started (the Ray daemons and
        workers)."""
        stop_descendants()
        self.proc.wait()
        self.proc.stdout.close()


# -- the run -------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, sessions: int = SESSIONS, scale: float = 1.0,
                 step_timeout: float = STEP_TIMEOUT_S, corrupt: bool = False,
                 stall: bool = False):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.sessions, self.scale = trace, sessions, scale
        self.step_timeout = step_timeout
        # self-check hooks: wrong outputs, a first operation that never ends
        self.corrupt, self.stall = corrupt, stall
        self.work = os.path.join(ROOT, ".pbrun")
        self.out = os.path.join(self.work, "out")
        self.t0 = time.monotonic()
        self.walls: list[float] = []     # successful operations
        self.failed_walls: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.setups: list[float] = []
        self.setup_parts: list[dict] = []
        self.step_walls: dict[str, list[float]] = {}
        self.rss: list[float] = []
        self.layers: dict = {}
        self.probes: dict = {}
        self.log = os.path.join(self.out,
                                f"{workload}-s{seed}-t{int(trace)}.log")

    def env(self) -> dict:
        """Environment of the children: repository importable, temporary
        files inside the work directory, no more threads than nproc."""
        n = str(W.nproc())
        path = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "")
                         .split(os.pathsep) if p]
        return dict(os.environ, TMPDIR=os.path.join(self.work, "tmp"),
                    PYTHONPATH=os.pathsep.join(path), OMP_NUM_THREADS=n,
                    OPENBLAS_NUM_THREADS=n, MKL_NUM_THREADS=n)

    def inputs(self) -> list[str]:
        w = W.WORKLOADS[self.workload]
        if not self.trace:
            return [w["input"]]
        # the traced run also profiles the other family's layers
        return [w["input"], "mixed" if w["kind"] == "entry" else "tables"]

    def generate(self, env: dict) -> dict:
        c = Child("gen", {"seed": self.seed, "scale": self.scale,
                          "inputs": self.inputs(), "work": self.work},
                  self.log, env)
        try:
            out, _ = c.proc.communicate(timeout=GEN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            c.proc.kill()
            c.proc.communicate()
            raise RunError("input generation timed out")
        finally:
            stop_descendants()
        if c.proc.returncode != 0:
            raise RunError(f"input generation failed (exit "
                           f"{c.proc.returncode}), see {self.log}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.t0)

    def plan(self, seconds: float, probe: bool) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "work": self.work,
                "seconds": seconds, "trace": self.trace,
                "scale": self.scale, "corrupt": self.corrupt,
                "stall": self.stall and not self.setups, "probe": probe}

    def start_child(self, env: dict, plan: dict) -> Child:
        # the whole session (driver, Ray daemons and workers, which inherit
        # the mask) runs on nproc CPUs from its first instruction: Ray sizes
        # its scheduler to num_cpus, but unconfined its processes spread
        # over every CPU of the machine, and their speed then depends on how
        # idle the other CPUs are
        c = Child("session", plan, self.log, env,
                  cpus=sorted(os.sched_getaffinity(0))[:W.nproc()])
        ev = c.event(min(self.step_timeout * 2, self.left()))
        if ev is None or ev["ev"] != "ready":
            c.stop()
            raise RunError(f"session did not start, see {self.log}")
        self.setups.append(time.perf_counter() - c.t_spawn)
        self.setup_parts.append(ev["parts"])
        return c

    def measure(self, env: dict) -> None:
        """``sessions`` fresh sessions, each a setup sample measuring an
        equal share of ``seconds``."""
        probe = self.trace and W.WORKLOADS[self.workload]["kind"] == "entry"
        for k in range(self.sessions):
            self.session(env, self.seconds / self.sessions,
                         probe and k == self.sessions - 1)

    def session(self, env: dict, seconds: float, probe: bool) -> None:
        """Measure ``seconds`` in one session; a stalled step fails its
        operation and a new session measures the rest."""
        while True:
            c = self.start_child(env, self.plan(seconds, probe))
            t_ready = t_step = time.monotonic()
            done, step, timeout = False, None, self.step_timeout
            while not done:
                ev = c.event(max(min(timeout, self.left()), 0.0))
                if ev is None:
                    break
                kind = ev["ev"]
                timeout = self.step_timeout
                if kind == "start":
                    step, t_step = ev["step"], time.monotonic()
                elif kind == "done":
                    self.step_walls.setdefault(ev["step"], []).append(
                        ev["wall"])
                elif kind == "op":
                    self.attempted += 1
                    if ev["ok"]:
                        self.walls.append(ev["wall"])
                    else:
                        self.failed += 1
                        self.failed_walls.append(ev["wall"])
                        self.errors += ev["errors"]
                elif kind == "result":
                    if "rss_mb" in ev:
                        self.rss.append(ev["rss_mb"])
                    self.layers.update(ev.get("layers", {}))
                    step = None
                elif kind == "probe":
                    step, timeout = ev["step"], ev["timeout"]
                    self.probes[step] = {"status": "stalled",
                                         "timeout_s": timeout}
                elif kind == "probe_done":
                    self.probes[ev["step"]] = {
                        "status": "ok" if ev["ok"] else "wrong",
                        "wall_s": ev["wall"], "errors": ev["errors"]}
                    step = None
                done = kind == "end"
            c.stop()
            if done or step is None or step in self.probes:
                return  # finished, or a stalled probe (recorded)
            self.attempted += 1
            self.failed += 1
            self.failed_walls.append(time.monotonic() - t_step)
            self.errors.append(f"{step}: no event within {timeout:.0f} s")
            # the timeout is the failure's cost; the measuring time spent
            # before the stalled step is what this share has used
            seconds = max(seconds - (t_step - t_ready), 0.0)
            if seconds <= 0 or self.left() < 2 * self.step_timeout:
                return
            probe = probe and not self.probes

    def execute(self) -> dict:
        os.makedirs(self.out, exist_ok=True)
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        env = self.env()
        try:
            gen = self.generate(env)
            self.measure(env)
        finally:
            stop_descendants()
            for d in os.listdir(self.work):
                if d.startswith("session_"):
                    p = os.path.join(self.work, d)
                    if os.path.islink(p):
                        os.unlink(p)
                    else:
                        shutil.rmtree(p, ignore_errors=True)
        return gen

    def input_rows(self, gen: dict) -> int:
        rows = gen[W.WORKLOADS[self.workload]["input"]]["rows"]
        if isinstance(rows, dict):
            # rows each query scans: dedup and span dedup read documents,
            # the join reads orders and lineitem, paths read events
            return (2 * rows["documents"] + rows["orders"] + rows["lineitem"]
                    + rows["events"])
        return rows

    def metrics(self, gen: dict) -> dict:
        if self.trace:
            names = list(W.LAYER_MAP)
            missing = [n for n in names if n not in self.layers]
            if missing:
                raise RunError(f"traced run lacks {missing}")
            return {n: {"value": self.layers[n], "unit": W.layer_unit(n)}
                    for n in names}
        walls = self.walls or self.failed_walls
        if not walls or not self.rss:
            raise RunError("no operation completed")
        wall = statistics.median(walls)
        vals = {"wall_s": wall, "rows_per_s": self.input_rows(gen) / wall,
                "driver_peak_rss_mb": max(self.rss),
                "setup_s": statistics.median(self.setups)}
        return {n: {"value": vals[n], "unit": u}
                for n, u in W.END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    _become_subreaper()
    run = Run(a.workload, a.seed, a.seconds, bool(a.trace),
              sessions=1 if a.trace else SESSIONS)
    try:
        gen = run.execute()
        metrics = run.metrics(gen)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=a.workload, seed=a.seed,
                  seconds=a.seconds, trace=a.trace, num_cpus=W.nproc(),
                  samples=len(run.walls), walls=run.walls,
                  setup_samples=run.setups, setup_parts=run.setup_parts,
                  step_walls=run.step_walls, gen=gen, errors=run.errors[:20],
                  known_stall_probes=run.probes,
                  fail_ratio=run.failed / max(run.attempted, 1))
    with open(os.path.join(run.out, f"result-{a.workload}-s{a.seed}"
                           f"-t{a.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for n, m in metrics.items():
        print(f"{n:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"samples {len(run.walls)}  attempted {run.attempted}  failed "
          f"{run.failed}  fail_ratio {record['fail_ratio']:.3g}  "
          f"probes {run.probes}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
