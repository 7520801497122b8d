"""Ray Data context tuning for cluster size.

Ray Data pads every read to ``read_op_min_num_blocks`` (default 200) blocks
and sizes hash shuffles to ``default_hash_shuffle_parallelism`` (200).  The
streaming executor carries a measurable per-block driver cost (~10 ms in
this environment), so on a small cluster a kilobyte-sized read dragged to
200 blocks costs seconds of pure scheduling.  The right block count is a
small multiple of the cluster's total cores — exactly the guidance for real
multi-node clusters too (blocks ≈ 2-4× total cores; at 100 TB the natural
128 MiB-target block count is far above that floor, so the min only
distorts SMALL inputs and lowering it is safe at every scale).

The floor also splits any read over fewer files than it: at 1 CPU the
floor is 8, so 4 files plan as ``ReadParquet->SplitBlocks(2)``.  A Ray
Data task pauses once ``_max_num_blocks_in_streaming_gen_buffer`` of its
output blocks (default 2) are unconsumed, so a split read task paused on
its last block keeps holding its CPU, and the executor's
``process_completed_tasks`` then waits out its full 100 ms ``ray.wait``
timeout on every scheduling step while the next task queues behind it.
The routed flagship over 4 files at 1 CPU (Ray 2.49.2) left the CPU idle
for ~0.2 s of a 0.87 s operation that way (wall minus the CPU time of
every session process); a buffer that holds a whole split read leaves it
busy throughout, and the operation takes 0.46 s.

Never calls ray.init(); safe to call from driver-owned sessions.
"""

from __future__ import annotations

import os


def cluster_cpus() -> int:
    """Total CPUs of the current Ray cluster (or host fallback)."""
    try:
        import ray

        if ray.is_initialized():
            n = int(ray.cluster_resources().get("CPU", 0))
            if n > 0:
                return n
    except Exception:
        pass
    return os.cpu_count() or 8


def tune_for_cluster(num_cpus: int | None = None):
    """Size Ray Data's block/parallelism floors to the cluster; idempotent."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    n = num_cpus or cluster_cpus()
    # ~4 tasks per core packs waves tightly without hitting the per-block
    # driver overhead that the 200-block default pays on small clusters
    floor = min(max(4 * n, 8), 192)
    ctx.read_op_min_num_blocks = floor
    ctx.min_parallelism = floor
    ctx.default_hash_shuffle_parallelism = floor
    # the floor splits a read task into at most `floor` blocks; buffering
    # one block more means a split read never pauses while holding its CPU
    # (see the module docstring; the 4-file flagship at 1 CPU went
    # 0.76 s -> 0.48 s per operation)
    ctx._max_num_blocks_in_streaming_gen_buffer = floor + 1
    ctx.enable_progress_bars = False
    # our pipelines are short chains of fused map operators over pre-split
    # inputs; the 50% per-operator resource reservation leaves the dominant
    # fused operator running on half the cluster (measured ~40% wall
    # overhead on the flagship) — let operators claim idle CPUs instead
    ctx.op_resource_reservation_enabled = False
    return ctx
