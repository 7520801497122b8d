"""Process-tree helpers over /proc (Linux)."""

from __future__ import annotations

import os


def parents() -> dict[int, int]:
    """pid → parent pid of every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        out[int(d)] = int(stat[stat.rindex(")") + 2:].split()[1])
    return out


def descendants(root: int) -> list[int]:
    ppid = parents()
    found, frontier = [], [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in ppid.items() if pp == p]
        found += kids
        frontier += kids
    return found

