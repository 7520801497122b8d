"""Shape of a TPC-H-ish table directory, as the entry queries see it.

    python3 perfbench/shape.py DIR [DIR ...]

Prints one markdown row per directory.  ``perfbench.gen.make_tables``
follows the shape of the repository's test tables at scale factor 0.1;
``SF01`` holds that shape as measured with this module, and the self-check
compares generated tables against it.
"""

from __future__ import annotations

import collections
import os
import sys

SPAN = 8  # the span length of remove_dup_spans / dup_span_positions

# measured on the sf0.1 test tables (5 000 documents, 100 000 events,
# 150 000 orders, 600 000 lineitem rows)
SF01 = {
    "events_per_doc": 20.0,
    "orders_per_doc": 30.0,
    "lineitem_per_order": 4.0,
    "words_per_doc": 54.1,
    "vocabulary": 31,
    "exact_dup_share": 0.0016,
    "span_dup_share": 0.095,
    "events_per_user": 66.7,
    "events_per_session": 1.10,
    "orders_with_lines": 0.982,
    "value_mean": 49.9,
    "extendedprice_mean": 52_952.0,
}

# relative tolerance of each ratio in the self-check's comparison; the
# span-duplicate share counts a few dozen documents at benchmark scale, and
# the exact-duplicate share (0-2 documents there) is reported, not checked
TOLERANCE = {k: 0.1 for k in SF01}
TOLERANCE.update(span_dup_share=0.35, exact_dup_share=None)


def shape(d: str) -> dict:
    import numpy as np
    import pyarrow.parquet as pq

    def read(t, cols):
        return pq.read_table(os.path.join(d, f"{t}.parquet"),
                             columns=cols).to_pandas()

    docs = read("documents", ["text"])["text"].tolist()
    ev = read("events", ["user_id", "ts", "event_id", "value"])
    orders = read("orders", ["o_orderkey"])
    li = read("lineitem", ["l_orderkey", "l_extendedprice"])

    words = [t.split(" ") for t in docs]
    spans = collections.Counter(
        " ".join(w[p:p + SPAN]) for w in words
        for p in range(len(w) - SPAN + 1))
    span_dup = sum(any(spans[" ".join(w[p:p + SPAN])] > 1
                       for p in range(len(w) - SPAN + 1)) for w in words)
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    gap = ev.groupby("user_id")["ts"].diff().dt.total_seconds()
    sessions = int((gap.isna() | (gap > 3600)).sum())
    n = len(docs)
    return {
        "documents": n, "events": len(ev), "orders": len(orders),
        "lineitem": len(li),
        "events_per_doc": len(ev) / n,
        "orders_per_doc": len(orders) / n,
        "lineitem_per_order": len(li) / len(orders),
        "words_per_doc": float(np.mean([len(w) for w in words])),
        "vocabulary": len({x for w in words for x in w}),
        "exact_dup_share": (n - len(set(docs))) / n,
        "span_dup_share": span_dup / n,
        "events_per_user": len(ev) / ev["user_id"].nunique(),
        "events_per_session": len(ev) / sessions,
        "orders_with_lines": li["l_orderkey"].nunique() / len(orders),
        "value_mean": float(ev["value"].mean()),
        "extendedprice_mean": float(li["l_extendedprice"].mean()),
    }


def off_shape(s: dict) -> list[str]:
    """The ratios of ``s`` outside their tolerance of ``SF01``."""
    return [f"{k}: {s[k]:.4g} vs sf0.1 {v:.4g}" for k, v in SF01.items()
            if TOLERANCE[k] is not None and abs(s[k] - v) > TOLERANCE[k] * v]


def main(argv: list[str]) -> int:
    cols = ["documents", "events", "orders", "lineitem"] + list(SF01)
    print("| dir | " + " | ".join(cols) + " |")
    print("|" + " --- |" * (len(cols) + 1))
    for d in argv:
        s = shape(d)
        print(f"| {d} | " + " | ".join(f"{s[c]:.4g}" for c in cols) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
