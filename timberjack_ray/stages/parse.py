"""Parse + filter stage — the fused per-batch transform.

One ``map_batches`` callable class reproduces the reference's per-line
``analyze_line`` (src/analyzer.rs:211-289) as a vectorized Arrow transform:
detokenize → (format-specific parse) → field/level/pattern masks → filter →
append analysis columns.  Regexes and config are prepared once per worker in
``__init__`` (reference: lazy_static globals, src/analyzer.rs:16-28), then
each ``__call__`` is pure vectorized compute.

Input batch columns: ``tokens`` (list<int32>, decoded via the static vocab)
or an existing ``line``/``text`` string column.  Output: input columns
(minus ``tokens`` unless ``keep_tokens``) + ``line, level`` and, when
enabled, ``ts_hour, message_key, error_type``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray import kernels, vocab
from timberjack_ray.config import AnalyzeConfig


def line_column(batch: pa.Table) -> pa.ChunkedArray | pa.Array:
    if "line" in batch.column_names:
        return batch["line"]
    if "tokens" in batch.column_names:
        return vocab.detokenize(batch["tokens"])
    if "text" in batch.column_names:
        return batch["text"]
    raise ValueError(f"no line/tokens/text column in {batch.column_names}")


class ParseStage:
    """Stateless-per-batch, stateful-per-worker parse+filter transform.

    Use with ``ds.map_batches(ParseStage(cfg=cfg, fmt=fmt),
    batch_format="pyarrow", ...)``: the instance is pickled into each task.
    ``fmt`` must already be
    resolved ('generic' or 'json') — format auto-detection samples the
    dataset head driver-side (see pipelines/analyze.py), mirroring the
    reference's file-head sampling (src/main.rs:52-89).
    """

    def __init__(self, cfg: AnalyzeConfig, fmt: str, keep_tokens: bool = True):
        self.custom = None
        if fmt not in ("generic", "json"):
            # user-registered parser (registry.ParserRegistry) — the instance
            # ships to workers inside this stage via cloudpickle
            from timberjack_ray.registry import default_registry

            self.custom = default_registry().get(fmt)
        self.cfg = cfg
        self.fmt = fmt
        self.keep_tokens = keep_tokens
        self.filters = cfg.field_filters()
        self.pattern = cfg.pattern
        self.level_filter = cfg.level
        self.want_stats = cfg.stats
        self.want_trend = cfg.trend

    # -- helpers -----------------------------------------------------------

    def _parse_json(self, lines: list[str], want_ts: bool = True):
        """Per-row JSON parse (the reference's slow path too).  Returns
        (ts_list | None, level_list, keep_list | None).

        Tightened hot loop: field filters use a TARGETED key lookup instead
        of the full dotted flatten — for an undotted filter key k the
        flattened value is exactly obj[k] when scalar ("null" for JSON null,
        absent for containers; no nested path can produce an undotted key and
        the 100-field cap never suppresses top-level scalar leaves, see
        kernels.flatten_fields / src/parser/json.rs:50-90).  Dotted/bracketed
        filter keys fall back to the full flatten for that row.  ``ts`` is
        skipped entirely unless a consumer (trend) needs it."""
        from timberjack_ray.kernels import _json_loads, flatten_fields

        filt_items = [
            (k, k.lower(), v.strip().lower(), ("." in k) or ("[" in k))
            for k, v in self.filters.items()
        ]
        lkeys = kernels.LEVEL_KEYS
        tkeys = kernels.TIMESTAMP_KEYS
        level_out: list[str | None] = []
        ts_out: list[str | None] | None = [] if want_ts else None
        keep: list[bool] | None = [] if filt_items else None
        lv_append = level_out.append
        for line in lines:
            try:
                obj = _json_loads(line)
            except (ValueError, UnicodeDecodeError):
                obj = None
            if obj.__class__ is not dict:
                # malformed (obj None) or scalar JSON: no ts/level; fields
                # are None/{} — both mean substring fallback per filter key
                lv_append(None)
                if want_ts:
                    ts_out.append(None)
                if filt_items:
                    ll = line.lower()
                    keep.append(all(kl in ll and vl in ll for _, kl, vl, _ in filt_items))
                continue
            lv = None
            for k in lkeys:
                v = obj.get(k)  # JSON-null and absent both skip to next key
                if v is None:
                    continue
                t = v.__class__
                if t is str:
                    lv = v
                elif t is bool:
                    lv = "true" if v else "false"
                elif t is int:
                    lv = str(v)
                elif t is float:
                    lv = repr(v)
                else:
                    continue
                break
            lv_append(lv)
            if want_ts:
                tsv = None
                for k in tkeys:
                    v = obj.get(k)
                    if v is None:
                        continue
                    t = v.__class__
                    if t is str:
                        tsv = v
                    elif t is bool:
                        tsv = "true" if v else "false"
                    elif t is int:
                        tsv = str(v)
                    elif t is float:
                        tsv = repr(v)
                    else:
                        continue
                    break
                ts_out.append(tsv)
            if filt_items:
                ok = True
                ll = None
                for k, kl, vl, dotted in filt_items:
                    if dotted:
                        fields: dict = {}
                        flatten_fields(obj, "", fields)
                        fv = fields.get(k)
                    elif k in obj:
                        ov = obj[k]
                        if ov is None:
                            fv = "null"
                        elif ov.__class__ is dict or ov.__class__ is list:
                            fv = None
                        else:
                            fv = kernels.json_value_to_string(ov)
                    else:
                        fv = None
                    if fv is not None:
                        if fv.strip().lower() != vl:
                            ok = False
                            break
                    else:
                        if ll is None:
                            ll = line.lower()
                        if kl not in ll or vl not in ll:
                            ok = False
                            break
                keep.append(ok)
        return ts_out, level_out, keep

    def _parse_json_columnar(self, lines, want_ts: bool):
        """Columnar JSON parse via ``pyarrow.json`` (Arrow C++ parser) for
        the common all-string case; returns ``(ts, level, field_mask)`` or
        None to bail to the exact per-row loop.

        The needed top-level keys (level/timestamp/filter) are forced to
        utf8 with ``explicit_schema`` — otherwise Arrow would infer
        ``timestamp[s]`` for ISO strings and lose the original text — and
        every other field is skipped (``unexpected_field_behavior="ignore"``).
        Parity holds because a forced-utf8 column is null iff the key is
        absent or JSON-null (both mean "next key" for level/ts and
        "substring fallback" for a filter, exactly like the per-row loop),
        while every divergent case ABORTS the whole read instead of
        coercing: malformed/scalar/duplicate-key rows and bool/number/
        container values under a needed key raise ArrowInvalid, and an
        embedded newline shows up as a row-count mismatch.  Dotted filter
        keys need the 100-field-cap flatten → bail upfront.
        """
        if any(("." in k) or ("[" in k) for k in self.filters):
            return None
        import pyarrow.json as pj

        need = list(kernels.LEVEL_KEYS)
        if want_ts:
            need += kernels.TIMESTAMP_KEYS
        need += [k for k in self.filters if k not in need]
        arr = lines.combine_chunks() if isinstance(lines, pa.ChunkedArray) else lines
        # sniff a spread of rows first: a mixed generic/JSON batch can never
        # parse columnar, and bailing here skips the doomed read_json attempt
        # (which otherwise costs ~0.05s per 64k batch before failing)
        n = len(arr)
        for i in range(0, n, max(1, n // 8)):
            s = arr[i].as_py()
            if s is None or not s.lstrip()[:1] == "{":
                return None
        # Arrow-native newline join straight into a zero-copy buffer (~20x
        # cheaper than to_pylist + str.join for the same bytes)
        la = pa.LargeListArray.from_arrays(pa.array([0, len(arr)], pa.int64()), arr)
        joined = pc.binary_join(la, "\n")
        if not joined[0].is_valid:
            return None
        buf = joined.cast(pa.large_binary())[0].as_buffer()
        try:
            tbl = pj.read_json(
                pa.BufferReader(buf),
                read_options=pj.ReadOptions(use_threads=False, block_size=1 << 22),
                parse_options=pj.ParseOptions(
                    explicit_schema=pa.schema([(k, pa.string()) for k in need]),
                    unexpected_field_behavior="ignore"),
            )
        except pa.ArrowInvalid:
            return None
        if tbl.num_rows != len(arr):
            return None
        level = pc.coalesce(*(tbl[k] for k in kernels.LEVEL_KEYS))
        ts = None
        if want_ts:
            ts = pc.coalesce(*(tbl[k] for k in kernels.TIMESTAMP_KEYS))
        mask = None
        if self.filters:
            lower_lines = None
            for k, v in self.filters.items():
                vl = v.strip().lower()
                col = tbl[k]
                eq = pc.equal(pc.utf8_lower(pc.utf8_trim_whitespace(col)), vl)
                if col.null_count:
                    # only rows with the key absent/JSON-null need the
                    # raw-line substring fallback
                    if lower_lines is None:
                        lower_lines = pc.utf8_lower(arr)
                    sub = pc.and_(pc.match_substring(lower_lines, k.lower()),
                                  pc.match_substring(lower_lines, vl))
                    m = pc.if_else(pc.is_valid(col), eq, sub)
                else:
                    m = eq
                mask = m if mask is None else pc.and_(mask, m)
        return ts, level, mask

    def _parse_json_any(self, lines, want_ts: bool):
        """Batch-level JSON dispatch (VERDICT r02 #3): split the batch by
        the ``{``-prefix mask instead of bailing the WHOLE batch to the
        per-row loop when one generic line is present.

        * ``{``-prefixed rows (after lstrip) go to the columnar
          ``pyarrow.json`` path; only if THAT bails (malformed JSON,
          dotted filter keys, non-string needed values…) do those rows run
          the exact per-row loop.
        * all other rows can never parse to a JSON object — in the per-row
          loop they take the malformed/non-dict path (level None, ts None,
          filter = raw-line substring fallback), which is fully
          vectorizable: ``kernels.fallback_filter_mask``.

        Returns (ts | None, level, field_mask | None) aligned to the
        input; level/ts nulls are filled by the caller's regex fallbacks,
        exactly like the per-row path.
        """
        arr = lines.combine_chunks() if isinstance(lines, pa.ChunkedArray) else lines
        n = len(arr)
        # pure-JSON batches (the common case) go columnar directly with NO
        # extra pass: columnar success implies every line parsed as a JSON
        # object (a stray generic line fails the whole read → None)
        columnar = self._parse_json_columnar(arr, want_ts)
        if columnar is not None:
            return columnar
        jm = pc.starts_with(pc.utf8_ltrim_whitespace(arr), "{") \
            .to_numpy(zero_copy_only=False).astype(bool)
        all_json = bool(jm.all())
        jarr = arr if all_json else arr.take(pa.array(np.flatnonzero(jm)))

        j_ts = j_level = j_mask = None
        if len(jarr):
            columnar = self._parse_json_columnar(jarr, want_ts) \
                if not all_json else None  # whole == slice: already failed
            if columnar is not None:
                j_ts, j_level, j_mask = columnar
            else:
                ts_list, level_list, keep_list = self._parse_json(
                    jarr.to_pylist(), want_ts=want_ts)
                j_level = pa.array(level_list, type=pa.string())
                j_ts = pa.array(ts_list, type=pa.string()) if want_ts else None
                j_mask = pa.array(keep_list) if keep_list is not None else None
        else:
            j_level = pa.array([], type=pa.string())

        def _np(a, dtype=object):
            a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
            return a.to_numpy(zero_copy_only=False)

        if all_json:
            return j_ts, j_level, j_mask

        json_idx = np.flatnonzero(jm)
        other_idx = np.flatnonzero(~jm)
        level_full = np.full(n, None, dtype=object)
        if len(jarr):
            level_full[json_idx] = _np(j_level)
        level = pa.array(level_full, type=pa.string())
        ts = None
        if want_ts:
            ts_full = np.full(n, None, dtype=object)
            if j_ts is not None and len(jarr):
                ts_full[json_idx] = _np(j_ts)
            ts = pa.array(ts_full, type=pa.string())
        mask = None
        if self.filters:
            oarr = arr.take(pa.array(other_idx))
            # per-row loop parity: the non-dict fallback matches the
            # STRIPPED lowercase value (vl = v.strip().lower())
            o_mask = kernels.fallback_filter_mask(
                oarr, {k: v.strip() for k, v in self.filters.items()})
            full = np.empty(n, dtype=bool)
            full[other_idx] = _np(o_mask).astype(bool)
            full[json_idx] = _np(j_mask).astype(bool) if len(jarr) else False
            mask = pa.array(full)
        return ts, level, mask

    # -- main --------------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        lines = line_column(batch)
        if isinstance(lines, pa.Array):
            lines = pa.chunked_array([lines])

        # empty lines are skipped entirely (src/analyzer.rs:299); null lines
        # (undecodable token rows, vocab.detokenize) are skipped the same way
        nonempty = pc.and_kleene(pc.is_valid(lines), pc.not_equal(lines, ""))
        if not (pc.all(nonempty).as_py() or False):
            batch = batch.filter(nonempty)
            lines = lines.filter(nonempty)

        want_ts = self.want_trend
        ts = None
        if self.custom is not None:
            parsed = self.custom.parse_batch(pa.table({"line": lines}))
            level = parsed["level"]
            ts = parsed["ts"] if want_ts else None
            if self.filters:
                field_mask = kernels.fallback_filter_mask(lines, self.filters)
            else:
                field_mask = None
        elif self.fmt == "json":
            if len(lines):
                cts, parsed_level, field_mask = self._parse_json_any(lines, want_ts)
            else:
                cts, parsed_level, field_mask = None, pa.array([], pa.string()), None
            if isinstance(parsed_level, pa.Array):
                parsed_level = pa.chunked_array([parsed_level])
            # fallback level for rows the JSON parser left level-less
            # (src/analyzer.rs:232-245) — skipped when every row parsed one
            if parsed_level.null_count:
                fallback = kernels.extract_level(lines)
                level = pc.if_else(pc.is_valid(parsed_level), parsed_level, fallback)
            else:
                level = parsed_level
            if want_ts:
                ts = cts if isinstance(cts, pa.ChunkedArray) else \
                    pa.chunked_array([cts]) if cts is not None else \
                    pa.chunked_array([pa.nulls(len(lines), pa.string())])
                # timestamp fallback: raw-line TIMESTAMP_REGEX when the JSON
                # had no timestamp key (src/analyzer.rs:273-280)
                if ts.null_count:
                    ts = pc.if_else(pc.is_valid(ts), ts, kernels.extract_timestamp_raw(lines))
        else:
            level = kernels.extract_level(lines)
            if want_ts:
                ts = kernels.hour_bucket(kernels.extract_timestamp_raw(lines))
            if self.filters:
                field_mask = kernels.fallback_filter_mask(lines, self.filters)
            else:
                field_mask = None

        return self._finish(batch, lines, level, ts, field_mask)

    def _finish(self, batch: pa.Table, lines, level, ts, field_mask) -> pa.Table:
        mask = None
        if field_mask is not None:
            mask = field_mask
        lm = kernels.level_mask(level, self.level_filter)
        if lm is not None:
            mask = lm if mask is None else pc.and_(mask, lm)
        pm = kernels.pattern_mask(lines, self.pattern)
        if pm is not None:
            mask = pm if mask is None else pc.and_(mask, pm)

        if mask is not None:
            batch = batch.filter(mask)
            lines = lines.filter(mask)
            level = level.filter(mask)
            if ts is not None:
                ts = ts.filter(mask)

        cols = {name: batch[name] for name in batch.column_names if name not in ("line", "text")}
        if not self.keep_tokens:
            cols.pop("tokens", None)
            cols.pop("n_tok", None)
        cols["line"] = lines
        cols["level"] = level
        if self.want_trend:
            cols["ts_hour"] = kernels.hour_bucket(ts)
        if self.want_stats:
            cols["message_key"] = kernels.message_key(lines)
            cols["error_type"] = kernels.extract_error_type(lines)
        return pa.table(cols)


class CountStage:
    """--count fast path (src/main.rs:299-366): pattern + level only, NO
    parser and NO field filters — a deliberate reference quirk (JSON parsed
    levels are unavailable, so ``--count --level X`` over JSON yields 0).

    Emits one partial-count row per batch; sum the ``n`` column.
    """

    def __init__(self, pattern: str | None, level: str | None):
        self.pattern = pattern
        self.level = level

    def __call__(self, batch: pa.Table) -> pa.Table:
        lines = line_column(batch)
        mask = pc.and_kleene(pc.is_valid(lines), pc.not_equal(lines, ""))
        if self.level is not None:
            mask = pc.and_(mask, kernels.level_mask(kernels.extract_level(lines), self.level))
        if self.pattern is not None:
            mask = pc.and_(mask, kernels.pattern_mask(lines, self.pattern))
        n = pc.sum(mask).as_py() or 0
        return pa.table({"n": pa.array([n], type=pa.int64())})
