"""Metric helpers of the benchmark: percentiles with a sample-count floor,
ratios that keep their base, failure counting, span self times, and the
derivation of every end-to-end and per-layer metric from a runner's raw
result. Pure functions; perfbench/test_metrics.py tests them."""

import statistics

# A percentile is reported only where at least this many samples lie
# beyond it; otherwise the highest percentile that has them is used.
MIN_BEYOND = 10


def percentile(values, q, min_beyond=MIN_BEYOND):
    """The q-quantile (0 < q < 1) of `values`, linearly interpolated.

    Returns {"value", "q", "n", "floor_met"}. When fewer than `min_beyond`
    samples lie beyond q, q drops to the highest quantile that has them
    (never below the median) and `floor_met` tells whether even that held.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    q_max = 1.0 - min_beyond / n
    q_used = min(q, max(q_max, 0.5))
    ordered = sorted(values)
    rank = q_used * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return {"value": value, "q": q_used, "n": n,
            "floor_met": n * (1.0 - q_used) >= min_beyond - 1e-9}


def ratio(numerator, denominator):
    """numerator / denominator with both kept as the ratio's base; the
    value is 0 when the base is empty (the layer did no such work)."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "numerator": numerator,
            "denominator": denominator}


def median(values):
    return statistics.median(values) if values else 0.0


class FailureCount:
    """Attempted vs failed operations. A failed operation is a transport
    error, a non-OK response (Unavailable included) or a wrong answer;
    wrong answers are also counted on their own, since they make the run
    incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add_tally(self, tally):
        """Adds a runner load tally (queries and appends)."""
        self.attempted += tally["queries_attempted"] + tally["appends_attempted"]
        self.failed += tally["queries_failed"] + tally["appends_failed"]
        self.wrong += tally["wrong_answers"]

    def add_check(self, ok):
        """One correctness probe (e.g. the appended-rows count); a failed
        probe is both a failed operation and a wrong answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self):
        return self.wrong == 0 and self.attempted > 0


def self_times(spans):
    """Span id -> self time in seconds: the span's duration minus the part
    of its interval that its children cover (overlapping children counted
    once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def rate(tally, clients):
    """Completed queries per second of a closed-loop window. The time the
    clients spent checking answers (benchmark work, summed over clients) is
    taken out of the window, spread over the clients."""
    busy = tally["window_s"] - tally.get("check_s", 0.0) / max(clients, 1)
    return len(tally["query_ms"]) / busy if busy > 0 else 0.0


# ---------------------------------------------------------------------------
# End-to-end metrics


def setup_totals(setups):
    return [s["generate_s"] + s["build_s"] + s["serve_start_s"] for s in setups]


def failures(raw):
    count = FailureCount()
    for phase in ("warmup", "load", "traced", "replay"):
        if phase in raw:
            count.add_tally(raw[phase])
    check = raw["append_check"]
    count.add_check(check["counted_rows"] == check["expected_rows"])
    return count


def end_to_end(raw):
    """(metrics, samples): metrics maps name -> (value, unit); samples maps
    each percentile metric to its percentile record."""
    load = raw["load"]
    p50 = percentile(load["query_ms"], 0.50)
    p95 = percentile(load["query_ms"], 0.95)
    # Append latency is reported at p95: on ingest_sharded it is bimodal
    # (about half the batches meet the wire stall), so its median jumps
    # between the modes from run to run. The median stays in the record.
    append_p50 = percentile(load["append_ms"], 0.50)
    append_p95 = percentile(load["append_ms"], 0.95)
    count = failures(raw)
    metrics = {
        "setup_s": (median(setup_totals(raw["setup"])), "s"),
        "query_p50_ms": (p50["value"], "ms"),
        "query_p95_ms": (p95["value"], "ms"),
        "queries_per_s": (rate(load, raw["query_clients"]), "1/s"),
        "append_rows_per_s": (
            ratio(load["rows_acked"], load["append_window_s"])["value"], "1/s"),
        "append_p95_ms": (append_p95["value"], "ms"),
        "append_write_amp": (
            ratio(load["dfs_bytes_written"],
                  load["text_bytes_acked"])["value"], "ratio"),
        "ok_ops_ratio": (1.0 - count.failed_ratio, "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    samples = {"query_p50_ms": p50, "query_p95_ms": p95,
               "append_p50_ms": append_p50, "append_p95_ms": append_p95}
    return metrics, samples


# ---------------------------------------------------------------------------
# Per-layer metrics

PER_LAYER_UNITS = {
    "server.wire_ms_p50": "ms",
    "server.wire_share": "ratio",
    "server.admission_wait_ms_p95": "ms",
    "query.parse_us_p50": "us",
    "query.execute_ms_p50": "ms",
    "query.records_read_per_match": "ratio",
    "exec.engine_self_ms_p50": "ms",
    "dgf.lookup_ms_p50": "ms",
    "dgf.cache_hit_ratio": "ratio",
    "dgf.gfus_per_query": "count",
    "dgf.inner_ratio": "ratio",
    "kv.entries_per_query": "count",
    "table.slice_read_ms_p50": "ms",
    "fs.preads_per_query": "count",
    "fs.bytes_read_per_query": "bytes",
    "table.bytes_per_record": "bytes",
    "coord.overhead_ms_p50": "ms",
    "coord.merge_ms_p50": "ms",
    "coord.shards_per_query": "count",
    "append.staging_s_per_batch": "s",
    "append.reorg_s_per_batch": "s",
    "append.calls_per_flush": "ratio",
    "fs.bytes_written_per_row": "bytes",
    "setup.generate_s": "s",
    "setup.build_s": "s",
    "setup.serve_start_s": "s",
    "bench.trace_overhead": "ratio",
}


def _durations(spans, name, scale):
    return [(s["end"] - s["start"]) * scale for s in spans if s["name"] == name]


def _by_request(spans):
    out = {}
    for span in spans:
        out.setdefault(span["request"], []).append(span)
    return out


def _attr_sum(spans, name, attr):
    return sum(s["attrs"].get(attr, 0.0) for s in spans if s["name"] == name)


def per_layer(raw, spans):
    """(metrics, samples, absent): metrics maps every PER_LAYER_UNITS name
    to (value, unit); a layer this workload does not have (or that cannot
    be reached from outside on it) reads 0 and is listed in `absent`."""
    values = {}
    samples = {}
    absent = []

    def put_percentile(name, data, q):
        if data:
            record = percentile(data, q)
            values[name] = record["value"]
            samples[name] = record
        else:
            values[name] = 0.0
            absent.append(name)

    def put_ratio(name, numerator, denominator):
        values[name] = ratio(numerator, denominator)["value"]
        samples[name] = {"numerator": numerator, "denominator": denominator}
        if not denominator:
            absent.append(name)

    selfs = self_times(spans)
    requests = _by_request(spans)

    # server: the rtt span's self time is the wire.
    rtts = [s for s in spans if s["name"] == "rtt"]
    wire = [selfs[s["id"]] * 1e3 for s in rtts]
    put_percentile("server.wire_ms_p50", wire, 0.5)
    rtt_ms = [(s["end"] - s["start"]) * 1e3 for s in rtts]
    if rtt_ms:
        put_ratio("server.wire_share", values["server.wire_ms_p50"],
                  percentile(rtt_ms, 0.5)["value"])
    else:
        put_ratio("server.wire_share", 0.0, 0.0)
    put_percentile("server.admission_wait_ms_p95",
                   _durations(spans, "server.admission_wait", 1e3), 0.95)

    # query / exec / dgf / kv / table / fs from the in-process replay.
    put_percentile("query.parse_us_p50", _durations(spans, "parse", 1e6), 0.5)
    put_percentile("query.execute_ms_p50",
                   _durations(spans, "execute", 1e3), 0.5)
    put_ratio("query.records_read_per_match",
              _attr_sum(spans, "execute", "records_read"),
              _attr_sum(spans, "execute", "records_matched"))
    engine = []
    for group in requests.values():
        names = {s["name"]: s for s in group}
        if {"execute", "lookup", "slice_read"} <= names.keys():
            dur = {k: names[k]["end"] - names[k]["start"]
                   for k in ("execute", "lookup", "slice_read")}
            engine.append((dur["execute"] - dur["lookup"] -
                           dur["slice_read"]) * 1e3)
    put_percentile("exec.engine_self_ms_p50", engine, 0.5)
    put_percentile("dgf.lookup_ms_p50", _durations(spans, "lookup", 1e3), 0.5)
    stats = raw["append_stats"]
    if raw["world"]["shards"] > 1:
        # The cluster replay runs after the appender stops; the serving
        # path's own counters over the window the appends ran in show the
        # misses their epoch bumps cause.
        hits = stats.get("cache.hits", 0.0)
        misses = stats.get("cache.misses", 0.0)
    else:
        hits = _attr_sum(spans, "execute", "cache_hits")
        misses = _attr_sum(spans, "execute", "cache_misses")
    put_ratio("dgf.cache_hit_ratio", hits, hits + misses)

    # GFU classification: the shadow lookups on a single node, the shard
    # registries' deltas (execute attrs) on the cluster.
    gfu_span = "lookup" if any(s["name"] == "lookup" for s in spans) else "execute"
    inner = _attr_sum(spans, gfu_span, "inner_gfus")
    boundary = _attr_sum(spans, gfu_span, "boundary_gfus")
    replayed = [g for g in requests.values()
                if any(s["name"] == "execute" for s in g)]
    put_ratio("dgf.gfus_per_query", inner + boundary, len(replayed))
    put_ratio("dgf.inner_ratio", inner, inner + boundary)
    put_ratio("kv.entries_per_query",
              _attr_sum(spans, "execute", "kv_entries"), len(replayed))
    put_percentile("table.slice_read_ms_p50",
                   _durations(spans, "slice_read", 1e3), 0.5)
    put_ratio("fs.preads_per_query",
              _attr_sum(spans, "execute", "preads"), len(replayed))
    put_ratio("fs.bytes_read_per_query",
              _attr_sum(spans, "execute", "dfs_bytes_read"), len(replayed))
    put_ratio("table.bytes_per_record",
              _attr_sum(spans, "execute", "bytes_read"),
              _attr_sum(spans, "execute", "records_read"))

    # coord: front rtt minus the slowest direct shard sub-query.
    overhead = []
    fanout = []
    for group in requests.values():
        front = [s for s in group if s["name"] == "rtt"]
        direct = [s["end"] - s["start"] for s in group
                  if s["name"] == "shard_direct"]
        rpcs = [s for s in group if s["name"].startswith("server.shard")
                and s["name"].endswith(".rpc")]
        if front and direct:
            overhead.append((front[0]["end"] - front[0]["start"] -
                             max(direct)) * 1e3)
        if front and rpcs:
            fanout.append(len(rpcs))
    put_percentile("coord.overhead_ms_p50", overhead, 0.5)
    put_percentile("coord.merge_ms_p50",
                   _durations(spans, "server.merge", 1e3), 0.5)
    put_ratio("coord.shards_per_query", sum(fanout), len(fanout))

    # append path: STATS deltas over the append window.
    flushes = stats.get("appends.flushes", 0.0)
    put_ratio("append.staging_s_per_batch",
              stats.get("appends.staging_s", 0.0), flushes)
    put_ratio("append.reorg_s_per_batch", stats.get("appends.reorg_s", 0.0),
              flushes)
    put_ratio("append.calls_per_flush", stats.get("appends.batches", 0.0),
              flushes)
    append_tally = raw["traced"] if raw["traced"]["rows_acked"] else raw["load"]
    put_ratio("fs.bytes_written_per_row", append_tally["dfs_bytes_written"],
              append_tally["rows_acked"])

    # set-up parts, and what the traced run cost.
    for part in ("generate_s", "build_s", "serve_start_s"):
        parts = [s[part] for s in raw["setup"]]
        values["setup." + part] = median(parts)
        if not any(parts):
            absent.append("setup." + part)
    untraced = rate(raw["load"], raw["query_clients"])
    if rtts:
        traced = rate(raw["traced"], raw["query_clients"])
    else:
        # The in-process replay also reruns the lookup and the slice reads
        # of every query; only its Execute calls match the untraced window.
        execute_s = _durations(spans, "execute", 1.0)
        traced = len(execute_s) / sum(execute_s) if execute_s else 0.0
    values["bench.trace_overhead"] = 1.0 - traced / untraced if untraced else 0.0
    samples["bench.trace_overhead"] = {"traced_qps": traced,
                                       "untraced_qps": untraced}

    metrics = {name: (values[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, samples, sorted(set(absent))
