"""Per-layer metrics of the traced run, and the traced-run self-checks.

Times are self times (span duration minus child spans) averaged per
traced request, except ``host.exec_ms``, which is the inclusive time of
host-side query execution.  Counts are per request too, and come from the
requests' own meters where the program keeps one (``RunResult`` meters;
the storage engine's meter for GDPR requests); rows decoded, keystream
bytes and batch bytes are counted at the wrapped call.
"""

from __future__ import annotations

from repro.sim import Meter

PER_LAYER = (
    ("sql.parse_us", "us/req"),
    ("sql.plan_us", "us/req"),
    ("sql.exec_self_ms", "ms/req"),
    ("monitor.admit_ms", "ms/req"),
    ("monitor.admits", "count/req"),
    ("crypto.keystream_ms", "ms/req"),
    ("crypto.keystream_mb_per_s", "MB/s"),
    ("securepager.read_self_ms", "ms/req"),
    ("securepager.read_us_per_page", "us/page"),
    ("securepager.pages_read", "pages/req"),
    ("securepager.write_self_ms", "ms/req"),
    ("securepager.pages_written", "pages/req"),
    ("securepager.commit_ms", "ms/req"),
    ("securepager.open_ms", "ms/req"),
    ("merkle.verify_ms", "ms/req"),
    ("merkle.nodes_hashed", "count/req"),
    ("device.bytes_read", "B/req"),
    ("device.bytes_written", "B/req"),
    ("device.write_amp", "ratio"),
    ("records.page_decode_ms", "ms/req"),
    ("records.rows_decoded", "rows/req"),
    ("records.decode_rows_per_s", "rows/s"),
    ("records.batch_encode_ms", "ms/req"),
    ("records.batch_decode_ms", "ms/req"),
    ("records.batch_mb_per_s", "MB/s"),
    ("vector.morsels_from_rows_ms", "ms/req"),
    ("stores.prune_ratio", "ratio"),
    ("stores.replace_rows_self_ms", "ms/req"),
    ("stores.insert_rows_self_ms", "ms/req"),
    ("channel.send_ms", "ms/req"),
    ("channel.recv_ms", "ms/req"),
    ("channel.bytes", "B/req"),
    ("storage_engine.scan_self_ms", "ms/req"),
    ("host.ingest_ms", "ms/req"),
    ("host.exec_ms", "ms/req"),
    ("optimizer.choose_ms", "ms/req"),
    ("optimizer.plans_considered", "count/req"),
    ("shard.scan_fanout", "count/req"),
    ("shard.shards_pruned", "count/req"),
    ("deployment.unattributed_ms", "ms/req"),
    ("trace.overhead_pct", "%"),
)

#: Span name behind each self-time metric (value in ms per request).
SELF_TIME_SPANS = {
    "sql.exec_self_ms": "sql.exec",
    "monitor.admit_ms": "monitor.admit",
    "crypto.keystream_ms": "crypto.keystream",
    "securepager.read_self_ms": "securepager.read",
    "securepager.write_self_ms": "securepager.write",
    "securepager.commit_ms": "securepager.commit",
    "securepager.open_ms": "securepager.open",
    "merkle.verify_ms": "merkle.verify",
    "records.page_decode_ms": "records.page_decode",
    "records.batch_encode_ms": "records.batch_encode",
    "records.batch_decode_ms": "records.batch_decode",
    "vector.morsels_from_rows_ms": "vector.morsels_from_rows",
    "stores.replace_rows_self_ms": "stores.replace_rows",
    "stores.insert_rows_self_ms": "stores.insert_rows",
    "channel.send_ms": "channel.send",
    "channel.recv_ms": "channel.recv",
    "storage_engine.scan_self_ms": "storage_engine.scan",
    "host.ingest_ms": "host.ingest",
    "optimizer.choose_ms": "optimizer.choose",
    "deployment.unattributed_ms": "request",
}

#: Metrics each workload must read non-zero: its "mostly on" layers.
#: ``shard.shards_pruned`` is left out: whether zone maps rule out a whole
#: shard depends on the seed's data (about half the seeds prune none).
MOSTLY_ON = {
    "tpch_scs": (
        "sql.parse_us", "sql.plan_us", "monitor.admit_ms", "monitor.admits",
        "crypto.keystream_ms", "securepager.read_self_ms", "securepager.pages_read",
        "merkle.verify_ms", "merkle.nodes_hashed", "device.bytes_read",
        "records.page_decode_ms", "records.rows_decoded", "records.batch_encode_ms",
        "records.batch_decode_ms", "channel.send_ms", "channel.recv_ms",
        "channel.bytes", "storage_engine.scan_self_ms", "host.ingest_ms",
        "host.exec_ms", "deployment.unattributed_ms",
    ),
    "tpch_sharded_vec": (
        "vector.morsels_from_rows_ms", "stores.prune_ratio", "optimizer.choose_ms",
        "optimizer.plans_considered", "shard.scan_fanout",
        "records.page_decode_ms", "records.rows_decoded",
        "records.batch_encode_ms", "records.batch_decode_ms", "host.ingest_ms",
        "host.exec_ms", "storage_engine.scan_self_ms",
    ),
    "tpch_baselines": (
        "securepager.open_ms", "securepager.read_self_ms", "records.page_decode_ms",
        "records.rows_decoded", "sql.exec_self_ms",
    ),
    "gdpr_rw": (
        "sql.parse_us", "sql.plan_us", "monitor.admit_ms", "monitor.admits",
        "crypto.keystream_ms", "securepager.write_self_ms", "securepager.pages_written",
        "securepager.commit_ms", "device.bytes_read", "device.bytes_written",
        "device.write_amp",
        "stores.replace_rows_self_ms", "stores.insert_rows_self_ms",
    ),
}

#: Configurations that run no page or channel crypto at all.
NO_CRYPTO_CONFIGS = ("hons", "vcs")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _self_ns_by_name(recorder) -> dict[str, int]:
    out: dict[str, int] = {}
    for (_request, name), ns in recorder.self_ns().items():
        out[name] = out.get(name, 0) + ns
    return out


def layer_metrics(recorder, traced, *, bytes_read: int, bytes_written: int,
                  logical_written: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric from the spans and meters of the traced phase."""
    n = traced.attempted
    self_ns = _self_ns_by_name(recorder)
    totals = recorder.totals()
    meter = Meter()
    for _request, outcome in traced.pairs:
        for part in outcome.meters:
            meter.merge(part)

    def ms(span: str) -> float:
        return self_ns.get(span, 0) / 1e6 / n

    def total(span: str, field: int) -> int:
        return totals[span][field] if span in totals else 0

    out = {metric: ms(span) for metric, span in SELF_TIME_SPANS.items()}
    keystream_ns = self_ns.get("crypto.keystream", 0)
    decode_ns = self_ns.get("records.page_decode", 0)
    batch_ns = self_ns.get("records.batch_encode", 0) + self_ns.get("records.batch_decode", 0)
    batch_bytes = total("records.batch_encode", 2) + total("records.batch_decode", 2)
    rows_decoded = total("records.page_decode", 2)
    pages_read = meter.page_macs_verified
    zone_pages = meter.get("pages_scanned") + meter.get("pages_skipped")
    out.update({
        "sql.parse_us": ms("sql.parse") * 1000,
        "sql.plan_us": ms("sql.plan") * 1000,
        "monitor.admits": total("monitor.admit", 0) / n,
        "crypto.keystream_mb_per_s": _ratio(total("crypto.keystream", 2) / 1e6, keystream_ns / 1e9),
        "securepager.read_us_per_page": _ratio(
            self_ns.get("securepager.read", 0) / 1e3, pages_read
        ),
        "securepager.pages_read": pages_read / n,
        "securepager.pages_written": meter.pages_encrypted / n,
        "merkle.nodes_hashed": meter.merkle_nodes_hashed / n,
        "device.bytes_read": bytes_read / n,
        "device.bytes_written": bytes_written / n,
        "device.write_amp": _ratio(bytes_written, logical_written),
        "records.rows_decoded": rows_decoded / n,
        "records.decode_rows_per_s": _ratio(rows_decoded, decode_ns / 1e9),
        "records.batch_mb_per_s": _ratio(batch_bytes / 1e6, batch_ns / 1e9),
        "stores.prune_ratio": _ratio(meter.get("pages_skipped"), zone_pages),
        "channel.bytes": meter.channel_bytes_encrypted / n,
        "host.exec_ms": total("host.exec", 1) / 1e6 / n,
        "optimizer.plans_considered": meter.get("optimizer_plans_considered") / n,
        "shard.scan_fanout": meter.get("shard_scan_fanout") / n,
        "shard.shards_pruned": meter.get("shards_pruned") / n,
        "trace.overhead_pct": overhead * 100,
    })
    return out


def layer_shares(recorder) -> list[tuple[str, float]]:
    """Each span name's share of all traced request wall time (self times)."""
    self_ns = _self_ns_by_name(recorder)
    wall = sum(self_ns.values())
    return sorted(((name, ns / wall) for name, ns in self_ns.items()),
                  key=lambda item: -item[1])


def self_check(workload: str, plain, traced, recorder, metrics) -> list[str]:
    """Tracing must change nothing, and every wrapper must see its layer."""
    problems = []
    if [r.sql for r in plain.requests] != [r.sql for r in traced.requests]:
        problems.append("self-check: traced phase ran other requests than the untraced one")
    for index, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes)):
        if a is None or b is None:
            continue
        if a.rows != b.rows:
            problems.append(f"self-check: request {index} returned other rows when traced")
        if a.sim_ms != b.sim_ms:
            problems.append(
                f"self-check: request {index} took {b.sim_ms!r} sim-ms traced, "
                f"{a.sim_ms!r} untraced"
            )
    for metric in MOSTLY_ON.get(workload, ()):
        if not metrics[metric] > 0:
            problems.append(f"self-check: {metric} reads {metrics[metric]} on {workload}")
    crypto_requests = {
        request
        for (request, name), _ in recorder.self_ns().items()
        if name in ("crypto.keystream", "merkle.verify")
    }
    for index, request in enumerate(traced.requests):
        if request.kind in NO_CRYPTO_CONFIGS and index in crypto_requests:
            problems.append(
                f"self-check: {request.kind} request {index} ({request.label}) ran "
                "keystream or Merkle work"
            )
    return problems
