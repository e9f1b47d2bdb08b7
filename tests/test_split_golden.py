"""Golden pin of the split-execution path (vcs / scs).

Every run of the matrix below is reduced to one canonical record — a
digest of the sorted rows, every field of the storage, host and
per-portion meters, each time breakdown per category (as ``float.hex``),
the bytes shipped, the plan notes, the observable-trace fingerprint and
the span tree (name, parent, simulated ns, status; never wall time) —
and the record's SHA-256 is compared with ``tests/data/split_golden.json``.

The identity tests elsewhere compare two runs of the *same* code, so a
refactor that moves simulated nanoseconds in both runs alike passes them.
This file pins the numbers themselves: any drift in rows, meters, sim-ns
or traces fails here.  After a deliberate, documented cost-model change,
regenerate the pin with::

    PYTHONPATH=src python tests/test_split_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import MANUAL_PARTITIONS, Deployment, RunConfig
from repro.shard import ShardedDeployment
from repro.tpch import ALL_QUERIES

GOLDEN = Path(__file__).with_name("data") / "split_golden.json"
SF = 0.001
SEED = 7
KINDS = ("single", "sharded2")


def _build(kind: str) -> Deployment:
    if kind == "single":
        deployment = Deployment(scale_factor=SF, seed=SEED)
    else:
        deployment = ShardedDeployment(shards=2, scale_factor=SF, seed=SEED)
    deployment.attest_all()
    deployment.enable_observability()
    return deployment


def _arms():
    """``(label, sql, config, run_query kwargs)`` in run order."""
    q3 = ALL_QUERIES[3].sql
    for config in ("vcs", "scs"):
        for pipeline in (False, True):
            for oblivious in ("off", "padded", "full"):
                for vectorized in (False, True):
                    for zone_maps in (False, True):
                        knobs = RunConfig(
                            pipeline=pipeline, oblivious=oblivious,
                            vectorized=vectorized, zone_maps=zone_maps,
                        )
                        label = (
                            f"{config}/pipeline={int(pipeline)}/obl={oblivious}"
                            f"/vec={int(vectorized)}/zm={int(zone_maps)}"
                        )
                        yield label, q3, config, {"run_config": knobs}
    for number in (13, 21):
        for pipeline in (False, True):
            yield (
                f"scs/manual-q{number}/pipeline={int(pipeline)}",
                ALL_QUERIES[number].sql, "scs",
                {"manual_partition": MANUAL_PARTITIONS[number],
                 "run_config": RunConfig(pipeline=pipeline)},
            )
    yield "scs/compress", q3, "scs", {"run_config": RunConfig(compress=True)}
    for pipeline in (False, True):
        yield (
            f"scs/cpus=1/pipeline={int(pipeline)}", q3, "scs",
            {"storage_cpus": 1, "run_config": RunConfig(pipeline=pipeline)},
        )


def _meter(meter) -> dict:
    out = {
        f.name: getattr(meter, f.name)
        for f in dataclasses.fields(meter) if f.name != "extra"
    }
    out["extra"] = dict(sorted(meter.extra.items()))
    return out


def _breakdown(breakdown) -> dict:
    return {
        "total": float(breakdown.total_ns).hex(),
        "by_category": {
            category: float(ns).hex()
            for category, ns in sorted(breakdown.by_category.items())
        },
    }


def _span_tree(trace) -> list:
    index = {span.span_id: i for i, span in enumerate(trace.spans)}
    return [
        [span.name, index.get(span.parent_id), float(span.sim_ns).hex(), span.status]
        for span in trace.spans
    ]


def _record(deployment, result) -> dict:
    rows = "\n".join(sorted(repr(row) for row in result.rows))
    return {
        "rows": hashlib.sha256(rows.encode()).hexdigest(),
        "columns": list(result.columns),
        "storage_meter": _meter(result.storage_meter),
        "host_meter": _meter(result.host_meter),
        "portion_meters": [_meter(m) for m in result.portion_meters],
        "breakdown": _breakdown(result.breakdown),
        "storage_breakdown": _breakdown(result.storage_breakdown),
        "host_breakdown": _breakdown(result.host_breakdown),
        "monitor_breakdown": _breakdown(result.monitor_breakdown),
        "bytes_shipped": result.bytes_shipped,
        "plan_notes": list(result.plan_notes),
        "observable": deployment._obsv.last_trace().fingerprint(),
        "spans": _span_tree(deployment.tracer.last_trace()),
    }


def run_matrix(kind: str) -> dict[str, dict]:
    """Run every arm on a fresh deployment of *kind*; label → summary."""
    deployment = _build(kind)
    out: dict[str, dict] = {}
    for label, sql, config, kwargs in _arms():
        result = deployment.run_query(sql, config, **kwargs)
        record = _record(deployment, result)
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        out[f"{kind}/{label}"] = {
            "digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "total_ns": record["breakdown"]["total"],
            "rows": len(result.rows),
            "bytes_shipped": result.bytes_shipped,
        }
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_split_path_matches_golden(kind):
    golden = json.loads(GOLDEN.read_text())["runs"]
    expected = {k: v for k, v in golden.items() if k.startswith(f"{kind}/")}
    got = run_matrix(kind)
    assert sorted(got) == sorted(expected)
    drifted = [label for label in got if got[label] != expected[label]]
    assert not drifted, (
        f"{len(drifted)} of {len(got)} runs drifted from the golden pin: "
        + ", ".join(drifted[:8])
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_split_golden.py --regen")
    runs: dict[str, dict] = {}
    for kind in KINDS:
        runs.update(run_matrix(kind))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")
