"""The four benchmark workloads: deployment set-up, seeded requests, answer checks.

Every workload drives one deployment from a single closed-loop client (one
request in flight).  Requests come in *passes*: a TPC-H pass is every
evaluated query under every configuration of the workload, in a seeded
order; a GDPR pass is one read per workbench scenario plus owner reads
and writes, with seeded parameters, in a seeded order.  The program under test receives only the generated SQL.

Answers are checked outside the timed requests:

* TPC-H: against a reference computed before the timed phase by the
  single-node row-path ``hons`` engine (a plain paged database loaded by
  the same dbgen seed).  Rows are compared sorted and exactly, except on
  the sharded workload, whose partial -> final aggregation may sum floats
  in another order.
* GDPR: every write is replayed on (an in-memory copy of) the workbench's
  unprotected baseline database;
  owner reads must equal the baseline, consumer reads the baseline
  filtered by the policy's expiry and reuse-bit conditions.
"""

from __future__ import annotations

import math
import pickle
import random
from collections import Counter
from dataclasses import dataclass

from repro.bench import build_deployment
from repro.core import MANUAL_PARTITIONS, RunConfig
from repro.gdpr import EXEC_POLICY, GDPRWorkbench
from repro.gdpr.scenarios import PERSONS_DDL
from repro.shard import ShardedDeployment
from repro.sim import Meter
from repro.sql import memory_database, paged_database
from repro.sql.records import encode_row
from repro.storage import BlockDevice, Pager
from repro.tpch import ALL_QUERIES, EVALUATED_NUMBERS, load_tpch

#: TPC-H scale factor of every TPC-H workload.
SCALE_FACTOR = 0.0005
#: Persons in the GDPR table at set-up (inserts and deletes balance per pass).
GDPR_ROWS = 2000
#: Policy clock of every GDPR request: 10% of the seeded rows are expired.
GDPR_NOW = 5000
#: Seed of every GDPR workbench.  The workbench's rows do not depend on it;
#: it picks only key material, and the RSA prime search behind that costs
#: twice as much on some seeds as on others.  Holding it fixed keeps that
#: draw out of ``setup_s``; ``--seed`` drives the operation sequence.
GDPR_WORKBENCH_SEED = 7
#: Bit of ``reuse_map`` that records the consumer's consent.
CONSUMER_REUSE_BIT = 3
#: Relative tolerance for float cells on the sharded workload only.
SHARDED_FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Request:
    """One generated request: what the client sends, and how to check it."""

    kind: str  # TPC-H: the configuration; GDPR: the operation type
    label: str
    sql: str
    is_write: bool = False
    #: GDPR: the principal issuing the request ("alice" owns, "bob" consumes).
    client: str = ""
    #: GDPR: statement run on the baseline database to check or replay.
    baseline_sql: str = ""
    #: GDPR inserts: the inserted values, replayed with the consent stamp.
    values: str = ""
    #: GDPR consumer reads: "rows" (project), "count" or "count_by_first"
    #: (count grouped by the first column).
    shape: str = "rows"
    #: GDPR: execution policy the request is admitted under, if any.
    exec_policy: str | None = None
    #: GDPR writes: person whose row the write creates or changes.
    person_id: int = -1


@dataclass
class Outcome:
    """What one request returned, and what it cost."""

    rows: list
    sim_ms: float
    #: Meters the program filled for this request.
    meters: tuple[Meter, ...]
    rowcount: int = 0
    #: Wall seconds, measured around the call by ``run.run_requests``.
    wall_s: float = 0.0
    #: Factor to the reference machine speed (``probe.scale``); 1 if unprobed.
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Wall seconds at the reference machine speed."""
        return self.wall_s * self.scale

    def pack(self) -> None:
        """Hold the rows pickled, a fifth of their memory, until checked.

        Kept as Python objects, the answers of a timed phase grow with the
        number of requests the machine's speed fits into the run, and
        would move ``peak_rss_mb`` with it.
        """
        self.rows = pickle.dumps(self.rows, pickle.HIGHEST_PROTOCOL)

    def unpack(self) -> None:
        self.rows = pickle.loads(self.rows)


# ---------------------------------------------------------------------------
# Row comparison
# ---------------------------------------------------------------------------


def _sort_key(row: tuple) -> tuple:
    """Order rows of mixed types (None, numbers, strings, dates) stably."""
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, float):
            key.append((1, f"{value:.6e}"))
        else:
            key.append((2, repr(value)))
    return tuple(key)


def same_rows(got: list, expected: list, rtol: float = 0.0) -> bool:
    """Sorted comparison; floats within *rtol* when it is non-zero."""
    if len(got) != len(expected):
        return False
    if not rtol:
        return sorted(got, key=_sort_key) == sorted(expected, key=_sort_key)
    for a, b in zip(sorted(got, key=_sort_key), sorted(expected, key=_sort_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if x is None or y is None or not math.isclose(x, y, rel_tol=rtol, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


# ---------------------------------------------------------------------------
# TPC-H workloads
# ---------------------------------------------------------------------------


class TpchWorkload:
    """The evaluated TPC-H queries under one or more configurations."""

    def __init__(self, name: str, seed: int, *, configs, run_config: RunConfig,
                 shards: int = 1, manual: bool = True):
        self.name = name
        self.seed = seed
        self.configs = tuple(configs)
        self.run_config = run_config
        self.shards = shards
        self.manual = manual
        self.float_rtol = SHARDED_FLOAT_RTOL if shards > 1 else 0.0
        self._order = random.Random(f"{name}:{seed}")
        self._reference: dict[int, list] = {}
        self._logical_bytes = 0

    def build(self):
        """Build, load and attest the deployment (timed as ``setup_s``)."""
        if self.shards > 1:
            deployment = ShardedDeployment(
                shards=self.shards, scale_factor=SCALE_FACTOR, seed=self.seed
            )
            deployment.attest_all()
            return deployment
        return build_deployment(SCALE_FACTOR, seed=self.seed)

    def prepare(self) -> None:
        """Reference answers and logical row bytes, outside every timing."""
        reference = paged_database(Pager(BlockDevice("reference")))
        load_tpch(reference, scale_factor=SCALE_FACTOR, seed=self.seed)
        self._reference = {
            number: reference.execute(ALL_QUERIES[number].sql).rows
            for number in EVALUATED_NUMBERS
        }
        self._logical_bytes = sum(
            len(encode_row(row))
            for table in reference.table_names()
            for row in reference.execute(f"SELECT * FROM {table}").rows
        )

    def next_pass(self) -> list[Request]:
        requests = [
            Request(kind=config, label=f"Q{number}", sql=ALL_QUERIES[number].sql)
            for config in self.configs
            for number in EVALUATED_NUMBERS
        ]
        self._order.shuffle(requests)
        return requests

    def warmup_requests(self) -> list[Request]:
        """One cheap query per configuration, run untimed before the phase."""
        return [
            Request(kind=config, label="Q6", sql=ALL_QUERIES[6].sql)
            for config in self.configs
        ]

    def execute(self, deployment, request: Request) -> Outcome:
        kwargs = {"run_config": self.run_config}
        number = int(request.label[1:])
        if self.manual and request.kind in ("scs", "vcs") and number in MANUAL_PARTITIONS:
            kwargs["manual_partition"] = MANUAL_PARTITIONS[number]
        result = deployment.run_query(request.sql, request.kind, **kwargs)
        return Outcome(result.rows, result.total_ms, (result.storage_meter, result.host_meter))

    def check(self, deployment, pairs) -> tuple[list[str], int]:
        """Mismatch descriptions, and logical bytes written (none here)."""
        failures = []
        for request, outcome in pairs:
            expected = self._reference[int(request.label[1:])]
            if not same_rows(outcome.rows, expected, self.float_rtol):
                failures.append(
                    f"{request.kind} {request.label}: {len(outcome.rows)} rows differ "
                    f"from the hons reference ({len(expected)} rows)"
                )
        return failures, 0

    def devices(self, deployment, *, secure_only: bool) -> list[BlockDevice]:
        nodes = getattr(deployment, "nodes", None)
        if nodes is None:
            pairs = [(deployment.secure_device, deployment.plain_device)]
        else:
            pairs = [(node.secure_device, node.plain_device) for node in nodes]
        if secure_only:
            return [secure for secure, _ in pairs]
        return [device for pair in pairs for device in pair]

    def logical_bytes(self, deployment) -> int:
        return self._logical_bytes


# ---------------------------------------------------------------------------
# GDPR read/write workload
# ---------------------------------------------------------------------------

_COUNTRIES = ("DE", "FR", "PT", "UK", "US")
_PERSONS_COLUMNS = "person_id, name, email, country, salary"
#: Operations in one pass, each once.  The shares are chosen, not taken
#: from a trace (neither the repo nor the paper has a GDPR request trace):
#: one consumer read shaped after each of the five ``GDPRWorkbench``
#: scenarios, the owner's own unfiltered read that every scenario compares
#: against, and one of each owner write -- the consent-stamped insert,
#: erasure by ``DELETE``, erasure by expiry, and consent withdrawal (the
#: reuse bit the indiscriminate-use scenario reads).  Inserts and deletes
#: balance, so the table keeps its size however many passes a run makes.
GDPR_PASS_MIX = (
    "timely_deletion",
    "indiscriminate_use",
    "transparent_sharing",
    "risk_agnostic",
    "data_breaches",
    "owner_read",
    "insert",
    "delete",
    "expire",
    "withdraw_consent",
)
#: How a consumer read's baseline rows become the consumer's answer.
_CONSUMER_SHAPES = {
    "timely_deletion": "rows",
    "indiscriminate_use": "count",
    "transparent_sharing": "rows",
    "risk_agnostic": "count_by_first",
    "data_breaches": "rows",
}


class GdprWorkload:
    """The workbench scenarios as consumer reads, plus owner reads and writes."""

    name = "gdpr_rw"

    def __init__(self, seed: int):
        self._rng = random.Random(f"gdpr_rw:{seed}")
        self._live = list(range(GDPR_ROWS))
        self._next_id = GDPR_ROWS
        self._warmup = [self._make("timely_deletion"), self._make("owner_read")]
        self._baseline = None
        self._baseline_of = None

    def build(self) -> GDPRWorkbench:
        return GDPRWorkbench(seed=GDPR_WORKBENCH_SEED, rows=GDPR_ROWS)

    def prepare(self) -> None:
        """Nothing to precompute: the baseline lives in each workbench."""

    def warmup_requests(self) -> list[Request]:
        return self._warmup

    def next_pass(self) -> list[Request]:
        requests = [self._make(kind) for kind in GDPR_PASS_MIX]
        self._rng.shuffle(requests)
        return requests

    # -- request generation (a pure function of the seed) ------------------

    def _make(self, kind: str) -> Request:
        if kind in _CONSUMER_SHAPES:
            return self._consumer(kind)
        rng = self._rng
        if kind == "owner_read":
            low = rng.randrange(self._next_id)
            sql = (
                "SELECT person_id, name, country, salary, expiry_ts, reuse_map "
                f"FROM persons WHERE person_id BETWEEN {low} AND {low + 40}"
            )
            return Request(kind=kind, label=kind, client="alice", sql=sql, baseline_sql=sql)
        if kind == "insert":
            person = self._next_id
            self._next_id += 1
            self._live.append(person)
            values = (
                f"{person}, 'person-{person}', 'p{person}@example.com', "
                f"'{rng.choice(_COUNTRIES)}', {30_000 + rng.randrange(GDPR_ROWS)}.5"
            )
            return Request(
                kind=kind, label=kind, client="alice", is_write=True, person_id=person,
                sql=f"INSERT INTO persons ({_PERSONS_COLUMNS}) VALUES ({values})",
                values=values,
            )
        person = self._live[rng.randrange(len(self._live))]
        if kind == "delete":
            self._live.remove(person)
            sql = f"DELETE FROM persons WHERE person_id = {person}"
        elif kind == "withdraw_consent":
            sql = f"UPDATE persons SET reuse_map = 7 WHERE person_id = {person}"
        else:  # expire: erasure by making the record invisible to consumers
            sql = f"UPDATE persons SET expiry_ts = {GDPR_NOW - 1} WHERE person_id = {person}"
        return Request(
            kind=kind, label=kind, client="alice", is_write=True, person_id=person,
            sql=sql, baseline_sql=sql,
        )

    def _consumer(self, kind: str) -> Request:
        """The consumer (``bob``) query of one workbench scenario, seeded."""
        rng = self._rng
        exec_policy = None
        if kind == "timely_deletion":
            columns, where = "person_id, name", f"country = '{rng.choice(_COUNTRIES)}'"
        elif kind == "indiscriminate_use":
            columns, where = "count(*)", ""
        elif kind == "transparent_sharing":
            low = rng.randrange(self._next_id)
            columns, where = "name, email", f"person_id >= {low} AND person_id < {low + 10}"
        elif kind == "risk_agnostic":
            columns, where, exec_policy = "country, count(*)", "", EXEC_POLICY
        else:  # data_breaches
            columns = "email"
            where = f"person_id = {self._live[rng.randrange(len(self._live))]}"
        where = f" WHERE {where}" if where else ""
        sql = f"SELECT {columns} FROM persons{where}"
        if kind == "risk_agnostic":
            sql += " GROUP BY country"
        # The baseline returns the raw columns the consumer's answer is
        # computed from, followed by the two policy columns.
        raw = {"count": "person_id", "count_by_first": "country"}.get(_CONSUMER_SHAPES[kind], columns)
        return Request(
            kind=kind, label=kind, client="bob", sql=sql, exec_policy=exec_policy,
            baseline_sql=f"SELECT {raw}, expiry_ts, reuse_map FROM persons{where}",
            shape=_CONSUMER_SHAPES[kind],
        )

    # -- execution and checks -------------------------------------------------

    def execute(self, workbench: GDPRWorkbench, request: Request) -> Outcome:
        key = workbench.alice if request.client == "alice" else workbench.bob
        result, breakdown, _auth = workbench.run_ironsafe(
            request.sql, key, now=GDPR_NOW, exec_policy=request.exec_policy
        )
        return Outcome(
            result.rows, breakdown.total_ms, (workbench.deployment.storage_engine.meter,),
            rowcount=result.rowcount,
        )

    def check(self, workbench: GDPRWorkbench, pairs) -> tuple[list[str], int]:
        """Replay on the baseline in request order; compare every answer.

        Returns the mismatches and the logical bytes of the rows the
        writes created or changed (the denominator of write amplification).
        """
        baseline = self._baseline_for(workbench)
        policy = workbench.policy
        failures = []
        logical = 0
        for request, outcome in pairs:
            if request.is_write:
                if request.kind == "insert":
                    # The monitor consent-stamps owner inserts; the replay
                    # writes the policy's stamp out itself.
                    replay = (
                        f"INSERT INTO persons ({_PERSONS_COLUMNS}, expiry_ts, reuse_map) "
                        f"VALUES ({request.values}, "
                        f"{GDPR_NOW + policy.default_ttl}, {policy.default_reuse_map})"
                    )
                else:
                    replay = request.baseline_sql
                expected_count = baseline.execute(replay).rowcount
                if outcome.rowcount != expected_count:
                    failures.append(
                        f"{request.label} person {request.person_id}: "
                        f"{outcome.rowcount} rows changed, baseline {expected_count}"
                    )
                logical += sum(
                    len(encode_row(row))
                    for row in baseline.execute(
                        f"SELECT * FROM persons WHERE person_id = {request.person_id}"
                    ).rows
                )
                continue
            raw = baseline.execute(request.baseline_sql).rows
            if request.client == "alice":
                expected = raw
            else:
                expected = _consumer_view(raw, request.shape)
            if not same_rows(outcome.rows, expected):
                failures.append(
                    f"{request.label} ({request.client}): {len(outcome.rows)} rows, "
                    f"baseline expects {len(expected)}: {request.sql}"
                )
        return failures, logical

    def _baseline_for(self, workbench: GDPRWorkbench):
        """An in-memory copy of the workbench's unprotected baseline database.

        Made once per workbench, before its first check, so replaying and
        querying it stays cheap next to the requests it checks.
        """
        if self._baseline_of is not workbench:
            baseline = memory_database()
            baseline.execute(PERSONS_DDL)
            baseline.store.insert_rows(
                "persons", workbench.baseline_db.execute("SELECT * FROM persons").rows
            )
            self._baseline, self._baseline_of = baseline, workbench
        return self._baseline

    def devices(self, workbench: GDPRWorkbench, *, secure_only: bool) -> list[BlockDevice]:
        return [workbench.deployment.secure_device]

    def logical_bytes(self, workbench: GDPRWorkbench) -> int:
        return sum(
            len(encode_row(row))
            for row in self._baseline_for(workbench).execute("SELECT * FROM persons").rows
        )


def _consumer_view(raw: list, shape: str) -> list:
    """Apply the consumer's policy to baseline rows ending in (expiry, reuse).

    Visible rows have not expired (``expiry_ts > now``) and carry the
    consumer's consent bit in ``reuse_map``.
    """
    visible = [
        row[:-2]
        for row in raw
        if row[-2] is not None and row[-2] > GDPR_NOW
        and row[-1] is not None and (row[-1] >> CONSUMER_REUSE_BIT) & 1
    ]
    if shape == "count":
        return [(len(visible),)]
    if shape == "count_by_first":
        return list(Counter(row[0] for row in visible).items())
    return visible


def make_workload(name: str, seed: int):
    if name == "tpch_scs":
        return TpchWorkload(name, seed, configs=("scs",), run_config=RunConfig())
    if name == "tpch_sharded_vec":
        return TpchWorkload(
            name, seed, configs=("scs",), shards=2, manual=False,
            run_config=RunConfig(vectorized=True, zone_maps=True, strategy="auto"),
        )
    if name == "tpch_baselines":
        return TpchWorkload(
            name, seed, configs=("hons", "hos", "vcs", "sos"), run_config=RunConfig()
        )
    if name == "gdpr_rw":
        return GdprWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tpch_scs", "tpch_sharded_vec", "tpch_baselines", "gdpr_rw")
