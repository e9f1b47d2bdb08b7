"""Span tracing for the traced run, from outside the program.

:func:`install` wraps the public entry points of each layer and records
one span per call: name, start, end, parent span and request id.  Spans
stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Functions are wrapped at every ``repro.*`` module binding that refers to
them, so a caller that imported the function by name (``from ..sql.parser
import parse``) is traced too.  Generators are timed while they are
iterated, one span per item, not when they are created.  :func:`install`
returns a callable that puts every original back.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

from repro.core import HostEngine, SecureChannel, StorageEngine
from repro.monitor import TrustedMonitor
from repro.shard import OffloadOptimizer
from repro.sql import Database, PagedStore
from repro.sql.planner import Planner
from repro.storage import MerkleTree, SecurePager

#: Span of one whole request, opened by the benchmark around each call.
REQUEST = "request"


class SpanRecorder:
    """In-memory span store; a span is ``[name, start, end, parent, request, amount]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request, 0])
        self._stack.append(index)
        return index

    def begin_request(self, request: int) -> int:
        """Open the root span of request number *request*."""
        self.request = request
        return self.begin(REQUEST)

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    # -- analysis -------------------------------------------------------------

    def self_ns(self) -> dict[tuple[int, str], int]:
        """Self time per (request, span name)."""
        out: dict[tuple[int, str], int] = defaultdict(int)
        spans = self.spans
        for name, start, end, parent, request, _ in spans:
            duration = end - start
            out[request, name] += duration
            if parent >= 0:
                out[request, spans[parent][0]] -= duration
        return out

    def totals(self) -> dict[str, list[int]]:
        """Per span name: [calls, inclusive ns of outermost spans, amount]."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        spans = self.spans
        for name, start, end, parent, _request, amount in spans:
            entry = out[name]
            entry[0] += 1
            entry[2] += amount
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry[1] += end - start
        return out


def _timed(recorder: SpanRecorder, name: str, fn, amount=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if amount is not None:
            recorder.spans[index][5] = amount(args, result)
        return result

    return wrapper


def _timed_iteration(recorder: SpanRecorder, name: str, iterator):
    """Yield from *iterator*, one span per ``next``."""
    iterator = iter(iterator)
    while True:
        index = recorder.begin(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            recorder.end(index)
        yield item


def _timed_generator(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_iteration(recorder, name, fn(*args, **kwargs))

    return wrapper


def _timed_stream(recorder: SpanRecorder, name: str, fn):
    """Time a call returning ``(columns, iterator)`` and then the iteration."""
    call = _timed(recorder, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        columns, batches = call(*args, **kwargs)
        return columns, _timed_iteration(recorder, name, batches)

    return wrapper


def _first_arg_len(args, _result) -> int:
    return len(args[0])


def _data_len(args, _result) -> int:
    return len(args[2])


def _result_len(_args, result) -> int:
    return len(result)


def install(recorder: SpanRecorder):
    """Wrap every traced entry point; returns the function that unwraps them."""
    undo: list[tuple[object, str, object]] = []

    # An entry point that no longer exists is skipped, not fatal: the
    # MOSTLY_ON self-check reports a layer that lost all of its spans.
    def wrap_function(module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            return
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def wrap_method(cls, attr: str, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def timed(name, amount=None):
        return lambda fn: _timed(recorder, name, fn, amount)

    wrap_function("repro.sql.parser", "parse", timed("sql.parse"))
    wrap_function("repro.crypto.stream", "hash_ctr_crypt", timed("crypto.keystream", _data_len))
    wrap_function("repro.sql.records", "unpack_page", timed("records.page_decode", _result_len))
    wrap_function("repro.sql.records", "encode_batch", timed("records.batch_encode", _result_len))
    wrap_function(
        "repro.sql.records", "decode_batch", timed("records.batch_decode", _first_arg_len)
    )
    wrap_function(
        "repro.sql.vector", "morsels_from_rows",
        lambda fn: _timed_generator(recorder, "vector.morsels_from_rows", fn),
    )

    wrap_method(TrustedMonitor, "authorize", timed("monitor.admit"))
    wrap_method(Planner, "plan_select", timed("sql.plan"))
    wrap_method(Database, "execute_statement", timed("sql.exec"))
    wrap_method(SecurePager, "__init__", timed("securepager.open"))
    wrap_method(SecurePager, "read_page", timed("securepager.read"))
    wrap_method(SecurePager, "read_pages", timed("securepager.read"))
    wrap_method(SecurePager, "write_page", timed("securepager.write"))
    wrap_method(SecurePager, "commit", timed("securepager.commit"))
    wrap_method(MerkleTree, "verify_leaf", timed("merkle.verify"))
    wrap_method(MerkleTree, "verify_leaves", timed("merkle.verify"))
    wrap_method(PagedStore, "insert_rows", timed("stores.insert_rows"))
    wrap_method(PagedStore, "replace_rows", timed("stores.replace_rows"))
    wrap_method(SecureChannel, "send", timed("channel.send"))
    wrap_method(SecureChannel, "receive", timed("channel.recv"))
    wrap_method(StorageEngine, "execute_scan", timed("storage_engine.scan"))
    wrap_method(StorageEngine, "execute_full", timed("storage_engine.scan"))
    for attr in ("stream_scan", "stream_sql"):
        wrap_method(
            StorageEngine, attr,
            lambda fn: _timed_stream(recorder, "storage_engine.scan", fn),
        )
    wrap_method(HostEngine, "ingest_batch", timed("host.ingest"))
    wrap_method(HostEngine, "receive_table", timed("host.ingest"))
    wrap_method(HostEngine, "run", timed("host.exec"))
    wrap_method(OffloadOptimizer, "choose", timed("optimizer.choose"))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
