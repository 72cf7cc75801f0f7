"""Per-layer tracing for the govsim benchmark, installed from outside.

The tracer wraps the public functions of each govsim module, and the public
methods of the layers' stateful classes, with span recorders. Modules import
one another's functions by name (`harness` binds `states_snapshot`,
`post_mortem`, `canonical` and more), so a wrapper is installed on every
module namespace that binds the function, not only on the defining module.

Hot leaf helpers get counters instead of spans: they run over 100k times per
op on read-heavy ledgers, where a span each would multiply the run time and
memory. Their time is part of the caller's self time.

Spans are kept in memory as (name, start_ns, end_ns, parent, op) tuples, where
parent is the index of the enclosing span or -1, and written out at the end.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Iterable, Iterator, Sequence

LAYERS = ("harness", "execution", "legislation", "ledger", "adjudication", "economy", "identity", "cli")
CLASSES = {
    "ledger": ("AuditLedger",),
    "legislation": ("TaskDAG",),
    "economy": ("Treasury",),
    "identity": ("IdentityRegistry",),
}
# The layer's own registry classes: their methods are named after the layer
# alone (`ledger.append`, `identity.register_agent`).
UNQUALIFIED = ("AuditLedger", "IdentityRegistry")
COUNTED = (
    "ledger.canonical",
    "ledger.record_digest",
    "ledger.payload_digest",
    "ledger.payload",
    "ledger.record",
)
VERIFIED_RECORDS = "ledger.verify_chain.records"


def _targets() -> dict[object, tuple[str, object, str]]:
    """original function -> (traced name, owner class or None, attribute)."""
    found: dict[object, tuple[str, object, str]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"govsim.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                found[obj] = (f"{layer}.{attr}", None, attr)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            prefix = layer if cls_name in UNQUALIFIED else f"{layer}.{cls_name}"
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    found[obj] = (f"{prefix}.{attr}", cls, attr)
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self._targets = _targets()
        self._namespaces = [importlib.import_module("govsim")] + [
            importlib.import_module(f"govsim.{layer}") for layer in LAYERS
        ]

    def _wrap(self, fn, name: str, op: int, counts: Counter, stack: list[int]):
        spans = self.spans
        clock = time.perf_counter_ns
        if name in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        call = fn
        if name == "ledger.verify_chain":

            def call(ledger, from_seq=0, to_seq=None):
                last = len(ledger) - 1 if to_seq is None else to_seq
                counts[VERIFIED_RECORDS] += max(0, last - from_seq + 1)
                return fn(ledger, from_seq, to_seq)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, op)
                stack.pop()

        return spanned

    @contextlib.contextmanager
    def op(self, op: int) -> Iterator[None]:
        """Trace one op: install wrappers with fresh counters, then restore."""
        counts = self.counts[op] = Counter()
        stack: list[int] = []
        wrappers = {
            fn: self._wrap(fn, name, op, counts, stack) for fn, (name, _, _) in self._targets.items()
        }
        patched: list[tuple[object, str, object]] = []
        for namespace in self._namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((namespace, attr, obj))
        for fn, (_, owner, attr) in self._targets.items():
            if owner is not None:
                patched.append((owner, attr, fn))
        for owner, attr, fn in patched:
            setattr(owner, attr, wrappers[fn])
        try:
            yield
        finally:
            for owner, attr, fn in patched:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: Sequence[tuple]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def profile(spans: Sequence[tuple], ops: Iterable[int]) -> dict[int, dict[str, dict[str, float]]]:
    """Per op: span name -> calls, total seconds and self seconds."""
    wanted = set(ops)
    per_op: dict[int, dict[str, dict[str, float]]] = {
        op: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}) for op in wanted
    }
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op = span
        if op in wanted:
            entry = per_op[op][name]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += own / 1e9
    return per_op
