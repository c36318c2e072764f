"""Span tracer for the traced benchmark pass.

``install(out_dir, run_id)`` wraps the public functions and methods of the
engine's layers (listed in ``FUNCTIONS``, ``FACTORIES`` and ``METHODS``) in
the calling process.  The Ray driver calls it directly; Ray workers call it
through ``install_worker``, which the benchmark registers as the job's
``worker_process_setup_hook``.  Nothing is patched on import.

Each wrapped call records one span ``(id, parent, name, t0, t1)`` in memory
(``parent`` is the enclosing span on the same thread) plus optional counts,
stamped with the call's start so a summary can keep only a time window.
A process appends its buffered spans to ``<out_dir>/spans-<pid>.jsonl``
whenever its outermost span ends, so a worker that Ray kills at shutdown has
already written everything it recorded.  ``summarize.py`` turns the files
into per-layer self times.

Pickling: a wrapped module function keeps the original's ``__module__`` and
``__qualname__`` and replaces it under that name, so cloudpickle ships it by
reference and each worker resolves its own (wrapped or plain) copy.
Closures returned by the wrapped factories are shipped by value and record
into whichever process runs them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"


class _State:
    """Per-process span and count buffers.  list.append is atomic under the
    GIL, so threads append without a lock; only the flush swaps buffers."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.spans: list = []
        self.counts: list = []
        self.lock = threading.Lock()

    def stack(self) -> list:
        s = getattr(self.local, "stack", None)
        if s is None:
            s = self.local.stack = []
        return s

    def flush(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, []
        if not spans and not counts:
            return
        pid = os.getpid()
        with open(os.path.join(self.out_dir, f"spans-{pid}.jsonl"), "a") as fh:
            for sid, parent, name, t0, t1, tid in spans:
                fh.write(
                    json.dumps(["span", self.run_id, pid, tid, sid, parent, name, t0, t1])
                    + "\n"
                )
            for t, key, value in counts:
                fh.write(json.dumps(["count", self.run_id, pid, t, key, value]) + "\n")


_STATE: _State | None = None


def _span_call(name, fn, args, kwargs, count=None):
    st = _STATE
    if st is None:
        return fn(*args, **kwargs)
    stack = st.stack()
    sid = next(st.ids)
    parent = stack[-1] if stack else None
    stack.append(sid)
    ok = False
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
        ok = True
    finally:
        t1 = time.perf_counter()
        stack.pop()
        st.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
        if ok and count is not None:
            for key, value in count(args, kwargs, result).items():
                st.counts.append((t0, key, value))
        if not stack:
            st.flush()
    return result


@contextmanager
def span(name: str):
    """Span around a block of the benchmark's own code (no-op when off)."""
    st = _STATE
    if st is None:
        yield
        return
    stack = st.stack()
    sid = next(st.ids)
    parent = stack[-1] if stack else None
    stack.append(sid)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t1 = time.perf_counter()
        stack.pop()
        st.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
        if not stack:
            st.flush()


# ------------------------------------------------------------------ counters
def _bytes_in(args, kwargs, result):
    import pyarrow.compute as pc

    html = args[0] if args else kwargs["html"]
    return {"ops.extract.bytes_in": pc.sum(pc.binary_length(html)).as_py() or 0}


def _bloom_probes(args, kwargs, result):
    return {"ops.ioc.probes": len(result), "ops.ioc.bloom_hits": int(result.sum())}


def _partial_bytes(args, kwargs, result):
    return {
        "core.udaf.partials_calls": 1,
        "core.udaf.partial_bytes": sum(
            len(b) for b in result.column("payload").to_pylist()
        ),
    }


def _merge_payloads(args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    return {"core.udaf.merge_payloads": group.num_rows}


def _grouped_partial_rows(args, kwargs, result):
    return {"core.grouped.partial_rows": result.num_rows}


def _grouped_merge_calls(args, kwargs, result):
    return {"core.grouped.merge_calls": 1}


# ------------------------------------------------------------------- targets
# (module, attribute, span name, counter)
FUNCTIONS = [
    ("fever_ray.pipelines.flagship", "run_flagship", "pipelines.flagship.run", None),
    ("fever_ray.pipelines.flagship", "derive_page_columns", "pipelines.flagship.derive", None),
    ("fever_ray.ops.extract", "extract_text", "ops.extract.extract_text", _bytes_in),
    ("fever_ray.ops.extract", "hostname_of", "ops.extract.hostname_of", None),
    ("fever_ray.ops.extract", "split_url", "ops.extract.split_url", None),
    ("fever_ray.sketches.hashing", "fnv_pair", "sketches.hashing.fnv_pair", None),
    ("fever_ray.sketches.hashing", "hash64", "sketches.hashing.hash64", None),
    ("fever_ray.core.udaf", "build_sketches", "core.udaf.build", None),
    ("fever_ray.io_.checkpoint", "run_partitioned_build", "io_.checkpoint.build", None),
]
# factories whose returned closure is the traced unit
FACTORIES = [
    ("fever_ray.core.udaf", "make_partials_fn", "core.udaf.partials", _partial_bytes),
    ("fever_ray.core.udaf", "make_merge_fn", "core.udaf.merge", _merge_payloads),
    ("fever_ray.core.grouped", "make_grouped_partials_fn", "core.grouped.partials", _grouped_partial_rows),
    ("fever_ray.core.grouped", "make_grouped_merge_fn", "core.grouped.merge", _grouped_merge_calls),
]
GENERATORS = [
    ("fever_ray.pipelines.follow", "follow", "pipelines.follow.iteration"),
]
# (class path, method names, span name, counter)
_UPDATE = ("update", "update_hashes", "update_from_fnv", "update_ints")
METHODS = [
    ("fever_ray.ops.ioc.PageIocMatcher", ("__call__",), "ops.ioc.match", None),
    ("fever_ray.sketches.bloom.BloomFilter", ("check",), "ops.ioc.bloom_check", _bloom_probes),
    ("fever_ray.sketches.bloom.BloomFilter", ("add", "add_hashes"), "sketches.bloom.add", None),
    ("ray.data.Dataset", ("take_all",), "ray.data.take_all", None),
]
UPDATE_KINDS = ("hll", "cms", "kll", "tdigest", "req", "dd", "theta")
SERDE_KINDS = UPDATE_KINDS + ("bloom",)


def _wrap_function(orig, name, count):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        return _span_call(name, orig, args, kwargs, count)

    return traced


def _traced_closure(fn, name, count):
    def traced(*args, **kwargs):
        return _span_call(name, fn, args, kwargs, count)

    return traced


def _wrap_factory(orig, name, count):
    @functools.wraps(orig)
    def factory(*args, **kwargs):
        return _traced_closure(orig(*args, **kwargs), name, count)

    return factory


def _wrap_generator(orig, name):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        gen = orig(*args, **kwargs)
        try:
            while True:
                try:
                    item = _span_call(name, next, (gen,), {})
                except StopIteration:
                    return
                yield item
        finally:
            gen.close()

    return traced


def _rebind(module, attr, orig, wrapped) -> None:
    """Replace ``orig`` under its own name and under every alias another
    loaded fever_ray module imported it as."""
    setattr(module, attr, wrapped)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("fever_ray"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _wrap_method(cls, meth, name, count, done) -> None:
    owner = next((c for c in cls.__mro__ if meth in c.__dict__), None)
    if owner is None or (owner, meth) in done:
        return
    done.add((owner, meth))
    raw = owner.__dict__[meth]
    if isinstance(raw, classmethod):
        setattr(owner, meth, classmethod(_wrap_function(raw.__func__, name, count)))
    elif isinstance(raw, staticmethod):
        setattr(owner, meth, staticmethod(_wrap_function(raw.__func__, name, count)))
    else:
        setattr(owner, meth, _wrap_function(raw, name, count))


def _resolve(path: str):
    mod_name, _, cls_name = path.rpartition(".")
    return getattr(importlib.import_module(mod_name), cls_name)


def _patch_all() -> None:
    import fever_ray.pipelines.flagship  # noqa: F401  (loads every layer)
    import fever_ray.pipelines.follow  # noqa: F401
    import fever_ray.core.grouped  # noqa: F401
    import fever_ray.ops.ioc  # noqa: F401
    from fever_ray.sketches import SKETCH_TYPES

    for mod_name, attr, name, count in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        _rebind(mod, attr, orig, _wrap_function(orig, name, count))
    for mod_name, attr, name, count in FACTORIES:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        _rebind(mod, attr, orig, _wrap_factory(orig, name, count))
    for mod_name, attr, name in GENERATORS:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        _rebind(mod, attr, orig, _wrap_generator(orig, name))
    done: set = set()
    for path, meths, name, count in METHODS:
        cls = _resolve(path)
        for meth in meths:
            _wrap_method(cls, meth, name, count, done)
    for kind in UPDATE_KINDS:
        for meth in _UPDATE:
            _wrap_method(SKETCH_TYPES[kind], meth, f"sketches.{kind}.update", None, done)
    for kind in SERDE_KINDS:
        cls = SKETCH_TYPES[kind]
        _wrap_method(cls, "to_bytes", "sketches.to_bytes", None, done)
        _wrap_method(cls, "from_bytes", "sketches.from_bytes", None, done)
        _wrap_method(cls, "merge", "sketches.merge", None, done)


def install(out_dir: str, run_id: str) -> None:
    """Start recording in this process (idempotent)."""
    global _STATE
    if _STATE is not None:
        return
    os.makedirs(out_dir, exist_ok=True)
    _patch_all()
    _STATE = _State(out_dir, run_id)


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: reads its settings from the job's
    runtime_env env_vars."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if out_dir:
        install(out_dir, os.environ.get(RUN_ID_ENV, ""))


def flush() -> None:
    if _STATE is not None:
        _STATE.flush()
