"""Outside-in layer tracing for the hefit benchmark.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
rebinds hefit's public functions, at every hefit module that imported
them, to wrappers that open a span per call; ``uninstall`` puts the
originals back.  Emulator primitives are too many for one span each, so
they are aggregated into a call counter and a timer instead, and every
ledger record is attributed to the innermost open span.

A span's self time is its duration minus the durations of its child spans
(emulator time is a timer, not a span, so it stays in its caller's self
time).  Spans are kept in memory and written once, by :meth:`dump`.

All host times here and in the workloads read the process CPU clock.  On a
shared VM the wall clock also counts time the hypervisor gives other guests
(steal): wall medians of identical work drifted by 20% between runs where
CPU time moved far less.  The benchmark process is single-threaded and does
no blocking I/O while timed, so on an idle machine the two clocks agree.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from hefit.emulator import OP_KINDS, EmulatorContext, OpLedger
from hefit.protocol import ChannelEndpoint
from hefit.training import Client

host_clock = time.process_time

# (module, function, span name).  Every hefit module that imported the
# function by name gets the wrapper, so calls through re-exports are seen.
SPAN_FUNCTIONS = (
    ("hefit.encoding", "encode", "encoding.encode"),
    ("hefit.encoding", "decode", "encoding.decode"),
    ("hefit.encoding", "col_sums", "encoding.col_sums"),
    ("hefit.encoding", "row_sums", "encoding.row_sums"),
    ("hefit.encoding", "rot_left", "encoding.rot_left"),
    ("hefit.encoding", "prot_up", "encoding.prot_up"),
    ("hefit.matmul", "diag_abt", "matmul.diag_abt"),
    ("hefit.matmul", "diag_atb", "matmul.diag_atb"),
    ("hefit.approx", "a_softmax", "approx.a_softmax"),
    ("hefit.approx", "a_max", "approx.a_max"),
    ("hefit.approx", "domain_extend", "approx.domain_extend"),
    ("hefit.approx", "a_exp", "approx.a_exp"),
    ("hefit.approx", "a_inv", "approx.a_inv"),
    ("hefit.plainref", "exact_softmax", "plainref.exact_softmax"),
    ("hefit.protocol", "pack_matrix", "protocol.pack_matrix"),
    ("hefit.protocol", "unpack_matrix", "protocol.unpack_matrix"),
    ("hefit.training", "nag_step", "training.nag_step"),
    ("hefit.training", "fit", "training.fit"),
    ("hefit.datasets", "ingest", "datasets.ingest"),
    ("hefit.cli", "main", "cli.main"),
    ("hefit.cli", "softmax_error_cell", "cli.softmax_error_cell"),
)

CLIENT_METHODS = (
    "send_setup",
    "send_training_batch",
    "evaluate_validation",
    "send_stop",
    "receive_final_weights",
)

EMULATOR_METHODS = (
    "encrypt", "pack", "add", "sub", "mult", "cmult",
    "lrot", "rrot", "conj", "mul_i", "bootstrap",
)


def _decode_attrs(args, kwargs):
    return {"role": kwargs.get("role", args[1] if len(args) > 1 else "observer")}


def _abt_attrs(args, kwargs):
    A, B = args[0], args[1]
    return {
        "algorithm": "diag_abt",
        "shape": (A.shape[0], A.shape[1], B.period),
        "grid": (A.ctx.grid_rows, A.ctx.grid_cols),
    }


def _atb_attrs(args, kwargs):
    A, B = args[0], args[1]
    return {
        "algorithm": "diag_atb_pru" if A.level < B.level else "diag_atb_rl",
        "shape": (A.shape[0], B.shape[1], A.period),
        "grid": (A.ctx.grid_rows, A.ctx.grid_cols),
    }


SPAN_ATTRS = {
    "encoding.decode": _decode_attrs,
    "matmul.diag_abt": _abt_attrs,
    "matmul.diag_atb": _atb_attrs,
}


class Patches:
    """Attribute rebindings that can all be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_everywhere(self, original, value) -> None:
        """Rebind ``original`` in every loaded hefit module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hefit" or mod_name.startswith("hefit.")):
                continue
            for attr, held in list(vars(mod).items()):
                if held is original:
                    self.set(mod, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "child_s", "ops", "own_ops", "attrs")

    def __init__(self, sid, parent, name, start, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.ops = dict.fromkeys(OP_KINDS, 0)  # inclusive once the span closes
        self.own_ops = dict.fromkeys(OP_KINDS, 0)  # recorded while innermost
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Spans around hefit's layer boundaries, plus emulator and channel counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = Patches()
        self._emu_busy = False
        self.emu_calls = 0
        self.emu_seconds = 0.0
        self.emu_slot_bytes = 0
        self.ledger_ops = dict.fromkeys(OP_KINDS, 0)

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, attrs) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, host_clock(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = host_clock()
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.seconds
            for kind, n in span.ops.items():
                parent.ops[kind] += n

    def _span_wrapper(self, name: str, fn):
        attrs_of = SPAN_ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _emulator_wrapper(self, fn):
        """Time only the outermost primitive (cmult calls mult, rrot calls lrot)."""
        tracer = self

        @functools.wraps(fn)
        def timed(ctx, *args, **kwargs):
            if tracer._emu_busy:
                return fn(ctx, *args, **kwargs)
            tracer._emu_busy = True
            start = host_clock()
            try:
                return fn(ctx, *args, **kwargs)
            finally:
                tracer.emu_seconds += host_clock() - start
                tracer.emu_calls += 1
                tracer.emu_slot_bytes += ctx.slot_count * 16
                tracer._emu_busy = False

        return timed

    def _record_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def record(ledger, kind, n=1):
            fn(ledger, kind, n)
            tracer.ledger_ops[kind] += n
            if tracer._stack:
                tracer._stack[-1].ops[kind] += n
                tracer._stack[-1].own_ops[kind] += n

        return record

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        p = self._patches
        for mod_name, fn_name, span_name in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            p.set_everywhere(original, self._span_wrapper(span_name, original))
        for meth in CLIENT_METHODS:
            p.set(Client, meth, self._span_wrapper("training.client", getattr(Client, meth)))
        for meth in EMULATOR_METHODS:
            p.set(EmulatorContext, meth, self._emulator_wrapper(getattr(EmulatorContext, meth)))
        p.set(OpLedger, "record", self._record_wrapper(OpLedger.record))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, inclusive and self ops."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(
                span.name,
                {
                    "calls": 0,
                    "seconds": 0.0,
                    "self_seconds": 0.0,
                    "ops": dict.fromkeys(OP_KINDS, 0),
                    "self_ops": dict.fromkeys(OP_KINDS, 0),
                },
            )
            agg["calls"] += 1
            agg["seconds"] += span.seconds
            agg["self_seconds"] += span.self_seconds
            for kind in OP_KINDS:
                agg["ops"][kind] += span.ops[kind]
                agg["self_ops"][kind] += span.own_ops[kind]
        return out

    def seconds_where(self, name: str, **attrs) -> float:
        return sum(
            s.seconds
            for s in self.spans
            if s.name == name and all((s.attrs or {}).get(k) == v for k, v in attrs.items())
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {
                    "run": self.run_id,
                    "id": s.sid,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_seconds,
                    "ops": {k: n for k, n in s.ops.items() if n},
                }
                if s.attrs:
                    row["attrs"] = {k: list(v) if isinstance(v, tuple) else v
                                    for k, v in s.attrs.items()}
                fh.write(json.dumps(row) + "\n")


class CallTimer:
    """Host seconds of each call to one hefit function, rebound wherever it is held."""

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name
        self.seconds: list[float] = []
        self._patches = Patches()

    def install(self) -> None:
        original = getattr(sys.modules[self.module], self.name)
        timer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = host_clock()
            try:
                return original(*args, **kwargs)
            finally:
                timer.seconds.append(host_clock() - start)

        self._patches.set_everywhere(original, timed)

    def uninstall(self) -> None:
        self._patches.undo()


class ChannelMeter:
    """Counts bytes written to hefit's in-process channel (frame header included)."""

    FRAME_OVERHEAD = 5  # u32 length + u8 message type

    def __init__(self):
        self.bytes = 0
        self._patches = Patches()

    def install(self) -> None:
        original = ChannelEndpoint.send
        meter = self

        @functools.wraps(original)
        def send(endpoint, msg_type, payload=b""):
            original(endpoint, msg_type, payload)
            meter.bytes += meter.FRAME_OVERHEAD + len(payload)

        self._patches.set(ChannelEndpoint, "send", send)

    def uninstall(self) -> None:
        self._patches.undo()
