"""Span tracing installed from outside the program.

A ``Tracer`` wraps every public function of each entpost module, and every
public method, property and ``__init__`` of each class the module defines.
Each module binding of a wrapped function is replaced, so ``alice_prepare``
is traced whether it is called through ``protocol``, ``netsim`` or
``montecarlo``. The wrappers are made once; ``install`` and ``uninstall``
only swap them in and out, so a run can alternate traced and untraced calls.
Each traced call records one span (name, start, end, parent span, op id)
into flat arrays kept in memory; ``summary`` turns them into per-name call
counts, inclusive time and self time (a span's duration minus the durations
of its child spans).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("rng", "epr", "codebook", "protocol", "netsim", "montecarlo", "cli")


def _entpost_modules() -> list:
    return [m for key, m in sys.modules.items() if key == "entpost" or key.startswith("entpost.")]


def _traced_members(cls) -> list[str]:
    """The methods, properties and ``__init__`` a class defines itself."""
    return [
        attr for attr, raw in vars(cls).items()
        if (attr == "__init__" or not attr.startswith("_"))
        and (inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod, property)))
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.originals: dict[int, object] = {}  # id -> wrapped function
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        bindings = _entpost_modules()
        for short in MODULES:
            module = sys.modules[f"entpost.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(f"{short}.{attr}", value)
                    for owner in bindings:
                        for key, bound in vars(owner).items():
                            if bound is value:
                                self._patches.append((owner, key, value, wrapper))
                elif inspect.isclass(value):
                    for member in _traced_members(value):
                        raw = vars(value)[member]
                        self._patches.append(
                            (value, member, raw, self._wrap_member(f"{short}.{attr}.{member}", raw))
                        )

    def _wrap_member(self, name: str, raw):
        if isinstance(raw, property):
            return property(self._wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.originals[id(fn)] = fn
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack = self.stack
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(ends)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that still hold a function this tracer wrapped."""
        return [
            f"{owner.__name__}.{key}"
            for owner in _entpost_modules()
            for key, value in vars(owner).items()
            if self.originals.get(id(value)) is value
        ]

    def _spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent index, duration s, self time s) of every span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        return np.frombuffer(self.name, dtype=np.int32), parent, duration, duration - child_time

    def summary(self) -> tuple[dict[str, tuple[int, float, float]], set[str]]:
        """({name: (calls, inclusive s, self s)}, names of the root spans)."""
        name, parent, duration, self_time = self._spans()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        stats = {self.names[i]: (int(calls[i]), float(inclusive[i]), float(own[i])) for i in range(k)}
        roots = {self.names[i] for i in np.unique(name[parent < 0])}
        return stats, roots

    def layer_self_within(self, layer: str, outer: tuple[str, ...]) -> float:
        """Summed self time of ``layer``'s spans that are, or run inside, a
        span named in ``outer``."""
        name, parent, _, self_time = self._spans()
        inside = np.isin(name, [self.names.index(n) for n in outer if n in self.names])
        nested = parent >= 0
        while True:  # spread the flag down the call tree, one level per pass
            spread = inside.copy()
            spread[nested] |= inside[parent[nested]]
            if np.array_equal(spread, inside):
                break
            inside = spread
        in_layer = np.array([n.startswith(layer + ".") for n in self.names], dtype=bool)
        return float(self_time[inside & in_layer[name]].sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


TICK_PHASES = ("netsim.World.deliver_phase", "netsim.World.act_phase")


def layer_metrics(stats: dict, tick_self: float, calls: int, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: ``calls`` CLI calls doing
    ``ops`` trials or transcripts. A ``us``/``ms`` metric is inclusive time
    per call of that function, ``self_*`` is self time, and ``*.self_share``
    is the layer's summed self time as a share of the time spent inside
    ``cli.main``, so the seven shares sum to one. ``tick_self`` is the
    netsim self time spent within the ``TICK_PHASES`` spans."""

    def get(span):
        return stats.get(span, (0, 0.0, 0.0))

    def count(span):
        return get(span)[0]

    def per_call(span, scale, self_time=False):
        n, inclusive, own = get(span)
        return (own if self_time else inclusive) / n * scale if n else 0.0

    def ms_per_cli_call(span):
        return get(span)[1] / calls * 1e3

    program = sum(own for _, _, own in stats.values())

    def share(layer):
        return sum(own for key, (_, _, own) in stats.items() if key.startswith(layer + ".")) / program

    ticks = count(TICK_PHASES[0])
    us, ms = 1e6, 1e3
    m = {
        "rng.derive_seed.calls_per_op": (count("rng.derive_seed") / ops, "calls/op"),
        "rng.derive_seed.us_per_call": (per_call("rng.derive_seed", us), "us"),
        "rng.substream.calls_per_op": (count("rng.substream") / ops, "calls/op"),
        "rng.substream.us_per_call": (per_call("rng.substream", us), "us"),
        "epr.sample_block.us_per_call": (per_call("epr.sample_block", us), "us"),
        "epr.flip_outcomes.calls_per_op": (count("epr.flip_outcomes") / ops, "calls/op"),
        "codebook.pairing_inverse.calls_per_op": (count("codebook.Pairing.inverse") / ops, "calls/op"),
        "codebook.generate_codebook.ms": (per_call("codebook.generate_codebook", ms), "ms"),
        "codebook.load_codebook.ms": (per_call("codebook.load_codebook", ms), "ms"),
        "protocol.receiver_init.us_per_call": (per_call("protocol.Receiver.__init__", us), "us"),
        "protocol.observe_all.us_per_call": (per_call("protocol.Receiver.observe_all", us), "us"),
        "protocol.alice_prepare.us_per_call": (per_call("protocol.alice_prepare", us), "us"),
        "protocol.observe_reveal.calls_per_op": (count("protocol.Receiver.observe_reveal") / ops, "calls/op"),
        "protocol.observe_reveal.us_per_call": (per_call("protocol.Receiver.observe_reveal", us), "us"),
        "protocol.decode.calls_per_op": (count("protocol.Receiver.decode") / ops, "calls/op"),
        "protocol.decode.us_per_call": (per_call("protocol.Receiver.decode", us), "us"),
        "protocol.survival_log2.calls_per_op": (count("protocol.Receiver.survival_log2") / ops, "calls/op"),
        "protocol.transcript_parse.ms": (per_call("protocol.Transcript.from_jsonl", ms), "ms"),
        "protocol.decode_transcript.ms": (per_call("protocol.decode_transcript", ms), "ms"),
        "netsim.ticks_per_op": (ticks / ops, "ticks/op"),
        "netsim.tick_us": (tick_self / ticks * us if ticks else 0.0, "us"),
        "netsim.build_world.us_per_call": (per_call("netsim.build_world", us), "us"),
        "netsim.log_entries_per_op": (count("netsim.World.log") / ops, "entries/op"),
        "montecarlo.run_trial.self_us": (per_call("montecarlo.run_trial", us, self_time=True), "us"),
        "montecarlo.shared_codebook.calls_per_call":
            (count("montecarlo.ExperimentSpec.shared_codebook") / calls, "calls/call"),
        "montecarlo.aggregate_rows.ms_per_call": (ms_per_cli_call("montecarlo.aggregate_rows"), "ms"),
        "montecarlo.csv_write.ms_per_call": (ms_per_cli_call("montecarlo.write_rows_csv"), "ms"),
        "montecarlo.report_write.ms_per_call": (ms_per_cli_call("montecarlo.write_report_json"), "ms"),
        "cli.main.self_ms": (per_call("cli.main", ms, self_time=True), "ms"),
    }
    for layer in MODULES:
        m[f"{layer}.self_share"] = (share(layer), "share")
    return m
