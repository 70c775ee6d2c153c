"""Layer tracer: counts and self-times the calls into each ``repro`` layer.

The tracer is one recorder handed to every layer, in the manner of a
flash-simulator ``Recorder``: it never edits ``src/repro``, it wraps the
layers' public entry points from outside while a traced run is active
and restores them afterwards. Wrapped entry points:

* ``Simulator.process`` — counts spawns; times the spawn as ``sim``;
  wraps the generator so each of its steps is timed and attributed to
  the package that defines the generator.
* handlers passed to ``RpcNode.register`` — so server work lands in
  ``milana``, ``semel`` or ``durability`` rather than in ``net``, whose
  ``_serve`` process drives them with ``yield from``.
* ``WriteAheadLog.append`` — WAL appends run inline in handlers.
* ``Clock.now`` — the timestamp reads MILANA does inline.
* ``wire_size_of`` as bound in ``repro.net.network`` and
  ``payload_size`` as bound in ``repro.net.rpc``, ``repro.wire.messages``
  and ``repro.wire.sizing`` (the last catches its own recursion).
* ``RpcNode.call`` and ``Network.send`` — counted and timed as ``net``.

Self time is a frame's own time minus the time of wrapped frames nested
in it. Host time the wrappers do not cover (the event loop, callbacks)
is charged to ``sim`` by :meth:`Tracer.self_times`.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["LAYERS", "Tracer", "layer_of_code"]

#: Layers reported as ``<layer>.self_share``, named after ``src/repro``.
LAYERS = ("sim", "net", "wire", "milana", "semel", "clocks", "ftl",
          "flash", "durability", "workloads")

_PKG_LAYER = {"rpc": "net", "network": "net"}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_code(filename: str) -> str:
    """Layer of the package that defines ``filename``.

    Generators written by the benchmark itself are workload drivers, so
    they count as ``workloads``; anything outside ``repro`` is ``other``.
    """
    path = os.path.abspath(filename)
    if os.path.dirname(path) == _BENCH_DIR:
        return "workloads"
    parts = path.split(os.sep)
    if "repro" not in parts:
        return "other"
    index = len(parts) - 1 - parts[::-1].index("repro")
    rest = parts[index + 1:]
    if len(rest) < 2:
        return "sim"  # top-level helper modules (versioning, histogram)
    return _PKG_LAYER.get(rest[0], rest[0])


class Tracer:
    """Per-layer self time plus entry-point counters for one traced run."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # Open frames, innermost last: [layer, start, nested seconds].
        self._stack: List[list] = []
        self._layer_by_code: Dict[Any, str] = {}
        self._restore: List[Callable[[], None]] = []

    # -- accounting -----------------------------------------------------------

    def reset(self) -> None:
        self.self_time = {}
        self.counts = {}

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + (
            elapsed - child)
        if self._stack:
            self._stack[-1][2] += elapsed

    def layer_of(self, code) -> str:
        layer = self._layer_by_code.get(code)
        if layer is None:
            layer = self._layer_by_code[code] = layer_of_code(
                code.co_filename)
        return layer

    def self_times(self, total: float) -> Dict[str, float]:
        """Self seconds per layer of a drive that took ``total`` seconds.

        Time no wrapper covered is event-loop work, charged to ``sim``.
        """
        times = dict(self.self_time)
        times["sim"] = times.get("sim", 0.0) + total - sum(
            self.self_time.values())
        return times

    # -- wrapping ----------------------------------------------------------------

    def timed_generator(self, gen, layer: str):
        """Drive ``gen`` step by step, timing each step as ``layer``."""
        send, throw = gen.send, gen.throw
        enter, leave = self.enter, self.leave
        value, error = None, None
        while True:
            enter(layer)
            try:
                target = send(value) if error is None else throw(error)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown into gen
                value, error = None, exc

    def timed_call(self, func: Callable, layer: str,
                   counter: Optional[str] = None):
        """Wrap ``func`` to time it as ``layer`` and count its calls."""
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            if stack and stack[-1][0] == layer:
                # Nested in its own layer (payload_size recursion): the
                # attribution is the same untimed, and cheaper.
                return func(*args, **kwargs)
            tracer.enter(layer)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.leave()

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        original = getattr(owner, name)
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def install(self) -> None:
        """Wrap every traced entry point. Call before building a run."""
        import repro.net.network as network_mod
        import repro.net.rpc as rpc_mod
        import repro.wire.messages as messages_mod
        import repro.wire.sizing as sizing_mod
        from repro.clocks.base import Clock
        from repro.durability.wal import WriteAheadLog
        from repro.net.network import Network
        from repro.net.rpc import RpcNode
        from repro.sim.core import Simulator

        if self._restore:
            raise RuntimeError("tracer already installed")
        tracer = self
        process = Simulator.process
        register = RpcNode.register
        append = WriteAheadLog.append

        def traced_process(sim, generator):
            tracer.count("spawns")
            generator = tracer.timed_generator(
                generator, tracer.layer_of(generator.gi_code))
            tracer.enter("sim")
            try:
                return process(sim, generator)
            finally:
                tracer.leave()

        def traced_register(node, method, handler):
            func = getattr(handler, "__func__", handler)
            layer = tracer.layer_of(func.__code__)

            def traced_handler(payload):
                return tracer.timed_generator(handler(payload), layer)

            return register(node, method, traced_handler)

        def traced_append(wal, *args, **kwargs):
            return tracer.timed_generator(
                append(wal, *args, **kwargs), "durability")

        payload_size = sizing_mod.payload_size
        counted_payload = self.timed_call(payload_size, "wire",
                                          "payload_calls")
        self._patch(Simulator, "process", traced_process)
        self._patch(RpcNode, "register", traced_register)
        self._patch(RpcNode, "call",
                    self.timed_call(RpcNode.call, "net", "rpc_calls"))
        self._patch(Network, "send",
                    self.timed_call(Network.send, "net"))
        self._patch(WriteAheadLog, "append", traced_append)
        self._patch(Clock, "now",
                    self.timed_call(Clock.now, "clocks"))
        self._patch(network_mod, "wire_size_of",
                    self.timed_call(network_mod.wire_size_of, "wire",
                                    "size_calls"))
        for module in (rpc_mod, messages_mod, sizing_mod):
            self._patch(module, "payload_size", counted_payload)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
