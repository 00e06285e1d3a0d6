"""Layer tracing from outside the program: wrap each layer's public functions.

:class:`Tracer` replaces each layer's public function, at every name a
``repro`` module binds it under, with a wrapper that records one span per
call.  No source file of the program changes, and :meth:`Tracer.uninstall`
puts every original back.

A span records its layer name, start, end, parent span, thread and the work
item the benchmark was running when the span opened.  Spans nest per thread
(each thread keeps its own stack), so a layer's self time is its spans'
duration minus the time covered by their direct children on the same thread.
Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import json
import sys
import threading
import time

#: Layer name -> ``(module, attribute path)`` of each public function timed.
#: ``Class.method`` paths are patched on the class; plain functions are
#: patched in every loaded ``repro`` module that binds the same object, which
#: covers the name each caller uses (``tokenize`` as bound in the parser,
#: ``parse_verilog`` in the simulator facade and in the baselines, ...).
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "chisel.lex": (("repro.chisel.lexer", "tokenize"),),
    "chisel.parse": (("repro.chisel.parser", "parse_source"),),
    "elaborate": (("repro.chisel.elaborator", "elaborate"),),
    "firrtl.passes": (("repro.firrtl.pass_manager", "PassManager.run"),),
    "emit": (("repro.verilog.emitter", "emit_verilog"),),
    "verilog.parse": (("repro.verilog.parser", "parse_verilog"),),
    "kernel.codegen": (
        ("repro.verilog.compile_sim", "compile_kernel"),
        ("repro.verilog.compile_sim", "compile_trace"),
        ("repro.verilog.compile_vec", "compile_vec_kernel"),
        ("repro.verilog.compile_vec", "compile_vec_trace"),
    ),
    "sim.run": (
        ("repro.sim.testbench", "run_testbench"),
        ("repro.sim.testbench", "run_testbenches"),
    ),
    "sim.interp": tuple(
        ("repro.verilog.simulator", f"Simulation.{method}")
        for method in ("poke", "poke_many", "peek", "peek_signed", "settle", "step", "flush")
    ),
    "llm.synthetic": (("repro.llm.synthetic", "SyntheticChiselLLM.complete"),),
    "fuzz.generate": (("repro.fuzz.generate", "generate_program"),),
}

LAYERS: tuple[str, ...] = tuple(LAYER_TARGETS)

# Span record fields (a list per span, mutated in place while it is open).
_LAYER, _START, _END, _PARENT, _THREAD, _ITEM, _CHILDREN = range(7)


class Tracer:
    """Records a span per call of every wrapped layer function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: The work item the benchmark is running; stamped on each new span.
        self.item: object = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, layer: str, function):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            record = [layer, 0.0, 0.0, parent, get_ident(), tracer.item, 0.0]
            spans.append(record)
            stack.append(record)
            record[_START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = record[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILDREN] += end - record[_START]

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Wrap every target of :data:`LAYER_TARGETS` (modules must be imported)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYER_TARGETS.items():
            for module_name, path in targets:
                module = sys.modules[module_name]
                if "." in path:
                    class_name, method = path.split(".")
                    owner = getattr(module, class_name)
                    self._patch(owner, method, self._wrap(layer, owner.__dict__[method]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(layer, original)
                for name, loaded in list(sys.modules.items()):
                    if name.startswith("repro") and loaded is not None:
                        if getattr(loaded, path, None) is original:
                            self._patch(loaded, path, wrapper)

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------- results

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_ms", "calls"}}`` over every recorded span."""
        table = {layer: {"self_ms": 0.0, "calls": 0} for layer in LAYERS}
        for record in self.spans:
            row = table[record[_LAYER]]
            row["self_ms"] += (record[_END] - record[_START] - record[_CHILDREN]) * 1000.0
            row["calls"] += 1
        return table

    def threads(self) -> int:
        return len({record[_THREAD] for record in self.spans})

    def write(self, path: str) -> None:
        """Dump spans as JSON lines: name, start/end (s), parent index, thread, item."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        origin = self.spans[0][_START] if self.spans else 0.0
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                parent = record[_PARENT]
                thread = threads.setdefault(record[_THREAD], len(threads))
                handle.write(
                    json.dumps(
                        [
                            record[_LAYER],
                            round(record[_START] - origin, 7),
                            round(record[_END] - origin, 7),
                            index[id(parent)] if parent is not None else None,
                            thread,
                            record[_ITEM],
                        ]
                    )
                )
                handle.write("\n")
