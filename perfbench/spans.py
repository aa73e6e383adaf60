"""Span tracing of qsteer's layers from outside the package.

Each traced function is replaced, for the duration of a `Tracer` context, in
the module namespace where its callers look the name up (e.g. steering_report
calls `qsteer.steering.pauli_tensor`, the CLI calls
`qsteer.monogamy.minimize_f`). No source file is touched and the originals
are restored on exit. Spans are kept in memory as (name, start_ns, end_ns,
parent, op) tuples and written out once the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time

import numpy as np


def _points(args, kwargs, result):
    return {"points": len(np.atleast_2d(args[0]))}


def _minimize(args, kwargs, result):
    return {"starts": result.starts, "converged": result.converged,
            "dropped": result.dropped, "points": len(result.points)}


def _verify(args, kwargs, result):
    return {"samples": result.samples}


# (module where the name is looked up, attribute, span name, counter hook)
SITES = [
    ("qsteer.randgen", "random_state", "randgen.random_state", None),
    ("qsteer.steering", "pauli_tensor", "pauli.pauli_tensor", None),
    ("qsteer.steering", "trace_norm", "steering.trace_norm", None),
    ("qsteer.steering", "h_pair", "steering.h_pair", None),
    ("qsteer.monogamy", "h_pair", "steering.h_pair", None),
    ("qsteer.steering", "steering_report", "steering.steering_report", None),
    ("qsteer.steering", "partial_trace", "states.partial_trace", None),
    ("qsteer.monogamy", "partial_trace", "states.partial_trace", None),
    ("qsteer.steering", "purity_deficit", "states.purity_deficit", None),
    ("qsteer.steering", "permute_qubits", "states.permute_qubits", None),
    ("qsteer.steering", "validate_state", "states.validate_state", None),
    ("qsteer.states", "validate_state", "states.validate_state", None),
    ("qsteer.states", "state_from_payload", "states.state_from_payload", None),
    ("qsteer.monogamy", "schmidt_f_batch", "monogamy.schmidt_f_batch", _points),
    ("qsteer.monogamy", "minimize_f", "monogamy.minimize_f", _minimize),
    ("qsteer.monogamy", "f_pipeline", "monogamy.f_pipeline", None),
    ("qsteer.monogamy", "verify_monogamy", "monogamy.verify_monogamy", _verify),
    ("qsteer.cli", "main", "cli.main", None),
]


class Tracer:
    """Context manager that patches every site in SITES and records spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, hook in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time (duration minus children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - inner) * 1e-9
        return totals

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
