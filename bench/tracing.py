"""In-memory span tracer that wraps saddleprox's public names from outside.

Every wrapped call records a span (name, start, end, parent).  Spans are
kept in a list and turned into per-layer figures when the run ends: a
span's self time is its duration minus the durations of its direct
children, so the self times of one root span and everything under it add
up to the root's duration exactly.

Wrapping happens at the attribute where the caller looks the name up
(``saddleprox.core.step`` for ``solve``'s loop, ``saddleprox.cli.write_pgm``
for the CLI, class attributes for problem methods), so no file of the
package is edited.  ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter


def _array_bytes(args, result):
    """Operand plus result bytes, computed from array sizes."""
    return {"bytes_computed": args[0].nbytes + result.nbytes}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _logged_objectives(args, result):
    return {"logged_objective": sum(r.objective is not None for r in result[1])}


def targets():
    """(owner, attribute, span name, extra-count hook) for every traced layer.

    The owners are imported here, after the caller has put the package
    under test on ``sys.path``.
    """
    from saddleprox import cli, core, nash, potts, schedules

    return [
        (cli, "main", "cli.main", None),
        (cli, "write_csv", "cli.write_csv", _file_bytes),
        (cli, "write_pgm", "pgm.write_pgm", _file_bytes),
        (cli, "solve", "core.solve", _logged_objectives),
        (core, "solve", "core.solve", _logged_objectives),
        (core, "step", "core.step", None),
        (cli, "potts_steps", "schedules.potts_steps", None),
        (schedules, "potts_steps", "schedules.potts_steps", None),
        (potts.PottsProblem, "grad_x", "potts.grad_x", None),
        (potts.PottsProblem, "grad_y", "potts.grad_y", None),
        (potts.PottsProblem, "prox_primal", "potts.prox_primal", None),
        (potts.PottsProblem, "prox_dual", "potts.prox_dual", None),
        (potts.PottsProblem, "primal_objective", "potts.primal_objective", None),
        (potts, "dh", "potts.dh", _array_bytes),
        (potts, "dht", "potts.dht", _array_bytes),
        (potts, "kappa_z", "potts.kappa_z", None),
        (potts, "kappa_y", "potts.kappa_y", None),
        (potts, "huber_value", "potts.huber_value", None),
        (nash.PoissonSolver, "solve", "nash.poisson", None),
        (nash.NashProblem, "grad_x", "nash.grad_x", None),
        (nash.NashProblem, "grad_y", "nash.grad_y", None),
        (nash.NashProblem, "prox_primal", "nash.prox", None),
        (nash.NashProblem, "prox_dual", "nash.prox", None),
        (nash, "manufacture", "nash.manufacture", None),
    ]


class Tracer:
    """Records spans of wrapped calls; one root span per job or set-up."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra counts]
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, _clock(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = _clock()
        self._stack.pop()

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` under a new root span and return its result."""
        if self._stack:
            raise RuntimeError("root span opened inside span %r"
                               % self.spans[self._stack[-1]][0])
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                self.spans[index][4] = hook(args, result)
            return result
        return traced

    def install(self):
        for owner, attr, name, hook in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write one JSON array per span: name, start, end, parent index, extra."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def units(self, root_name):
        """Per-layer totals for each root span called ``root_name``.

        Returns a list of (root duration, {layer: {"calls", "s", "self_s",
        extra counts}}) in the order the roots ran.
        """
        child_sum = defaultdict(float)
        root_of = []
        for name, start, end, parent, _ in self.spans:
            if end is None:
                raise RuntimeError("span %r never closed" % name)
            if parent is not None:
                child_sum[parent] += end - start
            root_of.append(len(root_of) if parent is None else root_of[parent])
        out = {}
        for index, (name, start, end, parent, extra) in enumerate(self.spans):
            root = root_of[index]
            if self.spans[root][0] != root_name:
                continue
            if root not in out:
                rs = self.spans[root]
                out[root] = (rs[2] - rs[1], defaultdict(lambda: defaultdict(float)))
            layer = out[root][1][name]
            layer["calls"] += 1
            layer["s"] += end - start
            layer["self_s"] += end - start - child_sum[index]
            for key, value in (extra or {}).items():
                layer[key] += value
        return [out[k] for k in sorted(out)]
