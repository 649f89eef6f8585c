"""The traced run: spans around the calls into each canonform layer.

Each traced function is replaced, at every module binding that holds it
(canonform.hermite.hermite_canonical and canonform.smith.hermite_canonical
alike), by a wrapper that records a span (name, start, end, parent span,
operation).  The originals are put back afterwards.  Spans stay in memory
and are written out when the run ends.  A function's self time is its
span minus the time its child spans cover.

Counts come from a separate counting pass over a fixed set of inputs, so
they repeat exactly: calls of each traced function, Elem scalar operations
(+ - * neg divmod, patched on the class), Hermite passes per diagonalize,
and the bit size of the P and Q that smith returns.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

TRACED = (
    "domain.egcd", "domain.factor", "domain.format_scalar",
    "matrix.parse_matrix", "matrix.multiply",
    "determinant.det", "determinant.inverse",
    "hermite.hermite_canonical",
    "smith.diagonalize", "smith.smith_2x2", "smith.smith",
    "invariants.invariant_report",
    "similarity.similar", "similarity.right_eval", "similarity.char_poly",
    "cli.main",
)
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__divmod__")


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "canonform" or name.startswith("canonform."))]


class Patched:
    """Context manager: every binding of each traced function, in every
    loaded canonform module, points at make_wrapper(name, original)."""

    def __init__(self, make_wrapper):
        self.make_wrapper = make_wrapper
        self.saved = []

    def __enter__(self):
        mods = _modules()
        for name in TRACED:
            modname, attr = name.split(".")
            orig = getattr(sys.modules["canonform." + modname], attr)
            wrapper = self.make_wrapper(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self.saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self.saved):
            setattr(mod, key, orig)
        self.saved.clear()


class SpanRecorder:
    """Timing mode.  Span i is (name, start, end, parent index, op id);
    an operation's root span is named 'op'."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1

    def make_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
        return wrapper

    def begin_op(self, op_id, t0):
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(("op", t0, t0, -1, op_id))

    def end_op(self, t1):
        idx = self.stack.pop()
        name, t0, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, t0, t1, parent, op_id)

    def self_seconds(self, scale):
        """Total self time per function name; scale[op_id] corrects each
        operation's spans for machine speed."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (name, t0, t1, _, op_id), c in zip(self.spans, child):
            out[name] += (t1 - t0 - c) * scale[op_id]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, t0, t1, parent, op_id in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op_id}\n")


def _bits(value):
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, tuple):
        return sum(_bits(c) for c in value)
    return value.numerator.bit_length() + value.denominator.bit_length()


class Counting:
    """Counting mode: calls per traced function, scalar operations, Hermite
    passes inside diagonalize, and smith's certificate bits."""

    def __init__(self, elem_class):
        self.counts = Counter()
        self.stack = []
        self.elem_class = elem_class
        self.saved = {}

    def make_wrapper(self, name, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if name == "hermite.hermite_canonical" and stack and stack[-1] == "smith.diagonalize":
                counts["smith.diagonalize.passes"] += 1
            stack.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
            if name == "smith.smith":
                counts["smith.cert_bits"] += sum(
                    _bits(e.value) for m in (out.p, out.q) for e in m.entries)
            return out
        return wrapper

    def __enter__(self):
        counts = self.counts
        for attr in SCALAR_OPS:
            orig = self.saved[attr] = getattr(self.elem_class, attr)

            def counted(*args, _orig=orig):
                counts["domain.scalar_ops"] += 1
                return _orig(*args)
            setattr(self.elem_class, attr, counted)
        return self

    def __exit__(self, *exc):
        for attr, orig in self.saved.items():
            setattr(self.elem_class, attr, orig)
        self.saved.clear()
