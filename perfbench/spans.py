"""In-memory spans around calls into the library, and the arithmetic on them.

A :class:`Tracer` replaces public library functions by wrappers that record
one span per call: a name, a label (usually the algebra or spec name), the
start and end clock readings and the index of the enclosing span.  Spans
stay in memory until the run ends.  Nothing here imports numpy or liecurv,
so the arithmetic can be tested on its own.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time
from contextlib import contextmanager
from pathlib import Path

# Metric names: a letter or digit first, then letters, digits, '_', '.', '-'.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


def summarize(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    The percentile is reported as ``p`` (0-100) with its value; it is None
    when fewer than eleven samples exist.  Percentiles use the
    nearest-rank rule, so every reported value is an observed sample.
    """
    xs = sorted(samples)
    n = len(xs)
    out = {"count": n, "median": None, "tail_p": None, "tail": None}
    if n == 0:
        return out
    mid = n // 2
    out["median"] = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    if n >= 11:
        # Highest nearest-rank percentile p (whole percent) whose rank leaves
        # at least ten samples above it.
        for p in range(99, 0, -1):
            rank = math.ceil(p / 100 * n)
            if n - rank >= 10:
                out["tail_p"] = p
                out["tail"] = xs[rank - 1]
                break
    return out


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _label_of(args, kwargs) -> str:
    """Name of the algebra, model or spec a library call works on."""
    if kwargs.get("name"):
        return str(kwargs["name"])
    for obj in args[:1]:
        for candidate in (obj, getattr(obj, "parent", None)):
            name = getattr(candidate, "name", None)
            if isinstance(name, str):
                return name
    return ""


class Tracer:
    """Records a span per wrapped call; timings are in seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.labels: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.enabled = False

    def _open(self, name: str, label: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(math.nan)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str = ""):
        if not self.enabled:
            yield
            return
        idx = self._open(name, label)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run a block (such as a correctness check) without recording spans."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name, _label_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    @contextmanager
    def patched(self, modules: dict[str, object]):
        """Wrap every public function defined in ``modules`` wherever it is bound.

        ``modules`` maps a short layer name to a module object.  The library
        imports functions by name (``from .binorm import binormalize``), so a
        function is replaced in every given namespace that holds it, not only
        in the module that defines it.  Spans are recorded inside the block;
        the originals are restored on exit.
        """
        owners = {mod.__name__: short for short, mod in modules.items()}
        wrappers = {}
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) not in owners
                        or not hasattr(fn, "__code__")):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self.wrap(f"{owners[fn.__module__]}.{fn.__name__}", fn))
        saved = []
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and wrappers[id(fn)][0] is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)][1])
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def records(self) -> list[dict]:
        """Every span with its self time, in the order the spans opened."""
        selfs = self_times(self.starts, self.ends, self.parents)
        return [
            {"name": n, "label": lab, "parent": p, "start": s, "end": e, "self": st}
            for n, lab, p, s, e, st in zip(self.names, self.labels, self.parents,
                                           self.starts, self.ends, selfs)
        ]

    def dump(self, path: Path) -> None:
        """Write the spans as compact columns (names stored once)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        labels = sorted(set(self.labels))
        lindex = {n: i for i, n in enumerate(labels)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "fields": ["name", "label", "parent", "start_us", "end_us"],
            "names": table,
            "labels": labels,
            "spans": [[index[n], lindex[lab], p, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3)]
                      for n, lab, p, s, e in zip(self.names, self.labels, self.parents,
                                                 self.starts, self.ends)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
