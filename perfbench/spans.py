"""In-memory spans around calls into pixelport's modules.

The tracer patches module attributes from the outside, so the package
source stays untouched.  A name is patched where the caller looks it up:
``cli`` binds ``read_image``, ``write_image``, ``load_config``,
``decompose`` and ``synthesize`` with ``from ... import``, so those are
wrapped as ``pixelport.cli.<name>``; ``cli`` calls ``spdc``, ``channel``
and ``fock`` through the module objects, and ``fock`` resolves its own
helpers through its globals, so those are wrapped in their home modules.

All calls run on the caller's thread (the benchmark leaves
PIXELPORT_THREADS unset), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _pixel_shots(args, kwargs):
    field = args[0] if args else kwargs["field"]
    n_shots = kwargs.get("n_shots", args[3] if len(args) > 3 else 0)
    return field.geometry.n_pixels * max(1, n_shots)


# (module, attribute, span name, work counter).  A work counter turns the
# call's arguments into the units of work the span did: bytes for file IO,
# pixels x max(1, n_shots) for the channel.
WRAPPED = (
    ("pixelport.cli", "load_config", "config.load_config", None),
    ("pixelport.cli", "read_image", "imagefile.read_image", _file_bytes),
    ("pixelport.cli", "write_image", "imagefile.write_image", _file_bytes),
    ("pixelport.cli", "decompose", "grid.decompose", None),
    ("pixelport.cli", "synthesize", "grid.synthesize", None),
    ("pixelport.spdc", "profile_for_grid", "spdc.profile_for_grid", None),
    ("pixelport.channel", "teleport_image", "channel.teleport_image", _pixel_shots),
    ("pixelport.fock", "run_all_checks", "fock.run_all_checks", None),
    ("pixelport.fock", "oracle_average_fidelity", "fock.oracle_average_fidelity", None),
    ("pixelport.fock", "photocurrent_check", "fock.photocurrent_check", None),
    ("pixelport.fock", "verify_eigen_relations", "fock.verify_eigen_relations", None),
    ("pixelport.fock", "project_bell", "fock.project_bell", None),
    ("pixelport.fock", "displacement", "fock.displacement", None),
)

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    work: float = 0.0


class Tracer:
    """Collects spans and per-name work counts while installed."""

    def __init__(self, modules: dict):
        self.modules = modules  # dotted name -> imported module
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if work is not None:
                    self.spans[idx].work = work(args, kwargs)

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for mod_name, attr, name, work in WRAPPED:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, work))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    def run_op(self, op_id: int, call):
        """Run ``call`` as one traced op under a root span."""
        self.op = op_id
        self.install()
        idx = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(idx)
            self.uninstall()

    def dump(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _inside(spans: list[Span], i: int, ancestor: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer rows, each a mean per traced op unless it is a rate or ratio.

    A layer a workload never calls reads 0: its busy time and calls are
    zero, and so are its rates, which have no denominator.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0.0) + s.work

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    def rate(name, scale):
        t = busy.get(name, 0.0)
        return work.get(name, 0.0) * scale / t if t > 0 else 0.0

    def inner_calls(name):
        return sum(1 for i, s in enumerate(spans) if s.name == name and _inside(spans, i, "fock.oracle_average_fidelity"))

    bell_in_avg = inner_calls("fock.project_bell")
    channel_s = busy.get("channel.teleport_image", 0.0)
    shots = work.get("channel.teleport_image", 0.0)
    return {
        "imagefile.read_image.busy_s": per_op(busy, "imagefile.read_image"),
        "imagefile.read_image.mb_per_s": rate("imagefile.read_image", 1e-6),
        "imagefile.write_image.busy_s": per_op(busy, "imagefile.write_image"),
        "imagefile.write_image.mb_per_s": rate("imagefile.write_image", 1e-6),
        "cli.self_s": per_op(own, ROOT),
        "channel.teleport_image.busy_s": per_op(busy, "channel.teleport_image"),
        "channel.ns_per_pixel_shot": channel_s * 1e9 / shots if shots else 0.0,
        "spdc.profile_for_grid.busy_s": per_op(busy, "spdc.profile_for_grid"),
        "grid.busy_s": per_op(busy, "grid.decompose") + per_op(busy, "grid.synthesize"),
        "config.load_config.busy_s": per_op(busy, "config.load_config"),
        "fock.run_all_checks.busy_s": per_op(busy, "fock.run_all_checks"),
        "fock.oracle_average_fidelity.busy_s": per_op(busy, "fock.oracle_average_fidelity"),
        "fock.photocurrent_check.busy_s": per_op(busy, "fock.photocurrent_check"),
        "fock.verify_eigen_relations.busy_s": per_op(busy, "fock.verify_eigen_relations"),
        "fock.project_bell.calls": per_op(calls, "fock.project_bell"),
        "fock.project_bell.self_s": per_op(own, "fock.project_bell"),
        "fock.displacement.calls": per_op(calls, "fock.displacement"),
        "fock.displacement.busy_s": per_op(busy, "fock.displacement"),
        "fock.displacement_per_outcome": inner_calls("fock.displacement") / bell_in_avg if bell_in_avg else 0.0,
    }


def op_shares(spans: list[Span]) -> dict[str, float]:
    """Share of root-span time spent in each direct child layer and in cli itself."""
    selfs = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    shares: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        if s.parent < 0:
            shares["cli.self"] = shares.get("cli.self", 0.0) + st / total
        elif spans[s.parent].parent < 0:
            shares[s.name] = shares.get(s.name, 0.0) + (s.end - s.start) / total
    return shares
