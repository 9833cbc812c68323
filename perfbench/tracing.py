"""Span tracing of the team_disclosure layers, installed from outside the package.

Every public function of the traced modules, plus ``DeliberationProtocol.evaluate``,
is replaced by a wrapper that records a span (name, start, end, parent, tag).
A wrapper is installed on every module attribute that holds the original
function, because callers look names up in their own module: ``equilibrium``
calls its imported ``posterior_no_disclosure``, ``cli`` its imported
``verify_equilibrium``, and so on. Patching only the defining module would
miss those calls.

Spans stay in memory in flat arrays and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans;
calls are strictly nested in one thread, so children never overlap.

Work done in the ``sweep --jobs`` worker processes is invisible here: the
workers hold their own copies of the wrappers and their spans never reach
this process. That time shows up as self time of ``cli.main``.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("protocols", "outcomes", "equilibrium", "binary_env", "configio", "cli")
PACKAGE = "team_disclosure"


def _tag_by_members(args, kwargs):
    dist = args[0] if args else kwargs["dist"]
    return f"n{dist.space.n}"


# Extra label per span, so that one layer's self time can be split by input size.
TAGGERS = {"equilibrium.find_equilibria_report": _tag_by_members}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("l")
        self.tag_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, tag_id: int = -1) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.tag_id.append(tag_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.intern(name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = self.intern(tagger(args, kwargs)) if tagger else -1
            idx = self.open(name_id, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path) -> None:
        """Write one tab-separated line per span: index, name, tag, parent index, start, end."""
        with open(path, "w") as out:
            out.write("index\tname\ttag\tparent\tstart\tend\n")
            for idx in range(len(self.start)):
                tag = self.tag_id[idx]
                out.write(
                    f"{idx}\t{self.names[self.name_id[idx]]}\t"
                    f"{self.names[tag] if tag >= 0 else ''}\t{self.parent[idx]}\t"
                    f"{self.start[idx]!r}\t{self.end[idx]!r}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions wherever the package holds them."""
    modules = [sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES]
    holders = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
    replaced: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            replaced[id(fn)] = tracer.wrap(f"{short}.{attr}", fn)
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if id(value) in replaced:
                setattr(holder, attr, replaced[id(value)])
    protocol_cls = sys.modules[f"{PACKAGE}.protocols"].DeliberationProtocol
    protocol_cls.evaluate = tracer.wrap("protocols.evaluate", protocol_cls.evaluate)
