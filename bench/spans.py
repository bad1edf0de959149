"""In-memory spans around the public functions of a package, and layer metrics.

The tracer wraps, from outside the package, every public function defined in
one of its modules, both where it is defined and wherever another module of
the package imported it.  Nothing is looked up by a fixed list of names, so a
function that a later version deletes simply records no spans and the
metrics built on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    size: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(args) -> Optional[int]:
    """Element count of the first argument, when it is an array or a list."""
    if not args:
        return None
    first = args[0]
    if hasattr(first, "dtype") and hasattr(first, "size"):
        return int(first.size)
    if isinstance(first, (list, tuple)):
        return len(first)
    return None


class Tracer:
    """Records one span per call of a wrapped function; spans stay in memory."""

    def __init__(self, package: str, layers: tuple[str, ...]):
        self.package = package
        self.layers = layers
        self.spans: list[Span] = []
        self.op = 0
        self._next_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: Optional[int] = None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.op, size))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, _size(args)):
                return fn(*args, **kwargs)

        return traced

    def _targets(self) -> dict[int, tuple[str, object]]:
        """Public, non-generator functions defined in each layer module, by id."""
        targets = {}
        for layer in self.layers:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)
                ):
                    targets[id(value)] = (f"{layer}.{attr}", value)
        return targets

    @contextmanager
    def installed(self):
        """Wrap every target at every import site for the duration of the block."""
        targets = self._targets()
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and target[1] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(target[0], value))
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)


def _matches(name: str, pattern: str) -> bool:
    """``game.`` matches every span of that layer; anything else matches one name."""
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


def inclusive_s(spans: list[Span], pattern: str) -> float:
    """Wall time inside matching spans, counting nested matches once."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if not _matches(span.name, pattern):
            continue
        parent = by_id.get(span.parent)
        while parent is not None and not _matches(parent.name, pattern):
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.duration
    return total


def self_s(spans: list[Span], pattern: str) -> float:
    """Wall time inside matching spans that no child span covers."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return sum(s.duration - covered[s.id] for s in spans if _matches(s.name, pattern))


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def elements(spans: list[Span], name: str) -> int:
    return sum(span.size or 0 for span in spans if span.name == name)


def op_metrics(spans: list[Span], root: str = "cli.main") -> dict[str, float]:
    """Per-layer metrics of one op's spans.

    ``.s`` metrics are inclusive (a layer's time includes the calls it makes
    into other layers, so they may overlap); ``self_s`` metrics are exclusive.
    The ``cli`` stages split the root span around its direct library children:
    read is everything before the first, emit everything after the last.
    """
    mains = [span for span in spans if span.name == root]
    read = emit = cli_self = 0.0
    if mains:
        main = mains[0]
        children = sorted((s for s in spans if s.parent == main.id), key=lambda s: s.start)
        read = (children[0].start if children else main.end) - main.start
        emit = main.end - (children[-1].end if children else main.end)
        cli_self = main.duration - sum(child.duration for child in children)
    return {
        "cli.read_s": read,
        "cli.emit_s": emit,
        "cli.self_s": cli_self,
        "pacbayes.s": inclusive_s(spans, "pacbayes."),
        "model.votes_s": inclusive_s(spans, "model.compute_votes"),
        "model.profile_s": inclusive_s(spans, "model.sort_profile"),
        "model.profile.calls": calls(spans, "model.sort_profile"),
        "model.compensated_cumsum.elements": elements(spans, "model.compensated_cumsum"),
        "game.s": inclusive_s(spans, "game."),
        "game.find_threshold.calls": calls(spans, "game.find_threshold"),
        "abstain.s": inclusive_s(spans, "abstain."),
        "abstain.inner_s": inclusive_s(spans, "abstain.inner_game_value"),
        "oracle.self_s": self_s(spans, "oracle."),
        "oracle.enumerate_s": inclusive_s(spans, "oracle.enumerate_game_value"),
        "oracle.lp_s": inclusive_s(spans, "oracle.lp_best_response"),
        "oracle.grid_s": inclusive_s(spans, "oracle.grid_abstain_value"),
        "oracle.instances": calls(spans, "oracle.enumerate_game_value"),
    }
