"""Instrumentation for the benchmark: run capture and the span tracer.

Every layer is timed from outside the package.  While a pass runs, module
functions of ``delaybandits`` are swapped for timed wrappers, and the
learner and the two adversaries handed to ``core.run_game`` (and the loss
adversary handed to ``core.policy_regret``) are swapped for proxies whose
methods are timed wrappers.  The originals are restored when the pass
ends; nothing under ``src/`` is edited.

Spans are aggregated in memory by call path, so a loss call made by the
engine and one made by the regret replay land in different nodes.  Coarse
spans (a few per run) are also kept one by one with their parent.  The
trace is written out only by the caller, when the benchmark ends.

The cost of the wrappers themselves is calibrated on an empty callee and
subtracted: ``c_in`` is what a span's own clock sees of an empty call,
``c_out`` what the caller pays beyond that.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


class Node:
    """Aggregated spans sharing one call path."""

    __slots__ = ("name", "total", "count", "kids")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0
        self.kids: dict = {}

    def kid(self, name: str) -> "Node":
        node = self.kids.get(name)
        if node is None:
            node = self.kids[name] = Node(name)
        return node


class Tracer:
    """Span tree for one pass, plus the wrapper-cost calibration."""

    def __init__(self, c_in: float = 0.0, c_out: float = 0.0):
        self.root = Node("pass")
        self.stack = [self.root]
        self.records: list = []   # coarse spans: [name, start, end, parent]
        self.open: list = []      # indices of open coarse spans
        self.c_in = c_in
        self.c_out = c_out
        self.counts = {"clamped_components": 0, "clipped_batches": 0}

    def timed(self, name: str, fn):
        """Wrap ``fn`` in an aggregated span called ``name``."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.kids.get(name)
            if node is None:
                node = parent.kid(name)
            stack.append(node)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                node.count += 1
                stack.pop()

        return wrapper

    def coarse(self, name: str, fn):
        """Like :meth:`timed`, and also keep each span as its own record."""
        inner = self.timed(name, fn)
        records, open_ = self.records, self.open

        def wrapper(*args, **kwargs):
            records.append([name, perf_counter(), None, open_[-1] if open_ else None])
            open_.append(len(records) - 1)
            try:
                return inner(*args, **kwargs)
            finally:
                records[open_.pop()][2] = perf_counter()

        return wrapper

    def timed_validate(self, fn):
        """Timed ``validate_split`` that also counts clamped components by
        comparing its input with its output."""
        stack, counts = self.stack, self.counts
        name = "core.validate_split"

        def wrapper(split, delay_span):
            comps = split.components
            parent = stack[-1]
            node = parent.kids.get(name)
            if node is None:
                node = parent.kid(name)
            stack.append(node)
            t0 = perf_counter()
            try:
                out = fn(split, delay_span)
            finally:
                node.total += perf_counter() - t0
                node.count += 1
                stack.pop()
            if out.components is not comps:
                counts["clamped_components"] += sum(
                    1 for a, b in zip(comps, out.components) if a != b
                )
            return out

        return wrapper

    # -- calibrated readings -------------------------------------------------

    def net(self, node: Node) -> float:
        """Inclusive time of ``node`` with every wrapper's cost removed."""
        c_tot = self.c_in + self.c_out
        below = 0.0
        todo = list(node.kids.values())
        while todo:
            k = todo.pop()
            below += k.count * c_tot
            todo.extend(k.kids.values())
        return node.total - node.count * self.c_in - below

    def self_time(self, node: Node) -> float:
        """Time of ``node`` not covered by its child spans, wrapper cost removed."""
        covered = sum(k.total + k.count * self.c_out for k in node.kids.values())
        return node.total - node.count * self.c_in - covered

    def summary(self) -> dict:
        """``{(parent, name): [net_s, self_s, count]}`` summed over the tree."""
        out: dict = {}
        todo = [(self.root, k) for k in self.root.kids.values()]
        while todo:
            parent, node = todo.pop()
            acc = out.setdefault((parent.name, node.name), [0.0, 0.0, 0])
            acc[0] += self.net(node)
            acc[1] += self.self_time(node)
            acc[2] += node.count
            todo.extend((node, k) for k in node.kids.values())
        return out


def calibrate(calls: int = 10000, repeats: int = 5) -> tuple:
    """(c_in, c_out) in seconds for one wrapped call of an empty function."""

    def empty(*args):
        return None

    ins, tots = [], []
    for _ in range(repeats):
        cal = Tracer()
        wrapped = cal.timed("empty", empty)
        t0 = perf_counter()
        for _ in range(calls):
            empty(1, 2)
        direct = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        traced = perf_counter() - t0
        ins.append(cal.root.kids["empty"].total / calls)
        tots.append((traced - direct) / calls)
    c_in = statistics.median(ins)
    return c_in, max(statistics.median(tots) - c_in, 0.0)


# ---------------------------------------------------------------------------
# proxies for the pluggable components


class _Proxy:
    """Stands in for a component: listed methods are timed, every other
    attribute is read from the real object."""

    def __init__(self, real, tracer: Tracer, layer: str, methods):
        self._real = real
        for m in methods:
            setattr(self, m, tracer.timed(f"{layer}.{m}", getattr(real, m)))

    def __getattr__(self, name):
        return getattr(self._real, name)


class _InnerProxy:
    """Stands in for a mini-batch wrapper's inner learner: counts its
    updates and the batch averages the wrapper clipped before sending."""

    def __init__(self, wrapper, tracer: Tracer):
        inner = wrapper.inner
        self._real = inner
        self.act = inner.act
        observe = tracer.timed("learners.inner_observe", inner.observe)
        counts = tracer.counts

        def checked(t, action, estimate):
            if wrapper.accumulator / wrapper.batch_size > 1.0:
                counts["clipped_batches"] += 1
            return observe(t, action, estimate)

        self.observe = checked

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# patching


class Capture:
    """Last components built by ``cli._build_run`` and last transcript
    returned by ``core.run_game``, so runs can be checked from outside."""

    def __init__(self):
        self.built = None
        self.transcript = None


@contextmanager
def _patched(patches):
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def instrument(tracer: Tracer | None):
    """Install the capture hooks and, with a tracer, the timed wrappers.

    Yields a :class:`Capture`.  Hooks are per run, not per round, so the
    untraced run pays one extra call per run for them.
    """
    from delaybandits import adversaries as adv
    from delaybandits import analysis, cli, core

    cap = Capture()
    build, run_game, regret = cli._build_run, core.run_game, core.policy_regret
    timed_build, timed_game, patches = build, run_game, []
    if tracer is not None:
        timed_build = tracer.coarse("cli._build_run", build)

        def proxied_game(config, learner, loss, delay):
            if hasattr(learner, "inner"):
                learner.inner = _InnerProxy(learner, tracer)
            return run_game(
                config,
                _Proxy(learner, tracer, "learners", ("act", "observe")),
                _Proxy(loss, tracer, "adversaries", ("loss",)),
                _Proxy(delay, tracer, "adversaries", ("split",)),
            )

        def proxied_regret(transcript, loss_adversary, comparators=None):
            proxy = _Proxy(loss_adversary, tracer, "adversaries", ("loss",))
            return regret(transcript, proxy, comparators)

        timed_game = tracer.coarse("core.run_game", proxied_game)
        substream = tracer.coarse("seeding.substream", cli.substream)
        table_build = tracer.coarse("adversaries.table_build", adv.TableLoss.from_seed)
        patches = [
            (core, "policy_regret", tracer.coarse("core.policy_regret", proxied_regret)),
            (cli, "substream", substream),
            (adv, "substream", substream),
            (adv.TableLoss, "from_seed", staticmethod(table_build)),
            (analysis, "fit_exponent",
             tracer.coarse("analysis.fit_exponent", analysis.fit_exponent)),
            (core, "validate_split", tracer.timed_validate(core.validate_split)),
            (core, "observe_aggregate",
             tracer.timed("core.observe_aggregate", core.observe_aggregate)),
            (core, "push_split", tracer.timed("core.push_split", core.push_split)),
        ]

    def build_hook(spec, horizon, master_seed):
        cap.built = timed_build(spec, horizon, master_seed)
        walk = getattr(cap.built[2], "walk", None)
        if tracer is not None and walk is not None:
            # the walk is lazy; materialize it here so its cost is its own span
            tracer.coarse("adversaries.walk_materialize", walk.values)()
        return cap.built

    def game_hook(config, learner, loss, delay):
        cap.transcript = timed_game(config, learner, loss, delay)
        return cap.transcript

    patches += [(cli, "_build_run", build_hook), (core, "run_game", game_hook)]
    with _patched(patches):
        yield cap


# ---------------------------------------------------------------------------
# memory


def deep_size(obj) -> int:
    """Bytes held by ``obj`` and everything reachable from it, each object
    counted once.  Follows tuples, lists, dicts, instance dicts, slots and
    array bases."""
    seen = set()
    total = 0
    todo = [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, (tuple, list)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())
        elif isinstance(o, (str, bytes, int, float, bool, type(None))):
            continue
        else:
            base = getattr(o, "base", None)
            if base is not None and hasattr(o, "nbytes"):
                todo.append(base)
            if hasattr(o, "__dict__"):
                todo.append(vars(o))
            for cls in type(o).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(o, slot):
                        todo.append(getattr(o, slot))
    return total
