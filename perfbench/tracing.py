"""In-memory span recorder installed around bipush's public functions.

Nothing inside the package changes: `Tracer.install` replaces, at run time,
every module attribute that refers to one of the traced functions with a
wrapper that records a span, and `uninstall` puts the originals back. The
push kernels are called with the public `round_hook` argument, so each
round becomes a child span of its kernel carrying the `n_p` it pushed.

A span is (id, name, start, end, parent id, query id, section, extra).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

# (module, attribute) of every traced function, keyed by span name.
FUNCTIONS = {
    "bigraph.load_edge_list": ("bipush.bigraph", "load_edge_list"),
    "bhpp_query.build_index_meta": ("bipush.bhpp_query", "build_index_meta"),
    "bhpp_query.load_meta": ("bipush.bhpp_query", "load_meta"),
    "bhpp_query.bhpp_query": ("bipush.bhpp_query", "bhpp_query"),
    "bhpp_query.topk": ("bipush.bhpp_query", "topk"),
    "push_engine.ss_push": ("bipush.push_engine", "ss_push"),
    "push_engine.pi_push": ("bipush.push_engine", "pi_push"),
    "push_engine.selective_push": ("bipush.push_engine", "selective_push"),
    "push_engine.power_iteration": ("bipush.push_engine", "power_iteration"),
    "baselines.pisp_query": ("bipush.baselines", "pisp_query"),
    "cli.main": ("bipush.cli", "main"),
    "cli.cmd_bench": ("bipush.cli", "cmd_bench"),
}
KERNELS = ("push_engine.ss_push", "push_engine.pi_push", "push_engine.selective_push")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.query_id = None
        self.section = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen_graphs = weakref.WeakSet()

    # -- recording -------------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, extra=None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent, self.query_id, self.section, extra)

    def _round_hook(self, kernel_sid, state):
        def hook(phase, _round, ledger):
            now = time.perf_counter()
            rid = len(self.spans)
            self.spans.append(
                (rid, "round." + phase, state[0], now, kernel_sid, self.query_id,
                 self.section, {"n_p": ledger.n_p - state[1]})
            )
            state[0], state[1] = now, ledger.n_p
        return hook

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            extra = None
            try:
                if name in KERNELS:
                    bound = signature.bind(*args, **kwargs)
                    user_hook = bound.arguments.get("round_hook")
                    state = [start, 0]
                    hook = self._round_hook(sid, state)
                    if user_hook is not None:
                        hook = _chain(hook, user_hook)
                    bound.arguments["round_hook"] = hook
                    # The ledger's n_p is cumulative; rounds report deltas from
                    # the count the kernel starts with.
                    seed = bound.arguments.get("seed_ledger")
                    state[1] = seed.n_p if seed is not None else 0
                    result = fn(*bound.args, **bound.kwargs)
                else:
                    if name == "bhpp_query.bhpp_query":
                        g = args[0]
                        extra = {"first": g not in self._seen_graphs}
                        self._seen_graphs.add(g)
                    result = fn(*args, **kwargs)
                if name in ("bhpp_query.bhpp_query", "baselines.pisp_query"):
                    extra = {**(extra or {}), "trace": result.phase_trace}
                return result
            finally:
                self._close(sid, parent, name, start, extra)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self):
        from bipush.bigraph import BipartiteGraph

        modules = [m for n, m in sys.modules.items() if n == "bipush" or n.startswith("bipush.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

        load = vars(BipartiteGraph)["load"]
        save = vars(BipartiteGraph)["save"]
        fingerprint = vars(BipartiteGraph)["fingerprint"]
        traced_fp = functools.cached_property(self._wrap("bigraph.fingerprint", fingerprint.func))
        traced_fp.__set_name__(BipartiteGraph, "fingerprint")
        for key, value, new in (
            ("load", load, classmethod(self._wrap("bigraph.load", load.__func__))),
            ("save", save, self._wrap("bigraph.save", save)),
            ("fingerprint", fingerprint, traced_fp),
        ):
            self._undo.append((BipartiteGraph, key, value))
            setattr(BipartiteGraph, key, new)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _chain(first, second):
    def hook(*args):
        first(*args)
        second(*args)
    return hook


# -- analysis -------------------------------------------------------------------


def children_of(spans):
    kids: dict[int, list[tuple]] = {}
    for s in spans:
        if s[4] is not None:
            kids.setdefault(s[4], []).append(s)
    return kids


def self_time(span, kids) -> float:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: the traced code is single-threaded)."""
    return (span[3] - span[2]) - sum(c[3] - c[2] for c in kids.get(span[0], ()))
