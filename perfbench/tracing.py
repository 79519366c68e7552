"""Per-layer tracing of tamecert from outside the package.

``Tracer.install()`` replaces the public functions of each layer with timed
wrappers, in every tamecert namespace that holds them: a name bound with
``from .module import name`` is a separate binding that must be patched on
its own.  Hot inner calls (``level_for``, ``compare``, coding words, the
kernels) only add to per-thread counters; the other wrappers also record a
span (name, parent, start, end, thread).  Spans and counters stay in memory
until the caller collects ``counter_totals()`` and ``spans``; ``derive``
turns summed totals into the reported ratios.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

KERNELS = ("extract_factors", "distinct_projection_count", "project_masks", "window_oscillation")
KERNEL_ARRAYS = {  # positional arguments the kernel reads as arrays
    "extract_factors": (0,),
    "distinct_projection_count": (0, 1),
    "project_masks": (0, 1),
    "window_oscillation": (0, 2, 3),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tamecert" or name.startswith("tamecert."))]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[defaultdict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.patched: dict[str, list[str]] = {}
        self.spans: list[tuple] = []  # (id, name, parent, start, end, thread)
        self._next_id = 0
        self.root: int | None = None

    # -- recording ------------------------------------------------------------

    def counters(self) -> defaultdict:
        c = getattr(self._local, "counters", None)
        if c is None:
            c = defaultdict(float)
            with self._lock:
                self._thread_counters.append(c)
            self._local.counters = c
        return c

    def _stack(self) -> list:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def _open(self, root: bool) -> tuple[int, int | None]:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        if root:
            self.root = sid
        return sid, parent

    def _close(self, sid, parent, name, start, end, root):
        self._stack().pop()
        if root:
            self.root = None
        with self._lock:
            self.spans.append((sid, name, parent, start, end, threading.get_ident()))

    def timed(self, name: str, fn, *args, root: bool = False, **kwargs):
        """Call fn under a span and add its time to ``<name>.s``."""
        c = self.counters()
        sid, parent = self._open(root)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._close(sid, parent, name, start, end, root)
            c[name + ".s"] += end - start
            c[name + ".calls"] += 1

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper, skip=()) -> None:
        """Bind ``wrapper`` wherever the original ``owner.attr`` is bound."""
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        places = [owner] if isinstance(owner, type) else [
            m for m in _package_modules() if m not in skip
        ]
        hit = []
        for place in places:
            for name, value in list(vars(place).items()):
                if value is original:
                    self._patches.append((place, name, original))
                    setattr(place, name, wrapper)
                    hit.append(getattr(place, "__name__", repr(place)))
        if not hit:
            raise RuntimeError(f"{owner!r}.{attr} is bound nowhere")
        self.patched[f"{getattr(owner, '__name__', owner)}.{attr}"] = hit

    def _span_wrapper(self, name, fn, root=False):
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, *args, root=root, **kwargs)
        return wrapper

    def _count_wrapper(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                c = self.counters()
                c[name + ".s"] += time.perf_counter() - start
                c[name + ".calls"] += 1
            if extra is not None:
                extra(c, args, out)
            return out
        return wrapper

    def install(self, experiment_ids: dict[int, str]) -> None:
        """Patch every layer.  ``experiment_ids`` maps id(params) to the
        experiment id, so each dispatcher call gets its experiment's name."""
        from tamecert import (_kernels, boundary, cli, envelope, exactarith, order, rank,
                              systems, tameness)

        def levels(c, args, out):
            c["exactarith.level_for.levels"] += out

        self._replace(exactarith.RotationNumber, "level_for", self._count_wrapper(
            "exactarith.level_for", exactarith.RotationNumber.level_for, levels))
        self._replace(exactarith.CirclePoint, "compare", self._count_wrapper(
            "exactarith.compare", exactarith.CirclePoint.compare))
        self._replace(exactarith, "one_sided_approach", self._span_wrapper(
            "exactarith.one_sided_approach", exactarith.one_sided_approach))

        self._replace(order, "helly_determining_set", self._span_wrapper(
            "order.helly_determining_set", order.helly_determining_set))

        def symbols(c, args, out):
            c["systems.coding_word.symbols"] += len(out)

        self._replace(systems.SplitCircleSystem, "coding_word", self._count_wrapper(
            "systems.coding_word", systems.SplitCircleSystem.coding_word, symbols))
        self._replace(systems.CutProjectCoding, "word", self._span_wrapper(
            "systems.cut_project_word", systems.CutProjectCoding.word))

        for name in ("split_sample", "limit_map", "sorgenfrey_isolation", "rigidity_probe"):
            self._replace(envelope, name, self._span_wrapper(
                f"envelope.{name}", getattr(envelope, name)))
        metric_word = envelope.CodingMetric.word

        def coding_metric_word(metric, x):
            c = self.counters()
            c["envelope.coding_metric.word_calls"] += 1
            if x in metric._words:
                c["envelope.coding_metric.word_hits"] += 1
            return metric_word(metric, x)

        self._replace(envelope.CodingMetric, "word", coding_metric_word)

        max_independence = tameness.max_independence

        def traced_max_independence(*args, **kwargs):
            self._local.bnb = getattr(self._local, "bnb", 0) + 1
            try:
                cert = self.timed("tameness.max_independence", max_independence, *args, **kwargs)
            finally:
                self._local.bnb -= 1
            self.counters()["tameness.witnesses"] += len(cert.witnesses)
            return cert

        self._replace(tameness, "max_independence", traced_max_independence)
        self._replace(tameness, "growth_report", self._span_wrapper(
            "tameness.growth_report", tameness.growth_report))
        self._replace(tameness.IndependenceCertificate, "verify", self._span_wrapper(
            "tameness.certificate_verify", tameness.IndependenceCertificate.verify))

        for name in ("build_instance", "beta_rank"):
            self._replace(rank, name, self._span_wrapper(f"rank.{name}", getattr(rank, name)))

        backends = tuple(_kernels.backends().values())
        for kernel in KERNELS:
            self._replace(_kernels, kernel, self._kernel_wrapper(kernel, getattr(_kernels, kernel)),
                          skip=backends)

        for name in ("power_limit", "boundary_sample"):
            self._replace(boundary, name, self._span_wrapper(
                f"boundary.{name}", getattr(boundary, name)))

        self._replace(cli, "run_config", self._span_wrapper(
            "cli.run_config", cli.run_config, root=True))
        self._replace(cli, "verify_certificate", self._span_wrapper(
            "cli.verify_certificate", cli.verify_certificate))
        for kind, fn in list(cli.DISPATCH.items()):
            self._patches.append((cli.DISPATCH, kind, fn))
            cli.DISPATCH[kind] = self._dispatch_wrapper(fn, kind, experiment_ids)
        self._check_complete()

    def _kernel_wrapper(self, kernel, fn):
        name = f"kernels.{kernel}"
        arrays = KERNEL_ARRAYS[kernel]

        def wrapper(*args):
            c = self.counters()
            c[name + ".bytes"] += sum(np.asarray(args[i]).nbytes for i in arrays)
            start = time.perf_counter()
            try:
                out = fn(*args)
            finally:
                c[name + ".s"] += time.perf_counter() - start
                c[name + ".calls"] += 1
            if kernel == "distinct_projection_count" and getattr(self._local, "bnb", 0):
                c["tameness.bnb_nodes"] += 1
                if out == 1 << len(args[1]):
                    c["tameness.bnb_covers"] += 1
            return out
        return wrapper

    def _dispatch_wrapper(self, fn, kind, experiment_ids):
        def wrapper(params, seed):
            name = "cli.experiment." + experiment_ids.get(id(params), kind)
            return self.timed(name, fn, params, seed)
        return wrapper

    def _check_complete(self) -> None:
        """Fail if any tamecert namespace still holds an unwrapped original."""
        originals = {id(orig) for place, _, orig in self._patches if not isinstance(place, dict)}
        for m in _package_modules():
            if m.__name__.startswith("tamecert._kernels._"):
                continue
            for name, value in vars(m).items():
                if id(value) in originals:
                    raise RuntimeError(f"{m.__name__}.{name} escaped the tracing patch")

    def uninstall(self) -> None:
        for place, name, original in reversed(self._patches):
            if isinstance(place, dict):
                place[name] = original
            else:
                setattr(place, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def counter_totals(self) -> dict[str, float]:
        """Counters summed over threads, plus ``cli.run_config.self_s``."""
        total: defaultdict = defaultdict(float)
        with self._lock:
            for c in self._thread_counters:
                for k, v in c.items():
                    total[k] += v
        total["cli.run_config.self_s"] = self._self_time("cli.run_config")
        return dict(total)

    def _self_time(self, name: str) -> float:
        """Duration of the named spans minus the union of their children."""
        out = 0.0
        for sid, span_name, _, start, end, _ in self.spans:
            if span_name != name:
                continue
            children = sorted((s[3], s[4]) for s in self.spans if s[2] == sid)
            covered, reach = 0.0, start
            for c0, c1 in children:
                c0 = max(c0, reach)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out += (end - start) - covered
        return out


def derive(totals: dict[str, float]) -> dict[str, float]:
    """Replace the raw hit and cover counts by their ratios."""
    out = dict(totals)
    calls = out.pop("envelope.coding_metric.word_calls", 0.0)
    hits = out.pop("envelope.coding_metric.word_hits", 0.0)
    out["envelope.coding_metric.word_hit_ratio"] = hits / calls if calls else 0.0
    covers = out.pop("tameness.bnb_covers", 0.0)
    nodes = out.get("tameness.bnb_nodes", 0.0)
    out["tameness.bnb_cover_ratio"] = covers / nodes if nodes else 0.0
    return out
