"""Outside-in tracing of posetcat: wrap public functions at their module attributes.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by wrapped calls made inside it, so a layer's `self_s` is the
time spent in that layer's own code (and in unwrapped helpers it calls,
such as the `poset` primitives, which every importer binds by name).

The tracer keeps one span stack and is meant for one thread: count with
`workers > 1` only through `Tracer.original`, which bypasses the wrappers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "items", "args")

    def __init__(self, distinct: bool):
        self.calls = 0
        self.self_s = 0.0
        self.items = 0  # maps yielded (generators) or counted (count functions)
        self.args: set | None = set() if distinct else None


def _freeze(value):
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._originals: dict[str, object] = {}
        self._child_time: list[float] = []
        self.report = None  # the VerificationReport when verify_all ran

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self) -> float:
        self._child_time.append(0.0)
        return perf_counter()

    def _leave(self, stat: Stat, start: float):
        duration = perf_counter() - start
        stat.self_s += duration - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration

    def _stat(self, name: str, distinct: bool) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(distinct)
        return stat

    # -- wrappers -----------------------------------------------------------
    def _wrap_call(self, name: str, fn, distinct: bool, counts_items: bool):
        stat = self._stat(name, distinct)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.args is not None:
                stat.args.add((_freeze(args), _freeze(sorted(kwargs.items()))))
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, start)
            if counts_items:
                stat.items += result
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stat = self._stat(name, False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(stat, start)
                stat.items += 1
                yield item

        return wrapper

    def install(self, owner, attr: str, name: str, *, distinct: bool = False,
                generator: bool = False, counts_items: bool = False):
        """Replace `owner.attr` with a traced wrapper recorded under `name`.

        For a module-level function, every loaded posetcat module that bound
        the same object by name (`from .x import f`) gets the wrapper too.
        """
        fn = getattr(owner, attr)
        self._originals[name] = fn
        if generator:
            wrapped = self._wrap_generator(name, fn)
        else:
            wrapped = self._wrap_call(name, fn, distinct, counts_items)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "posetcat" and getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)

    def original(self, name: str):
        """The unwrapped function recorded under `name` (keeps `cache_info`)."""
        return self._originals[name]


def install_posetcat(tracer: Tracer):
    """Wrap the layer functions the benchmark reports on."""
    from posetcat import catalog, checks, karoubi, presheaf

    for fn in ("enumerate_posets", "enumerate_lattices", "monotone_maps",
               "canonical_key", "find_isomorphism"):
        tracer.install(catalog, fn, f"catalog.{fn}")
    tracer.install(catalog, "count_monotone_maps", "catalog.count_monotone_maps",
                   counts_items=True)
    tracer.install(catalog, "enumerate_monotone_maps", "catalog.enumerate_monotone_maps",
                   generator=True)
    for fn in ("audit_cube_idempotents", "split_idempotent", "retract_certificate"):
        tracer.install(karoubi, fn, f"karoubi.{fn}")
    for fn in ("left_kan", "left_kan_map", "representable", "subpresheaf", "pushout",
               "delta_site", "triangulate", "horn_attachment_square"):
        tracer.install(presheaf, fn, f"presheaf.{fn}")
    tracer.install(presheaf, "horn", "presheaf.horn", distinct=True)
    tracer.install(presheaf.Presheaf, "validate", "presheaf.Presheaf.validate")
    tracer.install(presheaf.PresheafMap, "validate", "presheaf.PresheafMap.validate")

    run_all = checks.verify_all

    @functools.wraps(run_all)
    def verify_all(*args, **kwargs):
        tracer.report = run_all(*args, **kwargs)
        return tracer.report

    checks.verify_all = verify_all


def summary(tracer: Tracer) -> dict:
    """Flat `<layer>.<function>.<stat>` numbers for everything traced."""
    out: dict[str, float] = {}
    for name, stat in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.self_s"] = stat.self_s
        if stat.args is not None:
            out[f"{name}.distinct_args"] = len(stat.args)
    out["catalog.count_monotone_maps.leaves"] = tracer.stats["catalog.count_monotone_maps"].items
    out["catalog.enumerate_monotone_maps.maps"] = tracer.stats["catalog.enumerate_monotone_maps"].items
    for name in ("catalog.monotone_maps", "catalog.enumerate_posets",
                 "catalog.enumerate_lattices", "presheaf.delta_site"):
        info = tracer.original(name).cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    if tracer.report is not None:
        for record in tracer.report.checks:
            out[f"checks.{record.name}_s"] = record.elapsed
    return out
