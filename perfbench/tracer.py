"""Span recorder that instruments snchar from outside, at module boundaries.

Nothing inside a module is touched. Instead, every place where one snchar
module looks up another is rerouted through a wrapper that records a span:

* a caller's module alias (``vanishing.ch``, ``sampling.pt``, ...) is
  replaced by a view whose functions are wrapped, so ``ch._mn`` called from
  ``vanishing`` is a span while ``_mn`` called inside ``characters`` is not;
* a function imported by name from another module (``cli.stats_series``) is
  replaced by its wrapper;
* the public functions of the modules in ``INTRA`` are also wrapped in their
  own namespace, so that ``lemma_bound`` calling ``omega_set`` is split.
  ``partitions`` and ``sampling`` are left out of ``INTRA`` because their
  public functions call each other per partition or per draw (and
  ``bounded_partitions`` recurses through itself).

A span is (name, parent, start, end); spans stay in compact arrays in memory
and are written out once the command has finished. A generator is recorded
as one span per resume, so the consumer's work between items is not counted
as the generator's.
"""

import inspect
import json
import resource
import sys
import time
import types
from array import array

INTRA = ("characters", "vanishing", "table_stats", "groups")

# Layer whose outermost spans measure how much they raise the peak RSS.
PEAK_LAYER = "characters"

_clock = time.perf_counter_ns


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.memos: dict[int, dict] = {}
        self.peak_depth = 0
        self.peak_mark = 0
        self.peak_kib = 0  # growth of the peak RSS while inside PEAK_LAYER

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- peak memory of the PEAK_LAYER -----------------------------------------

    def _peak_enter(self) -> None:
        if self.peak_depth == 0:
            self.peak_mark = _maxrss_kib()
        self.peak_depth += 1

    def _peak_exit(self) -> None:
        self.peak_depth -= 1
        if self.peak_depth == 0:
            self.peak_kib += _maxrss_kib() - self.peak_mark

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        peak = name.split(".", 1)[0] == PEAK_LAYER
        hook = _HOOKS.get(name)
        rec = self

        if inspect.isgeneratorfunction(fn):
            yields = name + ":yield"

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = rec.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(i)
                    rec.count(yields)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            if peak:
                rec._peak_enter()
            i = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
                if peak:
                    rec._peak_exit()
            if hook is not None:
                hook(rec, args, result)
            return result
        return traced

    def write(self, path: str, extra: dict) -> None:
        """Write the span arrays to path + '.bin' and the rest to path."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        doc = {
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "memo_entries": sum(len(m) for m in self.memos.values()),
            "peak_layer_kib": self.peak_kib,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def read_spans(path: str, count: int):
    """The four span arrays written by Recorder.write."""
    arrays = (array("H"), array("i"), array("q"), array("q"))
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


# Counters read from a call's arguments or result at the boundary.

def _keep_memo(rec, args, result):
    memo = args[2]
    rec.memos[id(memo)] = memo


def _table_values(rec, args, result):
    rec.count("characters.values", len(result.characters) ** 2)


def _omega_size(rec, args, result):
    rec.count("vanishing.omega_size", len(result))


def _subsets(rec, args, result):
    rec.count("groups.omega_check_subsets", result.subsets_checked)


def _cap(rec, args, result):
    rec.counters["partitions.cap"] = result


def _pn(rec, args, result):
    rec.counters["partitions.max_pn"] = max(rec.counters.get("partitions.max_pn", 0), result)


_HOOKS = {
    "characters._mn": _keep_memo,
    "characters.character_table": _table_values,
    "vanishing.omega_set": _omega_size,
    "groups.best_omega_check": _subsets,
    "partitions.enumeration_cap": _cap,
    "partitions.partition_count": _pn,
}


class _View:
    """Stand-in for a module as another module sees it: the same attributes,
    with each function of the module replaced by its wrapper."""

    def __init__(self, module, wrapped):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if inspect.isfunction(value):
            value = self._wrapped.get(value, value)
            setattr(self, attr, value)
        return value


def instrument(package) -> Recorder:
    """Install boundary wrappers on an imported package and its submodules."""
    rec = Recorder()
    prefix = package.__name__ + "."
    # sys.modules, not vars(package): a submodule attribute of the package can
    # be shadowed by a function of the same name (snchar.table_stats).
    modules = [m for name, m in sys.modules.items() if name.startswith(prefix)]
    wrapped = {}  # original function -> its wrapper
    for mod in modules:
        layer = mod.__name__[len(prefix):]
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                wrapped[value] = rec.wrap(f"{layer}.{attr}", value)
    views = {m.__name__: _View(m, wrapped) for m in modules}
    for mod in (package, *modules):
        layer = mod.__name__[len(prefix):]
        ns = vars(mod)
        for attr, value in list(ns.items()):
            if isinstance(value, types.ModuleType):
                if value.__name__ in views and value is not mod:
                    ns[attr] = views[value.__name__]
            elif inspect.isfunction(value) and value in wrapped:
                own = value.__module__ == mod.__name__
                if not own or (layer in INTRA and not attr.startswith("_")):
                    ns[attr] = wrapped[value]
    return rec
