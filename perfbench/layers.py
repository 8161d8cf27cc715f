"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans. Every nanosecond of a
command's ``cli.run`` span therefore lands in exactly one layer. Times are
totals over the commands of one pass, like the end-to-end ``wall_s``.
"""

from collections import defaultdict

import tracer

LAYERS = ("partitions", "characters", "vanishing", "sampling", "table_stats",
          "groups", "cli")


class PassTrace:
    """Accumulates the traces of the commands of one pass."""

    def __init__(self):
        self.self_ns = defaultdict(int)   # layer -> self time
        self.incl_ns = defaultdict(int)   # span name -> total duration
        self.calls = defaultdict(int)     # span name -> number of spans
        self.counters = defaultdict(float)
        self.cache_misses = 0
        self.peak_mib = 0.0
        self.memo_entries = 0
        self.table_cache = 0
        self.le_cache = 0
        self.headrooms = []
        self.import_ns = 0
        self.wall_ns = 0
        self.spans = 0
        self.attributed = []  # per command: share of in-process wall in spans

    def add(self, path: str, doc: dict) -> str:
        """Add one command's trace; returns a one-line summary of it."""
        names = doc["names"]
        name, parent, start, end = tracer.read_spans(path, doc["spans"])
        count = doc["spans"]
        dur = [end[i] - start[i] for i in range(count)]
        child = [0] * count
        root_ns = 0
        for i in range(count):
            p = parent[i]
            if p < 0:
                root_ns += dur[i]
            else:
                child[p] += dur[i]
                if (names[name[i]] == "characters.character_table"
                        and names[name[p]] == "characters.cached_table"):
                    self.cache_misses += 1
        layer_ns = defaultdict(int)
        for i in range(count):
            full = names[name[i]]
            layer_ns[full.split(".", 1)[0]] += dur[i] - child[i]
            self.incl_ns[full] += dur[i]
            self.calls[full] += 1
        for layer, ns in layer_ns.items():
            self.self_ns[layer] += ns
        for key, value in doc["counters"].items():
            if key not in ("partitions.cap", "partitions.max_pn"):
                self.counters[key] += value
        cap = doc["counters"].get("partitions.cap")
        pn = doc["counters"].get("partitions.max_pn")
        if cap and pn:
            self.headrooms.append(cap / pn)
        self.peak_mib = max(self.peak_mib, doc["peak_layer_kib"] / 1024)
        self.memo_entries += doc["memo_entries"]
        self.table_cache = max(self.table_cache, doc["caches"]["characters._table_cache"])
        self.le_cache = max(self.le_cache, doc["caches"]["partitions._le_cache"])
        self.import_ns += doc["import_ns"]
        self.wall_ns += doc["wall_ns"]
        self.spans += count
        self.attributed.append((doc["import_ns"] + root_ns) / doc["wall_ns"])
        parts = [f"wall {doc['wall_ns'] / 1e9:.3f} s", f"import {doc['import_ns'] / 1e9:.3f} s"]
        parts += [f"{layer} {ns / 1e9:.3f} s" for layer, ns in
                  sorted(layer_ns.items(), key=lambda kv: -kv[1])]
        parts.append(f"characters peak RSS growth {doc['peak_layer_kib'] / 1024:.1f} MiB")
        return ", ".join(parts)

    def _incl_s(self, *names: str) -> float:
        return sum(self.incl_ns[n] for n in names) / 1e9

    def _calls(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def metrics(self) -> dict[str, float]:
        incl, calls = self._incl_s, self._calls
        table_s = incl("characters.character_table")
        mn_calls = calls("characters._mn", "characters.mn_value")
        mn_s = incl("characters._mn", "characters.mn_value")
        values = self.counters["characters.values"] + mn_calls
        cached = calls("characters.cached_table")
        up_calls, ct_calls = calls("sampling.uniform_partition"), calls("sampling.random_cycle_type")
        up_s, ct_s = incl("sampling.uniform_partition"), incl("sampling.random_cycle_type")

        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "characters.table_s": table_s,
            "characters.values": values,
            "characters.values_per_s": _rate(values, table_s + mn_s),
            "characters.peak_mib": self.peak_mib,
            "characters.cache_hits": cached - self.cache_misses,
            "characters.cache_misses": self.cache_misses,
            "characters.cache_entries": self.table_cache,
            "characters.mn_calls": mn_calls,
            "characters.mn_s": mn_s,
            "characters.mn_memo_entries": self.memo_entries,
            "partitions.enumerate_s": incl("partitions.enumerate_partitions",
                                           "partitions.bounded_partitions"),
            "partitions.bounded_yield": self.counters["partitions.bounded_partitions:yield"],
            "partitions.cap_headroom": min(self.headrooms, default=0.0),
            "partitions.unrank_calls": calls("partitions.unrank"),
            "partitions.unrank_s": incl("partitions.unrank"),
            "partitions.le_cache_entries": self.le_cache,
            "vanishing.omega_set_s": incl("vanishing.omega_set"),
            "vanishing.q_of_omega_s": incl("vanishing.q_of_omega"),
            "vanishing.omega_size": self.counters["vanishing.omega_size"],
            "vanishing.exact_pzero_s": incl("vanishing.exact_pzero"),
            "sampling.uniform_partition_calls": up_calls,
            "sampling.uniform_partition_s": up_s,
            "sampling.cycle_type_calls": ct_calls,
            "sampling.cycle_type_s": ct_s,
            "sampling.samples_per_s": _rate(up_calls + ct_calls, up_s + ct_s),
            "groups.load_s": incl("groups.load_class_data"),
            "groups.omega_check_s": incl("groups.best_omega_check"),
            "groups.omega_check_subsets": self.counters["groups.omega_check_subsets"],
            "groups.export_s": incl("groups.symmetric_group_json"),
            "cli.import_s": self.import_ns / 1e9,
            "trace.wall_s": self.wall_ns / 1e9,
            "trace.spans": self.spans,
            "trace.attributed_share": min(self.attributed, default=0.0),
        })
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0
