"""Pure logic of the benchmark: statistics, span self time, the metric
tables and the output-digest gate.  perfbench/run.py does the I/O;
perfbench/test_benchlib.py tests this module."""

import re
import statistics
from array import array

# --- metric names ---------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


# End-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sweep_s_t2", "s"),
    ("peak_rss_mb", "MB"),
]

# Every layer the traced run records (perfbench/trace.h, same order).
# Value: the work unit its ns-per-unit metric divides by, or None, and
# where it runs ("pass", or "setup" for layers that build fixed objects).
# core.ident.templates runs in both; it is reported per pass, because
# the public ident entry points build their identifier on every call.
LAYERS = {
    "core.ident.templates": (None, "pass"),
    "core.overlay.receiver_init": (None, "setup"),
    "sim.workload.build": ("slot", "setup"),
    "sim.runner.cache_lookup": ("sample", "pass"),
    "phy.synth": ("sample", "pass"),
    "channel.multipath": ("sample", "pass"),
    "channel.noise": ("sample", "pass"),
    "channel.awgn": ("sample", "pass"),
    "core.ident.frontend": ("sample", "pass"),
    "dsp.design_lowpass": (None, "pass"),
    "dsp.fir_filter": ("sample", "pass"),
    "dsp.discriminate": ("sample", "pass"),
    "analog.rectifier": ("sample", "pass"),
    "analog.adc": ("sample", "pass"),
    "core.ident.scores": ("sample", "pass"),
    "core.ident.decide": (None, "pass"),
    "sim.calibration.collect": (None, "pass"),
    "sim.calibration.run": (None, "pass"),
    "core.overlay.carrier": ("sample", "pass"),
    "core.overlay.tag_modulate": ("sample", "pass"),
    "core.overlay.sync": ("sample", "pass"),
    "core.overlay.decode:wifi_b": ("sample", "pass"),
    "core.overlay.decode:wifi_n": ("sample", "pass"),
    "core.overlay.decode:ble": ("sample", "pass"),
    "core.overlay.decode:zigbee": ("sample", "pass"),
    "phy.wifi_n_tx": ("sample", "pass"),
    "phy.wifi_n_rx": ("sample", "pass"),
    "phy.viterbi": ("sample", "pass"),
    "core.tag.run_trace": ("slot", "pass"),
}

# Span names that are structure, not layers.
FRAME_SPANS = ("setup", "pass")

# Layers whose metrics are derived rather than reported as recorded:
# sim.calibration.run wraps the whole calibrate_ordered_matching call,
# whose trial collection is replayed under sim.calibration.collect, so
# the search alone is run − collect (see README.md).
DERIVED_ONLY = ("sim.calibration.run", "sim.calibration.collect")

# ns-per-unit names that differ from the generic <layer>_ns_per_<unit>.
NS_METRIC_NAME = {"core.tag.run_trace": "core.tag.ns_per_slot"}

EXTRA_PER_LAYER = [
    ("sim.calibration.search_s", "s"),
    ("sim.calibration.collect_s", "s"),
    ("sim.calibration.tuple_evals", "count"),
    ("sim.calibration.ns_per_tuple_eval", "ns/tuple"),
    ("sim.calibration.search_share", "ratio"),
    ("sim.runner.cache_hit_ratio", "ratio"),
    ("sim.runner.cache_lookups", "count"),
    ("core.overlay.arq_useful_ratio", "ratio"),
    ("sim.runner.overhead_s", "s"),
    ("sim.runner.parallel_efficiency", "ratio"),
    ("sim.runner.layer_coverage", "ratio"),
]


def layer_metric(layer, kind):
    """'core.overlay.decode:ble', '_s' -> 'core.overlay.decode_s.ble'."""
    base, _, qualifier = layer.partition(":")
    return base + kind + ("." + qualifier if qualifier else "")


def per_layer_metrics():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = []
    for layer, (unit, _) in LAYERS.items():
        if layer in DERIVED_ONLY:
            continue
        out.append((layer_metric(layer, "_s"), "s"))
        out.append((layer_metric(layer, "_calls"), "count"))
        if unit:
            name = NS_METRIC_NAME.get(layer, layer_metric(layer, "_ns_per_" + unit))
            out.append((name, "ns/" + unit))
    return out + EXTRA_PER_LAYER


# --- statistics -----------------------------------------------------------

PERCENTILES = (50, 90, 95, 99, 99.9)


def highest_percentile(n):
    """Highest of PERCENTILES with at least ten of n samples beyond it,
    or None when there is none."""
    best = None
    for p in PERCENTILES:
        if n * (100 - p) >= 1000 - 1e-9:  # n * (1 - p/100) >= 10
            best = p
    return best


def summarize(values):
    """Median, the highest percentile with ten samples beyond it (None
    when the run has too few), and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None,
           "percentile_value": None}
    p = highest_percentile(n)
    if p is not None:
        # Nearest-rank percentile.
        rank = max(1, -(-p * n // 100))
        out["percentile"] = p
        out["percentile_value"] = values[int(rank) - 1]
    return out


# --- spans ----------------------------------------------------------------

class Spans:
    """Spans in the order they were opened (a parent before its children,
    siblings by start time), held column-wise so a traced run of a few
    hundred thousand spans stays small."""

    def __init__(self, names=()):
        self.names = list(names)
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # index of the parent span, -1 for none
        self.pass_id = array("q")  # -1 for the set-up
        self.units = array("d")

    def __len__(self):
        return len(self.start)

    def append(self, layer, start, end, parent=-1, pass_id=0, units=0.0):
        if layer not in self.names:
            self.names.append(layer)
        self.layer.append(self.names.index(layer))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.pass_id.append(pass_id)
        self.units.append(units)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover (overlapping children count once)."""
    n = len(spans)
    covered = array("q", bytes(8 * n))
    cur_s = array("q", [-1]) * n  # merged run of children still open
    cur_e = array("q", [-1]) * n
    for i in range(n):
        p = spans.parent[i]
        if p < 0:
            continue
        s = max(spans.start[i], spans.start[p])
        e = min(spans.end[i], spans.end[p])
        if e <= s:
            continue
        if s < cur_s[p]:
            raise ValueError("span %d starts before an earlier sibling" % i)
        if s > cur_e[p]:
            if cur_e[p] >= 0:
                covered[p] += cur_e[p] - cur_s[p]
            cur_s[p], cur_e[p] = s, e
        elif e > cur_e[p]:
            cur_e[p] = e
    return [spans.end[i] - spans.start[i] - covered[i]
            - (cur_e[i] - cur_s[i] if cur_e[i] >= 0 else 0) for i in range(n)]


def parse_spans(lines):
    """Parse the harness's span file (trace.h: Tracer::write)."""
    it = iter(lines)
    header = next(it).rstrip("\n").split("\t")
    if header[0] != "#layers":
        raise ValueError("span file: bad header")
    spans = Spans(header[1:])
    for line in it:
        _, layer, start, end, parent, pass_id, units = line.split("\t")
        spans.layer.append(int(layer))
        spans.start.append(int(start))
        spans.end.append(int(end))
        spans.parent.append(int(parent))
        spans.pass_id.append(int(pass_id))
        spans.units.append(float(units))
    return spans


def layer_totals(spans, selves, passes):
    """Per layer: self ns, inclusive ns, calls and units, summed over the
    spans whose pass id is in `passes`."""
    totals = {}
    for i, self_ns in enumerate(selves):
        if spans.pass_id[i] not in passes:
            continue
        t = totals.setdefault(spans.names[spans.layer[i]],
                              {"self": 0, "incl": 0, "calls": 0, "units": 0.0})
        t["self"] += self_ns
        t["incl"] += spans.end[i] - spans.start[i]
        t["calls"] += 1
        t["units"] += spans.units[i]
    return totals


def per_layer_values(spans, traced_passes, untraced_t1_s, untraced_t2_s):
    """Every per-layer metric, as the mean over the traced passes
    (set-up layers: over the one traced set-up).  `traced_passes` are the
    harness's pass records of the traced passes.

    A layer the workload never calls reads 0 calls and 0 s, and so do
    its ns-per-unit metric and any ratio whose denominator is 0.

    Returns (metrics, tracing): `tracing` holds the traced pass wall
    (net of the calibration replay) and its excess over the untraced
    1-thread pass.  They are reported but are not metrics, because the
    excess is often below the host noise and then negative."""
    selves = self_times(spans)
    ids = {p["id"] for p in traced_passes}
    n = len(traced_passes)
    run = layer_totals(spans, selves, ids)
    setup = layer_totals(spans, selves, {-1})
    zero = {"self": 0, "incl": 0, "calls": 0, "units": 0.0}
    values = {}
    layer_self_ns = 0
    for layer, (unit, where) in LAYERS.items():
        t, div = (setup.get(layer, zero), 1) if where == "setup" else (run.get(layer, zero), n)
        if where == "pass" and layer not in DERIVED_ONLY:
            layer_self_ns += t["self"]
        if layer in DERIVED_ONLY:
            continue
        values[layer_metric(layer, "_s")] = t["self"] / div * 1e-9
        values[layer_metric(layer, "_calls")] = t["calls"] / div
        if unit:
            name = NS_METRIC_NAME.get(layer, layer_metric(layer, "_ns_per_" + unit))
            values[name] = t["self"] / t["units"] if t["units"] else 0.0

    collect = run.get("sim.calibration.collect", zero)
    cal = run.get("sim.calibration.run", zero)
    # The collection replay exists only in the traced pass; it stands in
    # for the collection inside calibrate_ordered_matching.
    search_ns = cal["self"] - collect["incl"]
    layer_self_ns += collect["self"] + search_ns
    wall_ns = sum(p["wall_s"] for p in traced_passes) * 1e9 - collect["incl"]
    tuple_evals = sum(p["counters"].get("tuple_evals", 0) for p in traced_passes)
    counters = {}
    for p in traced_passes:
        for k, v in p["counters"].items():
            counters[k] = counters.get(k, 0) + v

    def ratio(a, b):
        return a / b if b else 0.0

    values.update({
        "sim.calibration.search_s": search_ns / n * 1e-9,
        "sim.calibration.collect_s": collect["incl"] / n * 1e-9,
        "sim.calibration.tuple_evals": tuple_evals / n,
        "sim.calibration.ns_per_tuple_eval": ratio(search_ns, tuple_evals),
        "sim.calibration.search_share": ratio(search_ns, wall_ns),
        "sim.runner.cache_hit_ratio": ratio(counters.get("cache_hits", 0),
                                            counters.get("cache_lookups", 0)),
        "sim.runner.cache_lookups": counters.get("cache_lookups", 0) / n,
        "core.overlay.arq_useful_ratio": ratio(
            counters.get("arq_frames_delivered", 0),
            counters.get("arq_transmissions", 0)),
        "sim.runner.overhead_s": (wall_ns - layer_self_ns) / n * 1e-9,
        "sim.runner.parallel_efficiency": ratio(untraced_t1_s, 2 * untraced_t2_s),
        "sim.runner.layer_coverage": ratio(layer_self_ns, wall_ns),
    })
    tracing = {"traced_pass_s": wall_ns / n * 1e-9,
               "trace_overhead_s": wall_ns / n * 1e-9 - untraced_t1_s}
    return values, tracing


# --- output gate ----------------------------------------------------------

def check_passes(passes, reference):
    """Mark each pass ok or not and count attempted/failed units.

    A pass fails when it threw or its digest differs from `reference`
    (the digest recorded from the reference code for this workload and
    seed), or, without a reference, from the first pass that did not
    throw.  Its units then all count as failed; otherwise only the units
    that threw do.  Returns (attempted, failed, expected_digest)."""
    finished = [p["digest"] for p in passes if not p["error"]]
    expected = reference or (finished[0] if finished else None)
    attempted = failed = 0
    for p in passes:
        p["ok"] = not p["error"] and p["digest"] == expected
        attempted += p["units"]
        failed += p["failed_units"] if p["ok"] else p["units"]
    return attempted, failed, expected
