"""Metric names, units and the statistics behind them. BENCHMARK.json lists
the same names; tests/test_names.py keeps the two in step."""

import math
import statistics

# The workloads BENCHMARK.json lists.
WORKLOADS = ["check_incremental", "serve_edit"]
# Runnable by hand, left out of BENCHMARK.json because their operation times
# spread too far from run to run (README.md, "Workloads"): check_cold's
# follows the file system's state after mass file deletion, check_sharded's
# is bimodal.
MANUAL_WORKLOADS = ["check_cold", "check_sharded"]

# (name, unit) of every end-to-end metric, printed for every workload.
END_TO_END = [
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("files_per_s", "1/s"),
    ("agreement_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

DETECTORS = [
    "use-after-free", "double-lock", "conflicting-lock-order", "invalid-free",
    "double-free", "uninitialized-read", "interior-mutability",
    "missing-wakeup", "dangling-return",
]

# Per-layer self times: span name in tool/Replay.cpp -> metric name.
LAYER_SPANS = [
    "corpus.walk", "corpus.read",
    "engine.fingerprint", "engine.analyze_corpus", "engine.supervisor_run",
    "engine.report_codec", "engine.wire_codec",
    "mir.parse", "mir.verify", "mir.snapshot_write", "mir.snapshot_read",
    "sched.cache_lookup", "sched.cache_store", "sched.blob_lookup",
    "sched.blob_store", "sched.summarydb_lookup", "sched.summarydb_store",
    "analysis.summaries", "analysis.link_facts", "analysis.link_build",
    "analysis.link_solve",
] + ["detectors." + d for d in DETECTORS] + [
    "diag.render_json",
    "serve.handle", "serve.flush", "serve.frame",
]

# Per-operation counts: metric name -> (key in rsbench trace "counts", unit).
LAYER_COUNTS = [
    ("mir.statements", "statements", "count"),
    ("mir.snapshot_bytes", "snapshot_bytes", "bytes"),
    ("sched.cache_hits", "cache_hits", "count"),
    ("sched.cache_misses", "cache_misses", "count"),
    ("sched.summarydb_hits", "summarydb_hits", "count"),
    ("sched.summarydb_stores", "summarydb_stores", "count"),
    ("sched.disk_files_written", "disk_files_written", "count"),
    ("analysis.link_rounds", "link_rounds", "count"),
    ("analysis.modules_from_db", "modules_from_db", "count"),
    ("detectors.findings", "findings", "count"),
    ("serve.files_reanalyzed", "files_reanalyzed", "count"),
]

LAYER_RATIOS = [
    ("sched.cache_hit_ratio", "cache_hits", "cache_misses"),
    ("sched.summarydb_hit_ratio", "summarydb_hits", "summarydb_misses"),
]

TRACE_METRICS = [
    ("trace.front_door_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
]


def per_layer():
    """(name, unit) of every per-layer metric, in print order."""
    return ([(s + "_ms", "ms") for s in LAYER_SPANS] +
            [(name, unit) for name, _, unit in LAYER_COUNTS] +
            [(name, "ratio") for name, _, _ in LAYER_RATIOS] +
            TRACE_METRICS)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values, p):
    """The Harrell-Davis estimate of the p-th percentile: a beta-weighted
    mean of the order statistics. Operation times can be multi-modal (for
    example, a worker reaped on the first try or after a poll timeout), and
    there the plain sample quantile jumps from one mode to the other when
    the modes' shares shift by a few samples; this estimate moves smoothly.
    Weights beyond eight standard errors of the quantile are negligible and
    skipped."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    se = math.sqrt(q * (1 - q) / n)
    lo = max(0, int((q - 8 * se) * n) - 1)
    hi = min(n, int((q + 8 * se) * n) + 2)
    first = prev = betainc(a, b, lo / n)
    total = 0.0
    for i in range(lo, hi):
        cur = betainc(a, b, (i + 1) / n)
        total += (cur - prev) * x[i]
        prev = cur
    return total / (prev - first)


def median(values):
    return statistics.median(values) if values else 0.0
