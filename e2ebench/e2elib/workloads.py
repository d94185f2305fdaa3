"""The four workloads: set-up, the timed closed loop (one client), and the
traced run. See README.md for why each exists and which layers it loads."""

import json
import os
import shutil
import subprocess
import time

from . import corpus as corpuslib
from . import frontdoor
from . import metrics
from .verdicts import Checker

CHECK_ARGS = {
    "check_cold": ["--jobs", "4"],
    "check_incremental": ["--jobs", "1"],
    "check_sharded": ["--shards", "2", "--jobs", "2"],
}

# How many CPUs the client and the program it drives share, per workload;
# the others get every CPU this process may use. On a machine that gives the
# benchmark a few vCPUs of a shared host, a hand-off between threads or
# processes on different CPUs can wait for the host to wake an idle vCPU,
# and that wait follows the host's load, not the program. On one CPU the
# hand-off is a local context switch; README.md ("CPUs") has the spreads.
CPUS = {"check_incremental": 1, "serve_edit": 1}

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Operations in a traced run: front-door ops and replayed ops for the check
# workloads, whole passes over the corpus for serve_edit. Fixed, so its
# counts repeat exactly for a seed.
TRACE_CHECK_OPS = 5
TRACE_SERVE_PASSES = 1


class Failure(Exception):
    pass


class Run:
    """Everything one invocation works with."""

    def __init__(self, workload, seed, seconds, root, rustsight, rsbench):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.rustsight = rustsight
        self.rsbench = rsbench
        self.work = os.path.join(root, ".e2ebench_work",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        self.corpus_dir = os.path.join(self.work, "corpus")
        self.cache_dir = os.path.join(self.work, "cache")
        self.manifest = os.path.join(self.work, "manifest.json")
        self.stdout_path = os.path.join(self.work, "check.out")
        self.rules = json.loads(subprocess.run(
            [rsbench, "rules"], check=True, capture_output=True).stdout)
        self.notes = []
        self.session = None
        os.makedirs(self.work, exist_ok=True)

    def note(self, line):
        self.notes.append(line)

    def cleanup(self):
        if self.session:
            self.session.kill()
        shutil.rmtree(self.work, ignore_errors=True)


class Tally:
    """Operation outcomes of one closed loop."""

    def __init__(self):
        self.ms = []
        self.files = 0
        self.attempted = 0
        self.failed = 0
        self.disagreed = 0
        self.maxrss_kb = 0
        self.counts = []

    def record(self, ms, files, failed, disagreed):
        self.attempted += 1
        self.ms.append(ms)
        self.files += files
        self.failed += failed
        self.disagreed += disagreed or failed

    def count_medians(self):
        """Per-operation medians of the stats-line and cache-dir counts."""
        keys = self.counts[0] if self.counts else {}
        return {k: metrics.median([c[k] for c in self.counts]) for k in keys}


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

def pin(run):
    """Restricts this process, and so every process it starts from now on,
    to the last CPUS[workload] of the CPUs it may use. Returns the CPUs."""
    n = CPUS.get(run.workload)
    if n:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-n:])
    return sorted(os.sched_getaffinity(0))


def setup(run):
    """Corpus generation plus warm-up; returns the corpus. Warm-up is the
    priming cold run for the warm check workloads, and initialize plus the
    initial publish sweep (every file published, then opened) for
    serve_edit."""
    if run.session:
        run.session.close()
        run.session = None
    shutil.rmtree(run.cache_dir, ignore_errors=True)
    corpus = corpuslib.generate(run.rsbench, run.seed, run.corpus_dir,
                                run.manifest)
    if run.workload in ("check_incremental", "check_sharded"):
        r = frontdoor.run_check(run.rustsight, CHECK_ARGS[run.workload] + [
            "--json", "--cache-dir", run.cache_dir, corpus.dir],
            run.stdout_path)
        if r.timed_out or r.code not in (0, 1):
            raise Failure("priming check exited with %s" % r.code)
    elif run.workload == "serve_edit":
        run.session = s = frontdoor.ServeSession(
            run.rustsight, os.path.abspath(corpus.dir))
        paths = [os.path.abspath(corpus.path(f)) for f in corpus.files]
        rid = s.send("initialize", {}, request=True)
        if s.wait_for(lambda m: m.get("id") == rid) is None:
            raise Failure("serve never answered initialize")
        s.send("initialized", {})
        if s.wait_publishes(paths, None):
            raise Failure("initial publish sweep incomplete")
        # One open at a time: the daemon's publishes must be read as they
        # come, or both pipes fill and client and daemon block each other.
        for p in paths:
            with open(p) as f:
                s.send("textDocument/didOpen", {"textDocument": {
                    "uri": frontdoor.path_uri(p), "languageId": "mir",
                    "version": 1, "text": f.read()}})
            if s.wait_publishes([p], 1):
                raise Failure("no publish after opening " + p)
    return corpus


def timed_setups(run):
    """SETUPS set-ups; returns (seconds of each, last corpus). Every set-up
    must write a byte-identical corpus: the same-seed determinism check."""
    times, digests = [], set()
    corpus = None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        corpus = setup(run)
        times.append(time.perf_counter() - t0)
        digests.add(corpus.digest())
    if len(digests) != 1:
        raise Failure("same seed gave different corpora")
    return times, corpus


def determinism_check(run, corpus):
    """A different seed must give a different corpus and edit stream; the
    same seed the same edit stream."""
    other = corpuslib.generate(run.rsbench, run.seed + 1,
                               os.path.join(run.work, "other-corpus"),
                               os.path.join(run.work, "other-manifest.json"))
    ok = (other.digest() != corpus.digest() and
          corpuslib.stream_digest(run.seed, corpus) ==
          corpuslib.stream_digest(run.seed, corpus) and
          corpuslib.stream_digest(run.seed, corpus) !=
          corpuslib.stream_digest(run.seed + 1, corpus))
    shutil.rmtree(other.dir, ignore_errors=True)
    if not ok:
        raise Failure("corpus/edit-stream determinism check failed")


# --------------------------------------------------------------------------
# The closed loops
# --------------------------------------------------------------------------

def count_files(d):
    try:
        return sum(1 for _ in os.scandir(d))
    except OSError:
        return 0


def check_loop(run, corpus, checker, tally, stream, until=None, ops=None):
    """`rustsight check --json` operations until the deadline or op count.
    Returns the next unused op number."""
    args = CHECK_ARGS[run.workload]
    expected_code = 1 if any(p for cases in checker.expect.values()
                             for _, p in cases) else 0
    op = 1
    while (ops is None or tally.attempted < ops) and \
            (until is None or time.monotonic() < until):
        if run.workload == "check_cold":
            shutil.rmtree(run.cache_dir, ignore_errors=True)
        else:
            for name in stream.batch():
                corpuslib.edit_file(corpus, name, op)
        before = count_files(run.cache_dir)
        r = frontdoor.run_check(run.rustsight, args + [
            "--json", "--cache-dir", run.cache_dir, corpus.dir],
            run.stdout_path)
        tally.maxrss_kb = max(tally.maxrss_kb, r.maxrss_kb)
        wrong = ["<exit %s%s>" % (r.code, ", timed out" if r.timed_out
                                  else "")]
        if not r.timed_out and r.code == expected_code:
            try:
                with open(r.stdout_path) as f:
                    wrong = checker.check_report(json.load(f))
            except ValueError:
                wrong = ["<unparseable report>"]
        if wrong and tally.failed == 0:
            run.note("first failed op %d: %s" % (op, ", ".join(wrong[:5])))
        tally.record(r.ms, 0 if wrong else len(corpus.files), bool(wrong),
                     bool(wrong))
        c = r.stats()
        c["disk_files_written"] = count_files(run.cache_dir) - before
        tally.counts.append(c)
        op += 1
    return op


def serve_loop(run, corpus, checker, tally, stream, until=None, passes=None):
    """didChange -> publishDiagnostics round trips over whole passes."""
    s = run.session
    known_gap = checker.link_dependent_positives(corpus)
    texts, versions = {}, {}
    for name in corpus.files:
        with open(corpus.path(name)) as f:
            texts[name] = f.read()
        versions[name] = 1
    op, done = 1, 0
    while (passes is None or done < passes) and \
            (until is None or time.monotonic() < until):
        for name in stream.serve_pass():
            path = os.path.abspath(corpus.path(name))
            texts[name] = corpuslib.apply_edit(texts[name], op)
            versions[name] += 1
            frame = s.encode("textDocument/didChange", {
                "textDocument": {"uri": frontdoor.path_uri(path),
                                 "version": versions[name]},
                "contentChanges": [{"text": texts[name]}]})
            t0 = time.perf_counter_ns()
            s.write(frame)
            pub = s.publish_of(path, versions[name])
            t1 = time.perf_counter_ns()
            op += 1
            if pub is None:
                run.note("no publish for %s v%d" % (name, versions[name]))
                tally.record((t1 - t0) / 1e6, 0, True, True)
                return op
            agree = checker.check_publish(name, pub)
            unexpected = not agree and name not in known_gap
            if unexpected and tally.failed == 0:
                run.note("first unexpected serve verdict: " + name)
            tally.record((t1 - t0) / 1e6, 1, unexpected, not agree)
        done += 1
    return op


# --------------------------------------------------------------------------
# Untraced and traced runs
# --------------------------------------------------------------------------

def measure(run):
    """The untraced run: end-to-end metrics only."""
    cpus = pin(run)
    setup_times, corpus = timed_setups(run)
    determinism_check(run, corpus)
    checker = Checker(corpus.manifest, run.rules)
    stream = corpuslib.EditStream(run.seed, corpus)
    tally = Tally()
    until = time.monotonic() + run.seconds
    if run.workload == "serve_edit":
        serve_loop(run, corpus, checker, tally, stream, until=until)
        run.session.close()
        tally.maxrss_kb = run.session.maxrss_kb
        run.session = None
    else:
        check_loop(run, corpus, checker, tally, stream, until=until)
    total_s = sum(tally.ms) / 1000
    values = {
        "verdict_ms_p50": metrics.percentile(tally.ms, 50),
        "verdict_ms_p90": metrics.percentile(tally.ms, 90),
        "files_per_s": tally.files / total_s if total_s else 0.0,
        "agreement_rate": 1 - tally.disagreed / tally.attempted,
        "peak_rss_mb": tally.maxrss_kb / 1024,
        "setup_s": metrics.median(setup_times),
    }
    p90 = values["verdict_ms_p90"]
    info = {
        "cpus": cpus,
        "samples": len(tally.ms),
        "beyond_p90": sum(1 for v in tally.ms if v > p90),
        "setups": len(setup_times),
        "error_rate": tally.disagreed / tally.attempted,
        "stats_counts": tally.count_medians(),
    }
    return tally, values, info


def trace(run, trace_out):
    """The traced run: a fixed number of untraced front-door operations for
    the front-door time, then `rsbench trace` replaying the same kind of
    operations in-process, layer by layer."""
    cpus = pin(run)
    corpus = setup(run)
    checker = Checker(corpus.manifest, run.rules)
    stream = corpuslib.EditStream(run.seed, corpus)
    tally = Tally()
    if run.workload == "serve_edit":
        op = serve_loop(run, corpus, checker, tally, stream,
                        passes=TRACE_SERVE_PASSES)
        run.session.close()
        run.session = None
        edit_ops = []
        for _ in range(TRACE_SERVE_PASSES):
            for name in stream.serve_pass():
                edit_ops.append({"op": op, "files": [name]})
                op += 1
    else:
        op = check_loop(run, corpus, checker, tally, stream,
                        ops=TRACE_CHECK_OPS)
        edit_ops = []
        for _ in range(TRACE_CHECK_OPS):
            files = [] if run.workload == "check_cold" else stream.batch()
            edit_ops.append({"op": op, "files": files})
            op += 1
    edits_path = os.path.join(run.work, "edits.json")
    with open(edits_path, "w") as f:
        json.dump({"ops": edit_ops}, f)
    replay_dir = os.path.join(run.work, "replay")
    os.makedirs(replay_dir, exist_ok=True)
    p = subprocess.run([
        run.rsbench, "trace", "--workload", run.workload,
        "--corpus", os.path.abspath(corpus.dir), "--work", replay_dir,
        "--edits", edits_path, "--primed", run.cache_dir,
        "--rustsight", run.rustsight, "--trace-out", trace_out],
        capture_output=True, text=True, timeout=150)
    if p.returncode != 0:
        raise Failure("rsbench trace failed: " + p.stderr[-2000:])
    out = json.loads(p.stdout)
    replay_ok = out["replay_matches_engine"] and out["publishes_ok"]
    if not replay_ok:
        run.note("replay disagrees with the engine's own output")

    values = {}
    for span in metrics.LAYER_SPANS:
        values[span + "_ms"] = out["layers_ms"].get(span, 0.0)
    counts = out["counts"]
    for name, key, _ in metrics.LAYER_COUNTS:
        values[name] = counts[key]
    for name, hits, misses in metrics.LAYER_RATIOS:
        total = counts[hits] + counts[misses]
        values[name] = counts[hits] / total if total else 0.0
    front = metrics.median(tally.ms)
    values["trace.front_door_ms"] = front
    values["trace.unattributed_ms"] = front - out["replay_self_ms"]
    values["trace.overhead_ms"] = (out["traced_replay_ms"] -
                                  out["untraced_replay_ms"])
    info = {
        "cpus": cpus,
        "front_door_ops": tally.attempted,
        "replayed_ops": out["ops"],
        "traced_replay_ms": out["traced_replay_ms"],
        "untraced_replay_ms": out["untraced_replay_ms"],
        "replay_matches_engine": out["replay_matches_engine"],
        "counts": counts,
        "stats_counts": tally.count_medians(),
    }
    attempted = tally.attempted + out["ops"]
    failed = tally.failed + (0 if replay_ok else out["ops"])
    return attempted, failed, values, info
