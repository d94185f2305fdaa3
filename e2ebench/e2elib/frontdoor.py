"""Drives the built `rustsight` binary as its users do: `check` as a one-shot
process, `serve` as an editor talking LSP over pipes. Every process started
here is waited for; rusage comes from wait4."""

import json
import os
import re
import select
import subprocess
import threading
import time
import urllib.parse

OP_TIMEOUT_S = 60


class CheckRun:
    def __init__(self, ms, code, maxrss_kb, timed_out, stdout_path, stderr):
        self.ms = ms
        self.code = code
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out
        self.stdout_path = stdout_path
        self.stderr = stderr

    def stats(self):
        """Counters from the CLI's stderr stats line (RunStats::renderLine)."""
        out = {}
        pats = {
            "cache_hits": r"(\d+) hit\(s\), \d+ miss\(es\), \d+ eviction",
            "cache_misses": r"\d+ hit\(s\), (\d+) miss\(es\), \d+ eviction",
            "link_rounds": r"link: \d+ file\(s\), (\d+) round",
            "modules_from_db": r"(\d+) module\(s\) from summary-db",
            "summarydb_hits": r"summary-db \((\d+) hit",
            "summarydb_misses": r"summary-db \(\d+ hit\(s\), (\d+) miss",
            "summarydb_stores": r"summary-db \(.*?(\d+) store",
        }
        for key, pat in pats.items():
            m = re.search(pat, self.stderr)
            out[key] = int(m.group(1)) if m else 0
        return out


def run_check(rustsight, args, stdout_path, timeout=OP_TIMEOUT_S):
    """One `rustsight check` operation, timed from spawn to exit."""
    killed = []

    def kill(p):
        killed.append(True)
        p.kill()

    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter_ns()
        p = subprocess.Popen([rustsight, "check"] + args, stdout=out,
                             stderr=subprocess.PIPE)
        timer = threading.Timer(timeout, kill, (p,))
        timer.start()
        try:
            # stderr carries one stats line, far below the pipe buffer, so
            # draining it after exit cannot deadlock.
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter_ns()
        p.returncode = os.waitstatus_to_exitcode(status)
        err = p.stderr.read().decode(errors="replace")
        p.stderr.close()
    return CheckRun((t1 - t0) / 1e6, p.returncode, ru.ru_maxrss, bool(killed),
                    stdout_path, err)


def path_uri(path):
    return "file://" + urllib.parse.quote(path, safe="/._-~")


def uri_path(uri):
    return urllib.parse.unquote(uri[len("file://"):]) \
        if uri.startswith("file://") else uri


class ServeSession:
    """One `rustsight serve --debounce-ms 0 <corpus>` daemon over pipes."""

    def __init__(self, rustsight, corpus_dir):
        self.p = subprocess.Popen(
            [rustsight, "serve", "--debounce-ms", "0", corpus_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.fd_in = self.p.stdin.fileno()
        self.fd_out = self.p.stdout.fileno()
        self.buf = bytearray()
        self.next_id = 1
        self.maxrss_kb = 0

    def encode(self, method, params, request=False):
        """One framed JSON-RPC message (requests get the next id)."""
        msg = {"jsonrpc": "2.0", "method": method, "params": params}
        if request:
            msg["id"] = self.next_id
            self.next_id += 1
        payload = json.dumps(msg, separators=(",", ":")).encode()
        return b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)

    def write(self, data):
        while data:
            n = os.write(self.fd_in, data)
            data = data[n:]

    def send(self, method, params, request=False):
        """Writes one message; returns its id (None for notifications)."""
        rid = self.next_id if request else None
        self.write(self.encode(method, params, request))
        return rid

    def recv(self, deadline):
        """The next message, or None once `deadline` passes."""
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end >= 0:
                m = re.search(rb"Content-Length: *(\d+)", self.buf[:end])
                n = int(m.group(1)) if m else 0
                if len(self.buf) >= end + 4 + n:
                    payload = bytes(self.buf[end + 4:end + 4 + n])
                    del self.buf[:end + 4 + n]
                    return json.loads(payload)
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            r, _, _ = select.select([self.fd_out], [], [], left)
            if not r:
                return None
            chunk = os.read(self.fd_out, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk

    def wait_for(self, pred, timeout=OP_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        while True:
            msg = self.recv(deadline)
            if msg is None or pred(msg):
                return msg

    def wait_publishes(self, paths, version, timeout=OP_TIMEOUT_S):
        """Waits until every path in `paths` has a publish at `version`
        (None = any version). Returns the paths still missing."""
        missing = set(paths)
        deadline = time.monotonic() + timeout
        while missing:
            msg = self.recv(deadline)
            if msg is None:
                break
            if msg.get("method") == "textDocument/publishDiagnostics":
                params = msg["params"]
                if version is None or params.get("version") == version:
                    missing.discard(uri_path(params["uri"]))
        return missing

    def publish_of(self, path, version, timeout=OP_TIMEOUT_S):
        """The publish for `path` at `version`, or None if it never comes."""
        msg = self.wait_for(
            lambda m: m.get("method") == "textDocument/publishDiagnostics"
            and m["params"].get("version") == version
            and uri_path(m["params"]["uri"]) == path, timeout)
        return msg["params"] if msg else None

    def close(self, timeout=30):
        """shutdown + exit, then reap the daemon. Returns its exit code."""
        try:
            rid = self.send("shutdown", None, request=True)
            self.wait_for(lambda m: m.get("id") == rid, timeout)
            self.send("exit", None)
        except OSError:
            pass
        timer = threading.Timer(timeout, self.p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = ru.ru_maxrss
        self.p.stdin.close()
        self.p.stdout.close()
        return self.p.returncode

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            _, status, _ = os.wait4(self.p.pid, 0)
            self.p.returncode = os.waitstatus_to_exitcode(status)
            self.p.stdin.close()
            self.p.stdout.close()
