"""Builds `rustsight` and `rsbench` from the checkout (Release) and reports
the build's facts."""

import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BuildError(Exception):
    pass


def build_dir(root):
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(root, d)


def build(root):
    """Configures once, then (re)builds the two targets. Returns the paths of
    the rustsight and rsbench binaries."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        raise BuildError("no RustSight sources next to the benchmark "
                         "(expected CMakeLists.txt and src/ in %s)" % root)
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "e2ebench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rustsight", "rsbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BuildError("build step failed: " + " ".join(cmd))
    with open(os.path.join(out, "binaries.txt")) as f:
        rustsight, rsbench = f.read().split()
    return rustsight, rsbench


def facts(root, cache_dir):
    """Machine facts recorded with every result. All of them are read from
    inside the checkout or from system calls."""
    out = build_dir(root)
    build_type = compiler = "unknown"
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            build_type = m.group(1) if m else build_type
        files = os.path.join(out, "CMakeFiles")
        for sub in sorted(os.listdir(files)):
            p = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
            if os.path.isfile(p):
                with open(p) as f:
                    text = f.read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
                compiler = "%s %s" % (cid.group(1) if cid else "?",
                                      ver.group(1) if ver else "?")
    except OSError:
        pass
    try:
        fs_type = subprocess.run(["stat", "-f", "-c", "%T", cache_dir],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs_type = "unknown"
    u = os.uname()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type,
        "compiler": compiler,
        "kernel": "%s %s %s" % (u.sysname, u.release, u.machine),
        "cache_fs": fs_type,
    }
