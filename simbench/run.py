#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 simbench/run.py --workload ns-resolve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds simbench/main.exe with dune,
runs it with the given arguments (see main.ml), passes its report
through, and prints one JSON result line last.  Untraced runs gain
peak_rss_mb, the measuring process's peak resident memory.  Exits
non-zero without a result line when the sources are missing, the build
fails, or the run fails or overruns.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "simbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    """dune on PATH, else the one in an opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    switches = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if switches:
        return switches[0]
    fail("dune not found")


def build():
    for need in ("dune-project", os.path.join("lib", "core", "fs.ml")):
        if not os.path.exists(need):
            fail("run from the root of a repository checkout (%s is missing)" % need)
    dune = find_dune()
    # the compiler sits beside dune in its switch
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    try:
        b = subprocess.run(
            [dune, "build", "--root", ".", "simbench/main.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        fail("build failed")


def main(argv):
    build()
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    p = subprocess.Popen([EXE] + argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    last = None
    try:
        for line in p.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or last is None:
        fail("measuring program exited with %d" % code)
    result = json.loads(last)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    print("  %-26s %14.6f MiB (host, peak resident)" % ("peak_rss_mb", peak_rss_mb))
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
