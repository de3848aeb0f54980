#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root, for example:

    python3 perfbench/run.py --workload solve-read --seed 1 --seconds 15 --trace 0

The script builds the Go program in this directory with the local Go
toolchain, keeping every build output and Go cache under .bench_build/ in
the current directory, then runs it with the given arguments. The program
prints a report and, as its last line of standard output, one JSON object
with the run's metrics. The script exits with the program's exit code, or 1
when the build fails.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.exists(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    return None


def source_revision(root):
    """A digest of the module's Go sources: the checkout has no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    go = go_binary()
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write(built.stdout)
        print("run.py: build failed", file=sys.stderr)
        return 1

    args = [binary] + sys.argv[1:] + ["--commit", source_revision(root)]
    child = subprocess.Popen(args, cwd=root, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
