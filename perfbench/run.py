#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload circuit --seed 1 --seconds 30 --trace 0

Run from the repository root. The Go program is built from source into
.bench_build/ (build cache included, so nothing is written outside the
checkout) and run with the same arguments; its last stdout line is the
result JSON. Run records and traced-run spans land in .bench_build/records
and .bench_build/spans.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def source_revision(root):
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    t0 = time.monotonic()
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       capture_output=True, text=True)
    build_s = time.monotonic() - t0
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + b.stdout + b.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", build, "-commit", source_revision(root), "-build-s", "%.3f" % build_s]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
