#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <batch_cold|serve_mix|ingest_follow> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in a child process and prints
its result as the last line of standard output. Durable stores live under
`.perfbench/run-<pid>/` and are removed afterwards; the fingerprinted
report and, for traced runs, the spans are kept in `.perfbench/`.

If the workload process dies, the operations it had not finished count as
failed, a result with `"correct": false` is printed and the exit code is 3.
If the build fails (for example, when the repository's crates are absent),
nothing is printed on standard output and the exit code is 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

RUN_LIMIT_S = 170


def source_fingerprint(root):
    """The git commit when `root` is a git checkout, else a digest of the
    source tree."""
    try:
        if not os.path.isdir(os.path.join(root, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # The benchmark measures the default pool size (`nproc` workers).
    if env.pop("TL_POOL_THREADS", None) is not None:
        print("perfbench: ignoring TL_POOL_THREADS", file=sys.stderr)

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    keep_dir = os.path.join(root, ".perfbench")
    work_dir = os.path.join(keep_dir, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
        "--commit", source_fingerprint(root),
    ]
    child = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    progress = {"plan": 0, "done": 0}

    def pump_stderr():
        for line in child.stderr:
            parts = line.split()
            if len(parts) == 3 and parts[0] == "perfbench-progress":
                progress[parts[1]] = int(parts[2])
            else:
                sys.stderr.write(line)

    stdout_chunks = []
    readers = [
        threading.Thread(target=pump_stderr),
        threading.Thread(target=lambda: stdout_chunks.append(child.stdout.read())),
    ]
    for r in readers:
        r.start()
    try:
        child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: workload exceeded %d s, killed" % RUN_LIMIT_S, file=sys.stderr)
    for r in readers:
        r.join()
    stdout = "".join(stdout_chunks)

    for name in os.listdir(work_dir):
        if name.startswith(("report-", "trace-")):
            shutil.move(os.path.join(work_dir, name), os.path.join(keep_dir, name))
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if child.returncode == 0 and lines:
        result = json.loads(lines[-1])
        print(json.dumps(result))
        return 0

    code = child.returncode
    reason = ("signal %s" % signal.Signals(-code).name) if code < 0 else ("exit code %d" % code)
    print("perfbench: workload process died (%s)" % reason, file=sys.stderr)
    attempted = max(progress["plan"], progress["done"] + 1)
    print(
        json.dumps(
            {
                "correct": False,
                "attempted": attempted,
                "failed": attempted - progress["done"],
                "metrics": {},
            }
        )
    )
    return 3


if __name__ == "__main__":
    start = time.time()
    code = main()
    print("perfbench: %.1f s" % (time.time() - start), file=sys.stderr)
    sys.exit(code)
