#!/usr/bin/env python3
"""Sweep benchmark entry point: builds perfbench from source, then runs it.

Run from the repository root:

  python3 perfbench/run.py --workload gen2_cm_fresh --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --write-benchmark-json BENCHMARK.json
  python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

The build lives in .bench_build/ and every run's outputs (result documents,
Chrome traces, the appended records.jsonl) in .bench_out/. The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository to build (no CMakeLists.txt or src/)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / target


def git_sha():
    # Only this checkout's own metadata: git would otherwise answer for
    # whatever repository encloses it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: the code identity
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare(old_path, new_path):
    """Median of each metric per (workload, trace) in two record files,
    pairing only records whose machine fingerprints match."""
    def load(path):
        groups = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                key = (json.dumps(record["fingerprint"]["machine"], sort_keys=True),
                       record["workload"], record["trace"])
                groups.setdefault(key, []).append(record)
        return groups

    old, new = load(old_path), load(new_path)
    paired = 0
    for key in sorted(set(old) & set(new)):
        _, workload, trace = key
        paired += 1
        print(f"{workload} (trace {int(trace)}): {len(old[key])} old, {len(new[key])} new records")
        for name in old[key][0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in old[key])
            b = statistics.median(r["metrics"][name]["value"] for r in new[key])
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            unit = old[key][0]["metrics"][name]["unit"]
            print(f"  {name:34s} {a:12.6g} -> {b:12.6g} {unit:9s} {change}")
    unmatched = (set(old) | set(new)) - (set(old) & set(new))
    if unmatched:
        print(f"{len(unmatched)} record group(s) skipped: no counterpart with the same "
              "machine fingerprint and workload", file=sys.stderr)
    return 0 if paired else 1


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("--compare needs OLD.jsonl NEW.jsonl")
        return compare(argv[1], argv[2])
    if argv == ["--self-test"]:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    binary = build("perfbench")
    args = [str(binary), *argv]
    if "--write-benchmark-json" not in argv:
        args += ["--git-sha", git_sha(), "--source-digest", source_digest()]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
