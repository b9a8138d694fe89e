#!/usr/bin/env python3
"""Which out-of-line uwb:: functions in libuwb.a does any binary keep?

Build the library and every binary with -ffunction-sections and link with
-Wl,--gc-sections (at -O0, so nothing is inlined away), then run

    python3 tools/library_reachability.py --lib BUILD/libuwb.a \
        --bin-dir BUILD --bin-dir PERFBENCH_BUILD [--test-only-out FILE]

A function counts when `nm -C` lists it as a global text symbol (T) under
uwb::. Each one is kept by a production binary (a tool, bench, example or
perfbench), kept only by test binaries (test_*, *_tests), or kept by none.
The script prints the three counts, writes the test-only names to FILE, and
exits 1 when any function is kept by no binary.
"""
import argparse
import os
import subprocess
import sys


def text_symbols(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T" and parts[2].startswith("uwb::"):
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def is_test(name):
    return name.startswith("test_") or name.endswith("_tests")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lib", required=True, help="path to libuwb.a")
    ap.add_argument("--bin-dir", action="append", required=True,
                    help="directory holding linked binaries (repeatable)")
    ap.add_argument("--test-only-out", help="write the test-only names here")
    args = ap.parse_args()

    defined = text_symbols(args.lib)
    production, tests = set(), set()
    binaries = 0
    for d in args.bin_dir:
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            if not is_elf_executable(path):
                continue
            binaries += 1
            (tests if is_test(name) else production).update(text_symbols(path) & defined)

    test_only = sorted(tests - production)
    unreached = sorted(defined - production - tests)
    print(f"{len(defined)} out-of-line uwb:: functions in {args.lib}, "
          f"{binaries} binaries")
    print(f"  kept by a production binary: {len(defined & production)}")
    print(f"  kept only by tests:          {len(test_only)}")
    print(f"  kept by no binary:           {len(unreached)}")
    if args.test_only_out:
        with open(args.test_only_out, "w") as f:
            f.write("".join(n + "\n" for n in test_only))
    for n in unreached:
        print(f"unreached: {n}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
