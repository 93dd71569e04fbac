#!/usr/bin/env python3
"""List the out-of-line libsnipr functions that no shipped binary links.

Builds every non-test binary (tools, bench drivers, examples and the
snipbench project) with -O0 -fno-inline -ffunction-sections and links
them with -Wl,--gc-sections, so each binary keeps only the library
functions it can reach. A global text symbol of libsnipr.a that no
binary keeps is an orphan. Header-inline functions are not counted.

Each orphan must appear in the allow-list (tools/orphan_allowlist.txt)
with a reason, and each allow-list entry must still be an orphan: an
entry that is linked again or no longer exists fails the scan too, so
the list can only shrink. Symbols are compared as `nm -C` prints them,
with ABI tags such as libstdc++'s `[abi:cxx11]` removed, so one
allow-list serves GCC/libstdc++ and clang/libc++ builds alike.

    python3 tools/orphan_scan.py [--build-dir DIR]

The build needs Google Benchmark (bench_perf_kernels). Set
CMAKE_CXX_COMPILER_LAUNCHER=ccache in the environment to cache it.
Exit status: 0 = clean, 1 = an unlisted orphan or a stale entry,
2 = build, tool or allow-list error.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CXX_FLAGS = "-O0 -fno-inline -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"

# An allow-list reason names why the orphan stays; only these two do.
REASON_KINDS = ("reference:", "diagnostic:")

ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def untagged(symbol):
    """`symbol` without its ABI tags, e.g. `f[abi:cxx11](int)` -> `f(int)`."""
    return ABI_TAG.sub("", symbol)


def parse_allowlist(text):
    """Map each allow-listed symbol to its reason.

    One entry a line: `<demangled symbol> # <kind>: <reason>`; ABI tags
    in the symbol are dropped. Blank lines and lines starting with '#'
    are skipped. Raises ValueError on an entry with no reason, a reason
    of another kind, or a duplicate.
    """
    allowed = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        symbol, _, reason = (part.strip() for part in line.partition("#"))
        symbol = untagged(symbol)
        if not reason.startswith(REASON_KINDS) or \
                not reason.partition(":")[2].strip():
            raise ValueError(f"line {number}: '{symbol}' needs a reason "
                             f"starting with one of {REASON_KINDS}")
        if symbol in allowed:
            raise ValueError(f"line {number}: '{symbol}' is listed twice")
        allowed[symbol] = reason
    return allowed


def check(library, linked, allowed):
    """Return the scan's failures, one line each; empty means clean.

    `library` holds the library's global text symbols, `linked` every
    symbol some binary defines, `allowed` the parsed allow-list.
    """
    orphans = set(library) - set(linked)
    failures = [f"orphan: {name} is linked by no binary; delete it, or "
                f"allow-list it with a reason"
                for name in sorted(orphans - allowed.keys())]
    for name in sorted(allowed.keys() - orphans):
        state = "is linked again" if name in library else "no longer exists"
        failures.append(f"stale allow-list entry: {name} {state}; "
                        f"remove the entry")
    return failures


def run(cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build(build_dir):
    """Configure and build the repository and snipbench; return both dirs."""
    repo_dir = os.path.join(build_dir, "repo")
    bench_dir = os.path.join(build_dir, "snipbench")
    flags = ["-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
             f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"]
    run(["cmake", "-S", ROOT, "-B", repo_dir, "-DSNIPR_BUILD_TESTS=OFF"] +
        flags)
    run(["cmake", "-S", os.path.join(ROOT, "snipbench"), "-B", bench_dir] +
        flags)
    for directory in (repo_dir, bench_dir):
        run(["cmake", "--build", directory, "-j", str(os.cpu_count() or 1)])
    return repo_dir, bench_dir


def expected_binaries(repo_dir, bench_dir):
    """Every shipped program, as a path; the scan needs all of them."""
    def stems(directory, prefix=""):
        return sorted(name[:-4] for name in os.listdir(directory)
                      if name.startswith(prefix) and name.endswith(".cpp"))

    paths = [os.path.join(repo_dir, "tools", name)
             for name in ("snipr_cli", "golden_runner")]
    paths += [os.path.join(repo_dir, "bench", name)
              for name in stems(os.path.join(ROOT, "bench"), "bench_")]
    paths += [os.path.join(repo_dir, "examples", name)
              for name in stems(os.path.join(ROOT, "examples"))]
    paths.append(os.path.join(bench_dir, "snipbench"))
    return paths


def symbols(path, text_only):
    """Demangled names of the global symbols `path` defines; with
    `text_only`, of its global functions (nm type T) alone."""
    out = subprocess.run(["nm", "-C", "--defined-only", "--extern-only", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3 and (not text_only or fields[1] == "T"):
            names.add(untagged(fields[2]))
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            "build-orphans"))
    args = parser.parse_args()

    try:
        with open(os.path.join(HERE, "orphan_allowlist.txt"),
                  encoding="utf-8") as fh:
            allowed = parse_allowlist(fh.read())
        repo_dir, bench_dir = build(args.build_dir)
        binaries = expected_binaries(repo_dir, bench_dir)
        missing = [path for path in binaries if not os.path.isfile(path)]
        if missing:
            print("orphan_scan: not built (is Google Benchmark installed?): " +
                  ", ".join(missing), file=sys.stderr)
            return 2
        library = symbols(os.path.join(repo_dir, "src", "libsnipr.a"), True)
        linked = set().union(*(symbols(path, False) for path in binaries))
    except (OSError, ValueError, subprocess.CalledProcessError) as err:
        print(f"orphan_scan: {err}", file=sys.stderr)
        return 2

    orphans = sorted(library - linked)
    print(f"{len(library)} library functions, {len(binaries)} binaries, "
          f"{len(orphans)} orphans")
    for name in orphans:
        print(f"  {name}")
    failures = check(library, linked, allowed)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
