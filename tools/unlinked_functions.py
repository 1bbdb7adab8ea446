#!/usr/bin/env python3
"""List the src/ library functions that no program links.

Every program of the repository (lens-cli, the benches, the examples and
perfbench's lens_perfbench) is linked with per-function sections and
--gc-sections, so each executable keeps exactly the functions reachable from
its main. A strong (nm type T) lens:: function of a src/ library that no
executable defines is code that nothing runs; tests do not count as callers.

Build the two trees first, tests off, from the repository root:

    FLAGS='-O0 -ffunction-sections -fdata-sections'
    cmake -B build-unlinked -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DLENS_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$FLAGS" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake -B build-unlinked-pb -S perfbench -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-unlinked -j "$(nproc)"
    cmake --build build-unlinked-pb -j "$(nproc)"

then print the sorted, demangled names:

    python3 tools/unlinked_functions.py build-unlinked build-unlinked-pb

With --expect FILE the list is compared with FILE (one name a line, `#`
comments allowed) and any difference exits 1. tools/unlinked_functions.txt
holds the functions kept on purpose for tests: seams, oracles and fixtures.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys

# A name nested in namespace lens: _ZN, optional cv/ref qualifiers, "4lens".
LENS_SYMBOL = re.compile(r"^_ZN[rVKRO]*4lens")


def cache_value(build_dir, key):
    path = os.path.join(build_dir, "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            name, sep, value = line.partition("=")
            if sep and name.split(":")[0] == key:
                return value.strip()
    return ""


def check_tree(build_dir):
    """Refuse a tree whose programs would keep functions they never reach."""
    problems = []
    if "-ffunction-sections" not in cache_value(build_dir, "CMAKE_CXX_FLAGS"):
        problems.append("CMAKE_CXX_FLAGS lacks -ffunction-sections")
    if "--gc-sections" not in cache_value(build_dir, "CMAKE_EXE_LINKER_FLAGS"):
        problems.append("CMAKE_EXE_LINKER_FLAGS lacks -Wl,--gc-sections")
    if cache_value(build_dir, "LENS_BUILD_TESTS").upper() in ("ON", "TRUE", "1", "YES"):
        problems.append("LENS_BUILD_TESTS is ON (tests must not count as callers)")
    return [f"{build_dir}: {p}" for p in problems]


def is_executable(path):
    """An ELF executable or PIE (e_type 2 or 3), not an object or archive."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return len(header) == 18 and header[:4] == b"\x7fELF" and header[16] in (2, 3)


def walk_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            yield os.path.join(dirpath, name)


def defined_symbols(path, types=None):
    """Mangled names of the symbols `path` defines (of `types`, if given)."""
    out = subprocess.run(["nm", "--defined-only", "-P", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have one field.
        if len(fields) >= 2 and (types is None or fields[1] in types):
            names.add(fields[0])
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def survey(build_dir, perfbench_dir):
    libraries = [p for p in walk_files(os.path.join(build_dir, "src"))
                 if os.path.basename(p).startswith("liblens_") and p.endswith(".a")]
    programs = [p for d in (build_dir, perfbench_dir) for p in walk_files(d)
                if is_executable(p)]
    if not libraries or not programs:
        raise SystemExit(f"no src/ libraries or no programs under {build_dir}, "
                         f"{perfbench_dir}: build both trees first")

    functions = set()
    for lib in libraries:
        functions |= {s for s in defined_symbols(lib, {"T"}) if LENS_SYMBOL.match(s)}
    linked = set()
    for program in programs:
        linked |= defined_symbols(program)

    # Compare demangled names: a constructor's or destructor's variants (C1
    # and C2, D0 to D2) share one name, and linking any of them counts.
    names = demangle(functions | linked)
    linked_names = {names[s] for s in linked}
    return sorted({names[s] for s in functions} - linked_names)


def read_expected(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="repository tree, tests off")
    parser.add_argument("perfbench_dir", help="perfbench/ tree")
    parser.add_argument("--expect", help="fail unless the list equals this file")
    args = parser.parse_args(argv)

    problems = check_tree(args.build_dir) + check_tree(args.perfbench_dir)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    unlinked = survey(args.build_dir, args.perfbench_dir)
    if args.expect is None:
        print("\n".join(unlinked))
        return 0
    expected = read_expected(args.expect)
    if unlinked == expected:
        print(f"{len(unlinked)} unlinked functions, as listed in {args.expect}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [n + "\n" for n in expected], [n + "\n" for n in unlinked],
        fromfile=args.expect, tofile="survey"))
    print("FAIL: the unlinked src/ functions differ from the list. Delete a "
          "function no program runs, or list one a test keeps on purpose.")
    return 1


if __name__ == "__main__":
    sys.exit(main())
