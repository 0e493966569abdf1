#!/usr/bin/env python3
"""Fails when a lane round kernel that must be inlined is its own symbol.

The walk engine (src/walk/engine.hpp) depends on two round kernels being
inlined into the loops that drive them: the non-lazy stride round
`lane_round_csr_regular<false, ...>` (its serial, tallied copy and the
sharded driver's untallied one) and the fused direct round
`lane_round_direct`. Compiled out of line, either one turns every round
into a call, which at small k costs about as much as the round itself.
GCC's inlining choices move with the size of engine.cpp, so this check
reads the symbols (`nm -C --defined-only`) and fails loudly when one of
those kernels shows up as a function of its own.

Check the whole library archive, not engine.cpp.o alone: the engine's
members are inline, so every source file that runs an engine (cover.cpp,
for one) emits its own weak copy of the drivers, and the linker keeps
whichever copy it meets first, often not engine.cpp's.

It also fails when a torus walk driver divides: TorusSubstrate::neighbor
(src/graph/substrate.hpp) runs on every lane step without a hardware
divide, so no copy of `WalkEngineT<TorusSubstrate>::run_until_visited_*`
(its sharded rounds' lambdas included) may hold a 32-bit `div`/`idiv`,
the width of a Vertex divide. The 64-bit divides the sharded drivers
use to split the lanes into shards run once per epoch and are allowed.
neighbor itself is not in MUST_INLINE: callers off the hot path keep a
weak out-of-line copy of it.

Usage:
    python3 tools/check_inlining.py [archive, object or binary ...]

The default is the library archive of a top-level `cmake -B build` build.
"""

import re
import subprocess
import sys

DEFAULT_PATHS = ["build/libmanywalks.a"]

# Demangled-name prefixes of the kernels that must never be out of line.
MUST_INLINE = (
    "manywalks::detail::lane_round_csr_regular<false, ",
    "manywalks::detail::lane_round_direct<",
)

# A driver the inputs must define, so a wrong or empty file cannot pass
# the check vacuously.
EXPECTED_DRIVER = "::run_until_visited_lane<false>("

# Functions that must not divide: every torus walk driver.
NO_DIVIDE = "manywalks::WalkEngineT<manywalks::TorusSubstrate>::run_until_visited_"

FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)\s*(\S*)")
# An integer divide on 32-bit operands: a register such as %esi or
# %r12d, or a memory operand with the l suffix.
DIVIDE_32 = re.compile(r"i?div(l\s.*|\s+%(e[a-z]{2}|r\d+d))$")


def defined_symbols(path):
    result = subprocess.run(["nm", "-C", "--defined-only", path],
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"check_inlining: nm failed on {path}: {result.stderr.strip()}")
    names = []
    for line in result.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            names.append(parts[2])
    return names


def dividing_torus_drivers(path):
    """The number of torus driver functions in `path`, and a
    (function, instruction) pair for each 32-bit divide in one of them."""
    result = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", path],
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"check_inlining: objdump failed on {path}: "
                 f"{result.stderr.strip()}")
    function = None
    drivers = 0
    found = []
    for line in result.stdout.splitlines():
        header = FUNCTION.match(line)
        if header:
            function = header.group(1)
            drivers += NO_DIVIDE in function
            continue
        if function is None or NO_DIVIDE not in function:
            continue
        insn = INSTRUCTION.match(line)
        if insn:
            text = f"{insn.group(1)} {insn.group(2)}"
            if DIVIDE_32.match(text):
                found.append((function, text))
    return drivers, found


def out_of_line_kernels(names):
    """The names (with any " [clone ...]" suffix) of must-inline kernels."""
    return [name for name in names
            if any(name.startswith(prefix) or f" {prefix}" in name
                   for prefix in MUST_INLINE)]


def main(argv):
    paths = argv[1:] or DEFAULT_PATHS
    names = [name for path in paths for name in defined_symbols(path)]
    where = " ".join(paths)
    if not any(EXPECTED_DRIVER in name for name in names):
        sys.exit(f"check_inlining: {where} defines no run_until_visited_lane "
                 "driver; is it the manywalks library?")
    failed = False
    found = out_of_line_kernels(names)
    if found:
        print(f"check_inlining: {where}: round kernels compiled out of line "
              "(each is now a call per round; see the inlining note above "
              "commit_visit in src/walk/engine.hpp):", file=sys.stderr)
        for name in found:
            print(f"  {name}", file=sys.stderr)
        failed = True
    drivers = 0
    for path in paths:
        count, divides = dividing_torus_drivers(path)
        drivers += count
        if divides:
            print(f"check_inlining: {path}: torus walk drivers divide (a "
                  "hardware divide on every step; see TorusSubstrate::"
                  "neighbor in src/graph/substrate.hpp):", file=sys.stderr)
            for function, insn in divides:
                print(f"  {insn}  in  {function}", file=sys.stderr)
            failed = True
    if drivers == 0:
        sys.exit(f"check_inlining: {where} defines no TorusSubstrate walk "
                 "driver; is it the manywalks library?")
    if failed:
        return 1
    print(f"check_inlining: {where}: stride and direct round kernels inlined, "
          "torus walk drivers divide-free")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
