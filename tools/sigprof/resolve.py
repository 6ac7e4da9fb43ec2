#!/usr/bin/env python3
"""Turn a shim.c dump into self / inclusive / allocator-attribution tables.

    python3 tools/sigprof/resolve.py run.prof path/to/binary

Frames inside the binary are resolved with `addr2line -f -C -i` (build with
CARGO_PROFILE_RELEASE_DEBUG=1 so inlined callees get their own rows); the
binary is PIE, so a frame's file address is its runtime address minus the
binary's lowest mapping. Frames elsewhere are named after their mapping
(`[libc.so.6]`), which is all a stripped libc allows; in the self table
such a leaf also names the function that called out (`[libc.so.6] <-
MsgArena::take` is a memmove, `<- System::alloc` is malloc).

Every sample's first two frames are the shim's handler and the kernel's
signal trampoline; the third is the interrupted instruction itself and the
rest are return addresses (one past the call, hence the -1).
"""

import collections
import os
import re
import subprocess
import sys

ROWS = 30  # per table

# The global allocator's entry points, and the plumbing between them and
# the code that asked: a sample is attributed to the first frame past both.
ALLOCATOR = re.compile(
    r"GlobalAlloc>::(alloc|dealloc|realloc|alloc_zeroed)$"
    r"|__rust_(alloc|dealloc|realloc|alloc_zeroed)$|__rdl_(alloc|dealloc|realloc)"
)
# (`<T as ..>` / `<str as ..>`: a self type with no path is std's, ours are
# always path-qualified.)
PLUMBING = re.compile(r"^<?(alloc|core|std)::|^<\w+ as |^main$|^_start$")


def parse(path):
    maps, stacks, in_stacks = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("STACKS"):
                in_stacks = True
            elif in_stacks:
                frames = [int(a, 16) for a in line.split()]
                if len(frames) > 2:
                    stacks.append(frames[2:])
            else:
                parts = line.split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, parts[5] if len(parts) > 5 else ""))
    return maps, stacks


def short(name):
    """One row per function: drops the hash suffix and every generic
    argument list except a leading `<T as Trait>`."""
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    out, depth = [], 0
    for i, ch in enumerate(name):
        if ch == "<" and i > 0:
            depth += 1
            if depth == 1:
                out.append("<..>")
        elif ch == ">" and depth and name[i - 1] != "-":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def symbolize(binary, base, addrs):
    """addr -> [innermost inlined function, ..., the physical function]."""
    addrs = sorted(addrs)
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="".join(f"{a - base:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    )
    table, cur = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = table.setdefault(int(lines[i], 16) + base, [])
            i += 1
        else:
            cur.append(short(lines[i]))  # lines[i + 1] is file:line
            i += 2
    return table


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: resolve.py <dump> <binary>")
    profile, binary = sys.argv[1], os.path.realpath(sys.argv[2])

    maps, stacks = parse(profile)
    mine = [(lo, hi) for lo, hi, path in maps if path == binary]
    if not mine:
        # Moved or rebuilt since the run (maps then says "(deleted)"), or
        # simply not the binary that was profiled.
        mapped = sorted({path for _, _, path in maps if path.startswith("/")})
        sys.exit(f"{binary} is not mapped in {profile}; the dump maps:\n  " + "\n  ".join(mapped))
    base = min(lo for lo, _ in mine)
    top = max(hi for _, hi in mine)

    def pc(sample, depth):
        return sample[depth] - (1 if depth else 0)

    inside = {pc(s, d) for s in stacks for d in range(len(s)) if base <= pc(s, d) < top}
    names = symbolize(binary, base, inside)

    def frames(sample):
        """Function names of one sample, innermost first, inlines expanded."""
        out = []
        for d in range(len(sample)):
            a = pc(sample, d)
            if a in names:
                out.extend(names[a])
            else:
                where = next((p for lo, hi, p in maps if lo <= a < hi), "")
                out.append(f"[{os.path.basename(where) or 'anon'}]")
        return out

    self_, incl, sites = (collections.Counter() for _ in range(3))
    in_allocator = 0
    for s in stacks:
        fs = frames(s)
        leaf = fs[0]
        if leaf.startswith("["):
            leaf += " <- " + next((f for f in fs if not f.startswith("[")), "?")
        self_[leaf] += 1
        for f in set(fs):
            incl[f] += 1
        entry = next((i for i, f in enumerate(fs) if ALLOCATOR.search(f)), None)
        if entry is not None:
            in_allocator += 1
            asked = (f for f in fs[entry:] if not ALLOCATOR.search(f) and not PLUMBING.search(f))
            sites[next(asked, "?")] += 1

    total = len(stacks)
    # Frames on nearly every stack are the process's way into the work,
    # and std's own frames are never the row an inclusive table is read for.
    for f in [f for f, c in incl.items() if c > 0.9 * total or PLUMBING.search(f)]:
        del incl[f]

    def table(title, counter):
        print(f"\n{title}")
        for name, c in counter.most_common(ROWS):
            print(f"{100 * c / total:6.2f}%  {c:6d}  {name}")

    print(f"{total} samples, {os.path.basename(profile)}, {os.path.basename(binary)}")
    table("self (innermost frame, inlined callees on their own rows)", self_)
    table("inclusive (samples with the function on the stack; std and rows above 90% omitted)", incl)
    print(f"\nallocator frames: {in_allocator} samples, {100 * in_allocator / total:.2f}% of all")
    table("allocator samples by the nearest caller outside std", sites)


if __name__ == "__main__":
    main()
