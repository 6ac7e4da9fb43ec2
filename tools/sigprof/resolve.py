#!/usr/bin/env python3
"""Turn a shim.c dump into self / inclusive / allocator-attribution tables,
or (--heap) a heapshim.c dump into a live-heap census.

    python3 tools/sigprof/resolve.py run.prof path/to/binary
    python3 tools/sigprof/resolve.py --heap run.heap path/to/binary
    python3 tools/sigprof/resolve.py --rows 60 run.prof path/to/binary
    python3 tools/sigprof/resolve.py --lines 'Sim<..>::apply_ops$' run.prof path/to/binary

`--rows N` sets how many rows each table prints (default 30). `--lines
PATTERN` prints one table instead: self samples per source line, for the
leaves whose inline chain (any function name or file:line in it) matches
the regular expression PATTERN. A row is the leaf's line and up to three
frames it is inlined into, each as the line of the call, so a function's
own rows split its self share by line — prologue, loop, epilogue.

Frames inside the binary are resolved with `addr2line -f -C -i` (build with
CARGO_PROFILE_RELEASE_DEBUG=1 so inlined callees get their own rows); the
binary is PIE, so a frame's file address is its runtime address minus the
binary's lowest mapping. Frames elsewhere are named after their mapping
(`[libc.so.6]`), which is all a stripped libc allows; in the self table
such a leaf also names the function that called out (`[libc.so.6] <-
MsgArena::take` is a memmove, `<- System::alloc` is malloc).

Every sample's first two frames are the shim's handler and the kernel's
signal trampoline; the third is the interrupted instruction itself and the
rest are return addresses (one past the call, hence the -1). A heap dump's
stacks are return addresses throughout, and begin inside the shim.
"""

import argparse
import collections
import os
import re
import signal
import subprocess
import sys

ROWS = 30  # per table, by default

# The global allocator's entry points, and the plumbing between them and
# the code that asked: a sample is attributed to the first frame past both.
ALLOCATOR = re.compile(
    r"GlobalAlloc>::(alloc|dealloc|realloc|alloc_zeroed)$"
    r"|__rust_(alloc|dealloc|realloc|alloc_zeroed)$|__rdl_(alloc|dealloc|realloc)"
)
# (`<T as ..>` / `<str as ..>`: a self type with no path is std's, ours are
# always path-qualified.)
PLUMBING = re.compile(r"^<?(alloc|core|std)::|^<\w+ as |^main$|^_start$")


def parse(path, marker, lead):
    """The dump's mappings and its stacks: the lines after `marker`, each
    `lead` decimal fields, then hex frames."""
    maps, stacks, in_stacks = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith(marker):
                in_stacks = True
            elif in_stacks:
                fields = line.split()
                head = [int(x) for x in fields[:lead]]
                stacks.append((head, [int(a, 16) for a in fields[lead:]]))
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
    """addr -> [(function, file:line), ...], innermost inlined function
    first, the physical function last; each line is where that function
    was executing (for an outer frame, the call it inlined)."""
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
            cur.append((short(lines[i]), source_line(lines[i + 1])))
            i += 2
    return table


def source_line(loc):
    """`file:line` of an addr2line location, without the directory or a
    `(discriminator N)` suffix."""
    return os.path.basename(loc.split(" ")[0])


def namer(profile, binary, maps, stacks, exact_first):
    """Two functions of a stack: its function names, innermost first and
    inlines expanded; and its first frame's inline chain as
    `(function, file:line)` pairs, or None outside the binary. Every frame
    is a return address (resolved one byte back, inside the call), except
    the first when `exact_first`."""
    mine = [(lo, hi) for lo, hi, path in maps if path == binary]
    if not mine:
        # Moved or rebuilt since the run (maps then says "(deleted)"), or
        # simply not the binary that was profiled.
        mapped = sorted({path for _, _, path in maps if path.startswith("/")})
        sys.exit(f"{binary} is not mapped in {profile}; the dump maps:\n  " + "\n  ".join(mapped))
    base = min(lo for lo, _ in mine)
    top = max(hi for _, hi in mine)

    def pc(sample, depth):
        return sample[depth] - (0 if exact_first and depth == 0 else 1)

    inside = {pc(s, d) for s in stacks for d in range(len(s)) if base <= pc(s, d) < top}
    names = symbolize(binary, base, inside)

    def frames(sample):
        out = []
        for d in range(len(sample)):
            a = pc(sample, d)
            if a in names:
                out.extend(name for name, _ in names[a])
            else:
                where = next((p for lo, hi, p in maps if lo <= a < hi), "")
                out.append(f"[{os.path.basename(where) or 'anon'}]")
        return out

    def leaf_chain(sample):
        return names.get(pc(sample, 0))

    return frames, leaf_chain


def asked(fs):
    """The nearest frame of `fs` that is neither the allocator nor the
    plumbing between it and the code that asked."""
    return next((f for f in fs if not ALLOCATOR.search(f) and not PLUMBING.search(f)), "?")


def top(counter, rows):
    """The `rows` largest counts, ties by name: `Counter.most_common` keeps
    insertion order, which follows set iteration and so Python's per-run
    string hashing, and one dump would resolve to tables in different
    row orders."""
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:rows]


def samples(profile):
    """A shim.c dump's mappings and its stacks, past the two signal
    frames every sample begins with."""
    maps, stacks = parse(profile, "STACKS", 0)
    return maps, [s[2:] for _, s in stacks if len(s) > 2]


def profile_tables(profile, binary, rows):
    maps, stacks = samples(profile)
    frames, _ = namer(profile, binary, maps, stacks, exact_first=True)

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
            sites[asked(fs[entry:])] += 1

    total = len(stacks)
    # Frames on nearly every stack are the process's way into the work,
    # and std's own frames are never the row an inclusive table is read for.
    for f in [f for f, c in incl.items() if c > 0.9 * total or PLUMBING.search(f)]:
        del incl[f]

    def table(title, counter):
        print(f"\n{title}")
        for name, c in top(counter, rows):
            print(f"{100 * c / total:6.2f}%  {c:6d}  {name}")

    print(f"{total} samples, {os.path.basename(profile)}, {os.path.basename(binary)}")
    table("self (innermost frame, inlined callees on their own rows)", self_)
    table("inclusive (samples with the function on the stack; std and rows above 90% omitted)", incl)
    print(f"\nallocator frames: {in_allocator} samples, {100 * in_allocator / total:.2f}% of all")
    table("allocator samples by the nearest caller outside std", sites)


def line_table(profile, binary, rows, pattern):
    """Self samples by source line, for the leaves inside the binary whose
    inline chain matches `pattern`: the leaf's line and up to three frames
    it is inlined into."""
    maps, stacks = samples(profile)
    _, leaf_chain = namer(profile, binary, maps, stacks, exact_first=True)
    by_line = collections.Counter()
    for s in stacks:
        chain = leaf_chain(s)
        if chain and any(pattern.search(name) or pattern.search(loc) for name, loc in chain):
            by_line[" <- ".join(f"{loc} {name}" for name, loc in chain[:4])] += 1
    total, matched = len(stacks), sum(by_line.values())
    print(f"{total} samples, {os.path.basename(profile)}, {os.path.basename(binary)}")
    print(f"\nself by source line, leaves matching {pattern.pattern!r}: {matched} samples, "
          f"{100 * matched / total:.2f}% of all (share of all samples, samples, "
          "leaf line, then up to three frames it is inlined into)")
    for key, c in top(by_line, rows):
        print(f"{100 * c / total:6.2f}%  {c:6d}  {key}")


def heap_census(profile, binary, rows):
    """Live bytes and blocks by the nearest caller outside std, each row
    with its three heaviest block sizes."""
    maps, blocks = parse(profile, "BLOCKS", 1)
    frames, _ = namer(profile, binary, maps, [s for _, s in blocks], exact_first=False)
    sizes_by = collections.defaultdict(collections.Counter)  # caller -> size -> blocks
    for (size,), stack in blocks:
        fs = frames(stack)
        shim = fs[0]  # the stack starts in the shim's own mapping
        sizes_by[asked([f for f in fs if f != shim])][size] += 1
    callers = sorted(
        ((sum(b * c for b, c in sizes.items()), sum(sizes.values()), who)
         for who, sizes in sizes_by.items()),
        reverse=True,
    )
    total = sum(size for size, _, _ in callers)
    print(f"{total} live bytes in {len(blocks)} blocks, {os.path.basename(profile)}, "
          f"{os.path.basename(binary)}")
    print("\nlive bytes by the nearest caller outside std (share, bytes, blocks, caller, "
          "largest block sizes as count x bytes)")
    for size, count, who in callers[:rows]:
        top = sorted(sizes_by[who].items(), key=lambda kv: -kv[0] * kv[1])[:3]
        shapes = ", ".join(f"{c} x {b}" for b, c in top)
        print(f"{100 * size / total:6.2f}%  {size:9d}  {count:5d}  {who}  [{shapes}]")


def main():
    # Die quietly when the reader goes away (`resolve.py … | head`), as a
    # command-line filter should, instead of a BrokenPipeError traceback.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(
        prog="resolve.py", description="Resolve a shim.c or heapshim.c dump into tables.")
    ap.add_argument("--heap", action="store_true", help="census a heapshim.c dump")
    ap.add_argument("--rows", type=rows_arg, default=ROWS, metavar="N",
                    help=f"rows per table (default {ROWS})")
    ap.add_argument("--lines", type=pattern_arg, metavar="PATTERN",
                    help="self samples per source line of the leaves whose inline chain "
                         "matches the regular expression PATTERN")
    ap.add_argument("dump")
    ap.add_argument("binary")
    args = ap.parse_args()
    binary = os.path.realpath(args.binary)
    if args.lines and args.heap:
        ap.error("--lines reads a shim.c dump, not a --heap one")
    if args.lines:
        line_table(args.dump, binary, args.rows, args.lines)
    else:
        tables = heap_census if args.heap else profile_tables
        tables(args.dump, binary, args.rows)


def rows_arg(text):
    """A positive row count."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def pattern_arg(text):
    """A regular expression."""
    try:
        return re.compile(text)
    except re.error as e:
        raise argparse.ArgumentTypeError(f"not a regular expression: {text!r} ({e})")


if __name__ == "__main__":
    main()
