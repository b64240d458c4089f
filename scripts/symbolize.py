#!/usr/bin/env python3
"""Where a sampled process spent its CPU: samples per thread and per function.

    python3 scripts/symbolize.py <dump>

<dump> is what scripts/sampler.c writes at exit: the samples (thread id,
interrupted instruction pointer and the return addresses of its
frame-pointer chain), the threads' names and the process's /proc/self/maps.
Only threads whose name starts with `cache-` (the server's event loops and
its control thread) are counted. Threads of one name count as one (a
benchmark run sets its server up three times, so it has three
`cache-loop-0`s). For each name the script prints its samples and its 30
busiest functions, with their share of that name's samples (the innermost
frame: exclusive), then the inclusive table: for each of a few named parts
of the request path (ROWS), the share of samples with a frame of that part
anywhere in their chain, inlined frames included.

The chains need frame pointers, which scripts/profile.sh builds with
(-C force-frame-pointers=yes): that costs the profiled build a little (one
register and a push and pop per call), so its shares are of a slightly
slower loop than the benchmark's. A sample taken inside glibc, which keeps
no frame pointers, or in a function's prologue, loses its innermost caller
from the chain; a dump without chains (an older sampler) prints an empty
inclusive table.

A sample in the executable is named by `addr2line -f -i -C` after its
innermost inlined frame: the function whose code was running, even where
the compiler folded it into a caller. That needs line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only, as scripts/profile.sh builds).

A sample in a shared library is charged to the nearest symbol the library
exports at or below it, printed as `<library>:<symbol>` with the range of
addresses hit. glibc exports neither its malloc internals (`_int_malloc`,
`_int_free`) nor its vector memmove (`__memmove_avx_unaligned_erms`, or
`__memmove_evex_unaligned_erms` on an AVX-512 CPU: what `memcpy` and
`memmove` resolve to), so their samples land under an exported neighbour
at a large offset. On glibc 2.36 for x86-64 the memmove reads as
`__nss_database_lookup` at 0x163000-0x16f000 and the malloc internals as
`__default_morecore`; so do their chunk helpers at 0x95060-0x95243
(`unlink_chunk` and `malloc_consolidate`), which read as `timer_settime`
at +0xb70 and beyond and which only `_int_malloc`, `_int_free`, `mallopt`
and `malloc_trim` call. A malloc/free row counts both ranges. To place
such a row, disassemble its range:

    objdump -d --no-show-raw-insn --start-address=<low> --stop-address=<high> \\
        /lib/x86_64-linux-gnu/libc.so.6

The memmove is the code moving `%ymm` or `%zmm` registers (`vmovdqu`,
`vmovdqu64`) and `rep movsb`; `_int_malloc` and `_int_free` follow
`__default_morecore`, and their callers (`malloc`, `free`, `realloc`) are
exported and show by name. The memmove range holds the vector memset too:
its `rep stos` is at 0x16e0b0-0x16e0bf. Samples at 0x85820-0x858d1, which
read as `__libc_alloca_cutoff+0x50` and beyond, are
`__pthread_enable_asynccancel` and `__pthread_disable_asynccancel`, which
every blocking syscall (`send`, `recv`, `read`, `write`, `epoll_wait`)
passes through on its way into and out of the kernel.
"""

import bisect
import collections
import os
import re
import struct
import subprocess
import sys

THREADS = "cache-"
TOP = 30
# The inclusive rows: a name, then the places a frame of it may be in: a
# source file, the module path, and the functions there that count (None:
# all of them). addr2line names an inlined frame by its bare name (`route`,
# `next`) and its source file, and an outermost frame by its full path, but
# places that one's address in whatever file the line table says (an
# inlined `Option` method's, say): a frame counts if either the file or
# the path is the row's.
PARSER = {"next_request", "parse_line", "next", "number", "find_crlf", "complete", "word_at"}
ROWS = [
    ("parser", ("server/src/protocol.rs", "cache_server::protocol::", PARSER)),
    (
        "route",
        ("server/src/plane.rs", "cache_server::plane::", {"route"}),
        ("server/src/engine.rs", "cache_server::engine::", {"route_key"}),
        ("cache-core/src/key.rs", "cache_core::key::", {"hash_bytes", "short_word"}),
    ),
    ("MRC estimator", ("profiler/src/", "profiler::", None)),
    ("sweeps", ("server/src/plane.rs", "cache_server::plane::", {"sweep"})),
    ("LoopState::store", ("server/src/plane.rs", "cache_server::plane::", {"store"})),
    (
        "probe_shadows",
        (
            "cliffhanger/src/partitioned_queue.rs",
            "cliffhanger::partitioned_queue::",
            {"probe_shadows"},
        ),
    ),
]


def bare(name):
    """A function's name without its path or generic arguments."""
    depth, out = 0, []
    for c in name:
        depth += c == "<"
        if depth == 0:
            out.append(c)
        depth -= c == ">" and depth > 0
    return "".join(out).rsplit("::", 1)[-1]


def in_row(frame, row):
    """Whether a (function, file) frame belongs to an inclusive row."""
    name, file = frame
    return any(
        (path in file or module in name) and (names is None or bare(name) in names)
        for path, module, names in row[1:]
    )


def read_dump(path):
    """(thread names by id, [(tid, ip, return addresses)], sorted executable mappings)."""
    threads, samples, maps = {}, [], []
    in_maps = False
    with open(path) as dump:
        for line in dump:
            line = line.rstrip("\n")
            if in_maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "x" in fields[1]:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
                continue
            kind, _, rest = line.partition(" ")
            if kind == "thread":
                tid, _, name = rest.partition(" ")
                threads[int(tid)] = name
            elif kind == "sample":
                tid, ip, *chain = rest.split()
                samples.append((int(tid), int(ip, 16), tuple(int(r, 16) for r in chain)))
            elif kind == "maps":
                in_maps = True
    maps.sort()
    return threads, samples, maps


def load_segments(path):
    """The (file offset, address, size) of each PT_LOAD segment of an ELF file."""
    try:
        with open(path, "rb") as elf:
            head = elf.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            (phoff,) = struct.unpack_from("<Q", head, 0x20)
            phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
            elf.seek(phoff)
            table = elf.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segments.append((offset, vaddr, filesz))
    return segments


def exports(path):
    """The sorted (address, name) of the functions a library exports."""
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", path], capture_output=True, text=True
    ).stdout
    symbols = []
    for line in listing.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TtWi":
            symbols.append((int(fields[0], 16), fields[2].split("@")[0]))
    return sorted(symbols)


def inlined_frames(path, addresses):
    """For each address of `path`, the (function, file) of its inlined frames, innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(hex(a) for a in addresses),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    # Per address: the address, then a (function, file:line) pair per
    # frame, innermost first.
    frames, address, i = {}, None, 0
    while i < len(out):
        if re.fullmatch(r"0x[0-9a-f]+", out[i]):
            address = int(out[i], 16)
            frames[address] = []
            i += 1
        else:
            name = re.sub(r"::h[0-9a-f]{16}$", "", out[i])
            frames[address].append((name, out[i + 1].rsplit(":", 1)[0]))
            i += 2
    return frames


def resolve(addresses, maps):
    """The frames each address is in (innermost first), and each library row's address range."""
    starts = [m[0] for m in maps]
    where = {}
    for ip in addresses:
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= maps[i][1]:
            continue
        start, _, offset, path = maps[i]
        at = ip - start + offset
        for seg_offset, vaddr, size in load_segments(path) if path.startswith("/") else []:
            if seg_offset <= at < seg_offset + size:
                where[ip] = (path, at - seg_offset + vaddr)
                break
        else:
            where[ip] = (path, None)

    by_object = collections.defaultdict(set)
    for path, address in where.values():
        if address is not None:
            by_object[path].add(address)
    names, ranges = {}, {}
    for path, addresses in by_object.items():
        if ".so" in os.path.basename(path):
            symbols = exports(path)
            keys = [s[0] for s in symbols]
            for address in addresses:
                j = bisect.bisect_right(keys, address) - 1
                name = f"{os.path.basename(path)}:{symbols[j][1] if j >= 0 else '?'}"
                names[(path, address)] = [(name, path)]
                low, high = ranges.get(name, (address, address))
                ranges[name] = (min(low, address), max(high, address))
        else:
            for address, frames in inlined_frames(path, sorted(addresses)).items():
                names[(path, address)] = frames
    functions = {}
    for ip, (path, address) in where.items():
        functions[ip] = names.get((path, address)) or [(os.path.basename(path) or "?", path)]
    return functions, ranges


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <dump>")
    threads, samples, maps = read_dump(sys.argv[1])
    kept = [(threads.get(tid, "?"), ip, chain) for tid, ip, chain in samples]
    kept = [sample for sample in kept if sample[0].startswith(THREADS)]
    # A return address is the instruction after its call: look up the call.
    addresses = {ip for _, ip, _ in kept} | {r - 1 for _, _, chain in kept for r in chain}
    frames, ranges = resolve(addresses, maps)
    functions = {ip: names[0][0] for ip, names in frames.items()}

    per_thread = collections.defaultdict(list)
    chains = collections.defaultdict(list)
    for name, ip, chain in kept:
        per_thread[name].append(ip)
        chains[name].append([ip] + [r - 1 for r in chain])

    print(f"{len(samples)} samples, {len(kept)} in threads named {THREADS}*")
    for name in sorted(per_thread):
        print(f"thread {name}: {len(per_thread[name])} samples")
    for name in sorted(per_thread):
        ips = per_thread[name]
        counts = collections.Counter(functions.get(ip, "?") for ip in ips)
        print(f"\n{name}: {len(ips)} samples\n  share  samples  function")
        for function, n in counts.most_common(TOP):
            extra = ""
            if function in ranges:
                low, high = ranges[function]
                extra = f"  [{low:#x}..{high:#x}]"
            print(f"{n / len(ips):7.1%} {n:8d}  {function}{extra}")
        print(f"  inclusive (a frame anywhere in the chain)\n  share  samples  row")
        for row in ROWS:
            n = sum(
                any(in_row(f, row) for address in chain for f in frames.get(address, ()))
                for chain in chains[name]
            )
            print(f"{n / len(ips):7.1%} {n:8d}  {row[0]}")
    return 0 if kept else 1


if __name__ == "__main__":
    sys.exit(main())
