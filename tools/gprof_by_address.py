#!/usr/bin/env python3
"""Flat profile of a -pg binary, attributed by address.

Usage:
  tools/gprof_by_address.py BINARY GMON [GMON ...]
      read the histogram records of GNU gmon.out files written by BINARY
      and print the top symbols by self time and the self-time fold by
      module (e2ebench/benchlib.py's module_of).  Several files are summed.
  tools/gprof_by_address.py --self-test
      check the reader and the attribution on a synthetic gmon.out and a
      canned symbol table.

Why not gprof -p: GNU gprof (2.40) keeps out of its symbol table every
symbol whose name has a '.' suffix other than .constprop.N or .clone.N.
That drops GCC's coroutine bodies ("[clone .actor]", "[clone .destroy]"),
which hold most of the simulator's logic, and "[clone .isra.N]" functions;
their samples and call arcs land on whatever symbol precedes them in the
text.  This tool assigns each histogram bin to the text symbols from
`nm -C -n --defined-only BINARY` that it overlaps, clones included, split
by overlap as gprof does.  It reads only the histogram (self time), not
the call arcs.  The gmon.out layout is GNU's version 1 for a 64-bit
little-endian target (x86-64 Linux).
"""

from __future__ import annotations

import argparse
import bisect
import struct
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in e2ebench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "e2ebench"))
from benchlib import MODULES, OTHER, module_of  # noqa: E402

TAG_HIST, TAG_ARC, TAG_BB = 0, 1, 2
_HIST_HDR = struct.Struct("<QQII15sc")
_ARC = struct.Struct("<QQI")
_TEXT_TYPES = set("tTwWi")
TOP = 25  # symbols listed by report()


class GmonError(Exception):
    pass


def read_gmon(data: bytes) -> list[tuple[int, int, int, list[int]]]:
    """The histogram records of one gmon.out: (low_pc, high_pc, rate,
    counts) each.  Call-arc and basic-block records are skipped."""
    if len(data) < 20 or data[:4] != b"gmon":
        raise GmonError("not a gmon.out file (bad cookie)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != 1:
        raise GmonError(f"unsupported gmon.out version {version}")
    hists = []
    off = 20
    while off < len(data):
        tag = data[off]
        off += 1
        if tag == TAG_HIST:
            low, high, nbins, rate, _, _ = _HIST_HDR.unpack_from(data, off)
            off += _HIST_HDR.size
            end = off + 2 * nbins
            if end > len(data) or high <= low:
                raise GmonError("truncated or empty histogram record")
            counts = list(struct.unpack_from(f"<{nbins}H", data, off))
            hists.append((low, high, rate, counts))
            off = end
        elif tag == TAG_ARC:
            off += _ARC.size
        elif tag == TAG_BB:
            (nblocks,) = struct.unpack_from("<I", data, off)
            off += 4 + 16 * nblocks
        else:
            raise GmonError(f"unknown record tag {tag} at offset {off - 1}")
    if off != len(data):
        raise GmonError("truncated record at end of file")
    return hists


def parse_nm(text: str) -> tuple[list[int], list[str]]:
    """Sorted start addresses and names of the text symbols in
    `nm -C -n --defined-only` output; of several names at one address
    the first is kept."""
    addrs: list[int] = []
    names: list[str] = []
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in _TEXT_TYPES:
            continue
        addr = int(parts[0], 16)
        if addrs and addrs[-1] == addr:
            continue
        addrs.append(addr)
        names.append(parts[2])
    return addrs, names


def attribute(hists, addrs: list[int], names: list[str]) -> dict[str, float]:
    """Samples per symbol.  A bin covers [low + w*i, low + w*(i+1)) with
    w = (high - low) / bins, and a symbol [its address, the next one);
    a bin's count is split over the symbols it overlaps by overlap."""
    out: dict[str, float] = {}
    for low, high, _, counts in hists:
        width = (high - low) / len(counts)
        for i, count in enumerate(counts):
            if count == 0:
                continue
            lo = low + int(width * i)
            hi = max(low + int(width * (i + 1)), lo + 1)
            j = bisect.bisect_right(addrs, lo) - 1
            name = names[j] if j >= 0 else "<below first symbol>"
            start = lo
            while True:
                nxt = addrs[j + 1] if j + 1 < len(addrs) else hi
                stop = min(nxt, hi)
                share = count * (stop - start) / (hi - lo)
                out[name] = out.get(name, 0.0) + share
                if stop >= hi:
                    break
                j += 1
                name, start = names[j], stop
    return out


def fold(samples: dict[str, float]) -> dict[str, float]:
    """Samples per module (every module of MODULES plus OTHER)."""
    out = {m: 0.0 for m in MODULES}
    out[OTHER] = 0.0
    for name, n in samples.items():
        out[module_of(name)] += n
    return out


def display_name(name: str) -> str:
    """GCC names a coroutine body `F(F(params)::<mangled>.Frame*)
    [clone .actor]`; print it as `F(...) [clone .actor]`."""
    i = name.find("(")
    while i > 0:
        if name.startswith(name[:i] + "(", i + 1):
            clone = name.rfind(" [clone ")
            return name[:i] + "(...)" + (name[clone:] if clone > 0 else "")
        i = name.find("(", i + 1)
    return name


def report(samples: dict[str, float], rate: int) -> str:
    total = sum(samples.values())
    if total == 0:
        return "no samples\n"
    lines = [f"{total:.0f} samples, {total / rate:.2f} s at {rate} Hz", ""]
    lines.append(f"top {TOP} symbols by self time:")
    lines.append("   share   self_s  symbol")
    ranked = sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, n in ranked[:TOP]:
        lines.append(f"  {n / total:6.1%} {n / rate:8.2f}  {display_name(name)}")
    lines += ["", "by module:", "  module     share   self_s"]
    for module, n in fold(samples).items():
        lines.append(f"  {module:<8} {n / total:6.1%} {n / rate:8.2f}")
    return "\n".join(lines) + "\n"


def profile(binary: str, gmons: list[str]) -> tuple[dict[str, float], int]:
    nm = subprocess.run(
        ["nm", "-C", "-n", "--defined-only", binary],
        check=True, capture_output=True, text=True,
    ).stdout
    addrs, names = parse_nm(nm)
    hists = []
    for path in gmons:
        hists += read_gmon(Path(path).read_bytes())
    rates = {rate for _, _, rate, _ in hists}
    if len(rates) != 1:
        raise GmonError(f"histograms disagree on the sampling rate: {rates}")
    return attribute(hists, addrs, names), rates.pop()


# --- self-test --------------------------------------------------------------


def _gmon(low: int, high: int, counts: list[int]) -> bytes:
    out = b"gmon" + struct.pack("<I", 1) + bytes(12)
    out += bytes([TAG_HIST]) + _HIST_HDR.pack(
        low, high, len(counts), 100, b"seconds", b"s")
    out += struct.pack(f"<{len(counts)}H", *counts)
    out += bytes([TAG_ARC]) + _ARC.pack(0x1010, 0x1100, 7)
    out += bytes([TAG_BB]) + struct.pack("<I", 1) + struct.pack("<QQ", 1, 2)
    return out


def self_test() -> int:
    nm = "\n".join([
        "0000000000001000 T pfs::StripedFs::create_placed(int)",
        "0000000000001040 t pfs::StripedFs::read(int) [clone .actor]",
        "0000000000001040 t pfs::StripedFs::read(int) [clone .destroy]",
        "0000000000001080 t hw::Network::transfer(unsigned int) [clone .actor]",
        "00000000000010c0 W std::deque<mprt::Message>::_M_push_back_aux()",
        "00000000000010d0 T main",
        "0000000000004020 D some_data",
        "                 U malloc",
    ])
    addrs, names = parse_nm(nm)
    assert addrs == [0x1000, 0x1040, 0x1080, 0x10C0, 0x10D0], addrs
    assert names[1].endswith("read(int) [clone .actor]"), names

    # 4-byte bins over [0x1000, 0x1100): the coroutine bodies get their
    # own samples instead of gprof's create_placed.
    counts = [0] * 64
    counts[0] = 3            # create_placed
    counts[16] = 5           # read [clone .actor]
    counts[33] = 7           # transfer [clone .actor]
    counts[48] = 2           # deque<mprt::Message>
    counts[52] = 1           # main
    hists = read_gmon(_gmon(0x1000, 0x1100, counts))
    assert len(hists) == 1 and hists[0][2] == 100
    got = attribute(hists, addrs, names)
    want = {
        names[0]: 3.0, names[1]: 5.0, names[2]: 7.0, names[3]: 2.0,
        names[4]: 1.0,
    }
    assert got == want, got
    mods = fold(got)
    assert mods["pfs"] == 8.0 and mods["hw"] == 7.0, mods
    assert mods["mprt"] == 2.0 and mods[OTHER] == 1.0, mods
    actor = ("hw::Network::transfer(hw::Network::transfer(unsigned int)::"
             "_ZN2hw7Network8transferEj.Frame*) [clone .actor]")
    assert display_name(actor) == "hw::Network::transfer(...) [clone .actor]"
    assert display_name(names[0]) == names[0]

    # A bin straddling a symbol boundary is split by overlap: 8-byte
    # bins, the bin [0x10c8, 0x10d0) is all deque, [0x10d0, ...) main.
    wide = read_gmon(_gmon(0x10C0, 0x10E0, [0, 4, 0, 0]))
    assert attribute(wide, addrs, names) == {names[3]: 4.0}
    odd = read_gmon(_gmon(0x10C8, 0x10D8, [8]))  # half deque, half main
    assert attribute(odd, addrs, names) == {names[3]: 4.0, names[4]: 4.0}

    for bad in (b"nomg" + bytes(16), _gmon(0x1000, 0x1100, counts)[:-3]):
        try:
            read_gmon(bad)
        except (GmonError, struct.error):
            continue
        raise AssertionError("a malformed gmon.out was accepted")
    print("gprof_by_address self-test: ok (clone bodies keep their samples, "
          "split bins, module fold, malformed input rejected)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary", nargs="?")
    ap.add_argument("gmon", nargs="*")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.binary or not args.gmon:
        ap.error("need BINARY and at least one GMON file")
    samples, rate = profile(args.binary, args.gmon)
    sys.stdout.write(report(samples, rate))
    return 0


if __name__ == "__main__":
    sys.exit(main())
