"""Pure helpers of the end-to-end benchmark: statistics, derived ratios,
metric-name validation and the gprof flat-profile fold by module.

Kept free of I/O so tests/test_benchlib.py can check them on canned input.
"""

from __future__ import annotations

import re
import statistics

# Top-level namespaces of the simulator's libraries (src/<dir>), in the
# order they are reported.  Symbols of any other namespace -- the standard
# library with no project type in its template arguments, libc, the
# driver's own anonymous namespace -- fold into OTHER.
MODULES = (
    "simkit",
    "mprt",
    "pario",
    "pfs",
    "iosrv",
    "sched",
    "fault",
    "audit",
    "hw",
    "ckpt",
    "apps",
    "metrics",
)
OTHER = "other"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name: str) -> bool:
    """A metric or workload name: a letter or digit, then letters, digits,
    '_', '.' or '-', at most 64 characters in all."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the base is zero (an idle layer)."""
    return num / den if den else 0.0


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and the highest one (of all of
    them when there are fewer than three)."""
    if not values:
        raise ValueError("mean of no values")
    kept = sorted(values)[1:-1] if len(values) >= 3 else values
    return statistics.fmean(kept)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


# --- gprof flat profile --------------------------------------------------

_FLAT_ROW = re.compile(
    r"^\s*(\d+\.\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+"
    r"(?:(\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+)?(\S.*?)\s*$"
)


def parse_flat_profile(text: str) -> list[tuple[float, str]]:
    """(self seconds, symbol) for every row of `gprof -b -p` output."""
    rows = []
    for line in text.splitlines():
        m = _FLAT_ROW.match(line)
        if m:
            rows.append((float(m.group(3)), m.group(7)))
    return rows


_CLONE = re.compile(r"\s*\[clone [^\]]*\]")
_OPERATOR_CHARS = set("<>=!+-*/%&|^~[],")
_PROJECT_NS = re.compile(r"(?<![A-Za-z0-9_])(" + "|".join(MODULES) + r")::")


def _qualified_name(symbol: str) -> str:
    """The function's qualified name: clone suffixes, the parameter list
    and any leading return type removed.  Template arguments stay."""
    s = _CLONE.sub("", symbol).replace("(anonymous namespace)", "{anon}")
    s = s.replace("operator new", "operator_new")
    s = s.replace("operator delete", "operator_delete")
    angle = brace = paren = 0
    start = 0  # first character after the last top-level space
    i = 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or not s[i - 1].isalnum()):
            i += len("operator")
            if s.startswith("()", i):
                i += 2
            while i < len(s) and s[i] in _OPERATOR_CHARS:
                i += 1
            continue
        c = s[i]
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(angle - 1, 0)
        elif c == "{":
            brace += 1
        elif c == "}":
            brace = max(brace - 1, 0)
        elif c == "(" and angle == 0 and brace == 0 and paren == 0:
            return s[start:i]
        elif c == "(":
            paren += 1
        elif c == ")":
            paren = max(paren - 1, 0)
        elif c == " " and angle == 0 and brace == 0 and paren == 0:
            start = i + 1
        i += 1
    return s[start:]


def module_of(symbol: str) -> str:
    """The first project namespace in the symbol's qualified name.  A
    standard-library template thereby counts for the project type it is
    instantiated on (std::deque<mprt::Message> is mprt), an anonymous
    namespace for the namespace around it, and anything else is OTHER."""
    m = _PROJECT_NS.search(_qualified_name(symbol))
    return m.group(1) if m else OTHER


def fold_profile(text: str) -> dict[str, float]:
    """Self seconds per module (every module of MODULES plus OTHER)."""
    out = {m: 0.0 for m in MODULES}
    out[OTHER] = 0.0
    for seconds, symbol in parse_flat_profile(text):
        out[module_of(symbol)] += seconds
    return out
