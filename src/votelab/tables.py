"""Quota summary tables (CLI ids 3-6) regenerated from the closed forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .criteria import Quota, quota_majority, quota_majority_sup, quota_veto_sup

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TableData:
    """One emitted table: per-rule quota cells plus display-only formula text."""

    which: int
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[Quota | None, ...], str, Quota | None], ...]


# Closed-form column text and the supremum of the tabulated quota over the
# group-size parameter, per rule and table.
_MAJORITY_FORMULA = {
    "irv": ("1/2", HALF),
    "clr:even": ("(5k-2)/(8k)", Fraction(5, 8)),
    "clr:odd": ("(5k^2-2k+1)/(8k^2)", Fraction(5, 8)),
    "convexmedian": ("(3k-1)/(4k)", Fraction(3, 4)),
    "runoff": ("k/(k+2)", Fraction(1)),
    "simpson": ("(k-1)/k", Fraction(1)),
    "young": ("(k-1)/k", Fraction(1)),
    "plurality": ("k/(k+1)", Fraction(1)),
    "black": ("1", Fraction(1)),
    "vetocore": ("1", Fraction(1)),
    "borda": ("1", Fraction(1)),
    "antiplurality": ("1", Fraction(1)),
}

_VETO_FORMULA = {
    "irv": ("1/2", HALF),
    "clr": ("5/8", Fraction(5, 8)),
    "convexmedian": ("(3l-4)/(4l-4)", Fraction(3, 4)),
    "black": ("(2l+1)/(2l+4)", Fraction(1)),
    "vetocore": ("l/(l+1)", Fraction(1)),
    "borda": ("l/(l+1)", Fraction(1)),
    "antiplurality": ("1", Fraction(1)),
    "runoff": ("1", Fraction(1)),
    "simpson": ("1", Fraction(1)),
    "young": ("1", Fraction(1)),
    "plurality": ("1", Fraction(1)),
}

_VETO_HALF_FORMULA = {
    "vetocore": ("1/2", HALF),
    "irv": ("1/2", HALF),
    "clr": ("5/8", Fraction(5, 8)),
    "convexmedian": ("(-7+3l+sqrt(17-10l+9l^2))/(8l-8)", Fraction(3, 4)),
    "black": ("(3l-1)/(4l)", Fraction(3, 4)),
    "borda": ("(3l-1)/(4l)", Fraction(3, 4)),
    "antiplurality": ("1", Fraction(1)),
    "runoff": ("1", Fraction(1)),
    "simpson": ("1", Fraction(1)),
    "young": ("1", Fraction(1)),
    "plurality": ("1", Fraction(1)),
}


def _majority_power_table() -> TableData:
    rows = []
    for key in _MAJORITY_FORMULA:
        rule, _, variant = key.partition(":")
        cells: list[Quota | None] = []
        for k in range(1, 5):
            if variant == "even" and k % 2 == 1:
                cells.append(None)
            elif variant == "odd" and k % 2 == 0:
                cells.append(None)
            else:
                cells.append(quota_majority_sup(rule, k))
        formula, sup = _MAJORITY_FORMULA[key]
        label = rule if not variant else f"{rule} ({variant} k)"
        rows.append((label, tuple(cells), formula, Quota.point(sup)))
    return TableData(
        3,
        "minimal quota q for the (q,k)-majority criterion (any number of candidates)",
        ("rule", "k=1", "k=2", "k=3", "k=4", "general k", "sup over k"),
        tuple(rows),
    )


def _per_m_table() -> TableData:
    # table 3's rows, with clr's even/odd split merged
    order = dict.fromkeys(key.partition(":")[0] for key in _MAJORITY_FORMULA)
    combos = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    rows = []
    for rule in order:
        cells = tuple(quota_majority(rule, k, m) for m, k in combos)
        rows.append((rule, cells, "", None))
    return TableData(
        4,
        "minimal quota q for the (q,k,m)-majority criterion",
        ("rule", "m=3 k=1", "m=3 k=2", "m=4 k=1", "m=4 k=2", "m=4 k=3"),
        tuple(rows),
    )


def _veto_table(half: bool) -> TableData:
    spec = _VETO_HALF_FORMULA if half else _VETO_FORMULA
    rows = []
    for rule, (formula, sup) in spec.items():
        cells = tuple(quota_veto_sup(rule, l, half) for l in range(1, 5))
        rows.append((rule, cells, formula, Quota.point(sup)))
    title = (
        "minimal quota q for the (q,l)-veto criterion over m >= 2l (at least 3)"
        if half
        else "minimal quota q for the (q,l)-veto criterion (m >= 3)"
    )
    return TableData(
        6 if half else 5,
        title,
        ("rule", "l=1", "l=2", "l=3", "l=4", "l > 3", "sup over l"),
        tuple(rows),
    )


def table_data(which: int) -> TableData:
    """Structured contents of table 3, 4, 5, or 6."""
    if which == 3:
        return _majority_power_table()
    if which == 4:
        return _per_m_table()
    if which == 5:
        return _veto_table(half=False)
    if which == 6:
        return _veto_table(half=True)
    raise ValueError(f"no table {which}; choose 3, 4, 5, or 6")


def emit_table(which: int) -> str:
    """Fixed-width plain-text rendering with 3-decimal cells."""
    data = table_data(which)
    body: list[list[str]] = []
    for label, cells, formula, sup in data.rows:
        row = [label]
        row.extend("-" if q is None else q.lo.decimal() for q in cells)
        if sup is not None:
            row.append(formula)
            row.append(sup.lo.decimal())
        body.append(row)
    headers = list(data.columns)
    widths = [
        max(len(headers[i]), max(len(r[i]) for r in body)) for i in range(len(headers))
    ]
    lines = [f"table {data.which}: {data.title}"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    for row in body:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"
