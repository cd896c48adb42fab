"""Quota summary tables (CLI ids 3-6) regenerated from the closed forms."""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import Quota, quota_majority, quota_majority_sup, quota_veto_sup
from .rules import closed_form


@dataclass(frozen=True)
class TableData:
    """One emitted table: per-rule quota cells plus display-only formula text."""

    which: int
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[Quota | None, ...], str, Quota | None], ...]


# The paper's row order per table.  Table 3 splits clr by the parity of k;
# table 4 takes table 3's rows with the split merged.
_ROWS = {
    3: ("irv", "clr:even", "clr:odd", "convexmedian", "runoff", "simpson", "young",
        "plurality", "black", "vetocore", "borda", "antiplurality"),
    5: ("irv", "clr", "convexmedian", "black", "vetocore", "borda", "antiplurality",
        "runoff", "simpson", "young", "plurality"),
    6: ("vetocore", "irv", "clr", "convexmedian", "black", "borda", "antiplurality",
        "runoff", "simpson", "young", "plurality"),
}


def _text(rule: str, mode: str) -> tuple[str, Quota]:
    """A rule's general-size formula for a table's mode and its supremum
    over the size, as the rule's registry record gives them."""
    formula, sup = closed_form(rule, "text", "table text").get(mode, ("1", 1))
    return formula, Quota.point(sup)


def _majority_power_table() -> TableData:
    rows = []
    for key in _ROWS[3]:
        rule, _, variant = key.partition(":")
        cells: list[Quota | None] = []
        for k in range(1, 5):
            if variant == "even" and k % 2 == 1:
                cells.append(None)
            elif variant == "odd" and k % 2 == 0:
                cells.append(None)
            else:
                cells.append(quota_majority_sup(rule, k))
        label = rule if not variant else f"{rule} ({variant} k)"
        mode = f"majority:{variant}" if variant else "majority"
        rows.append((label, tuple(cells), *_text(rule, mode)))
    return TableData(
        3,
        "minimal quota q for the (q,k)-majority criterion (any number of candidates)",
        ("rule", "k=1", "k=2", "k=3", "k=4", "general k", "sup over k"),
        tuple(rows),
    )


def _per_m_table() -> TableData:
    order = dict.fromkeys(key.partition(":")[0] for key in _ROWS[3])
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
    which = 6 if half else 5
    rows = []
    for rule in _ROWS[which]:
        cells = tuple(quota_veto_sup(rule, l, half) for l in range(1, 5))
        rows.append((rule, cells, *_text(rule, "veto-half" if half else "veto")))
    title = (
        "minimal quota q for the (q,l)-veto criterion over m >= 2l (at least 3)"
        if half
        else "minimal quota q for the (q,l)-veto criterion (m >= 3)"
    )
    return TableData(
        which,
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
