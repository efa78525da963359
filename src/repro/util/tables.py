"""Plain-text table rendering for experiment runners and benchmarks.

Every experiment module produces rows that mirror a table or figure in
the paper; this renderer prints them in a uniform, diff-friendly format.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table.

    >>> print(render_table(["a", "b"], [[1, "x"], [23, "y"]]))
    a  | b
    ---+--
    1  | x
    23 | y
    """
    text_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_percent(numerator: float, denominator: float) -> str:
    """``"12.3%"`` or ``"n/a"`` when the denominator is zero."""
    if denominator == 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"
