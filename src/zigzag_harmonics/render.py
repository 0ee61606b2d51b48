"""ASCII pictures of zigzags and templates.

A word renders as its ribbon: row i holds the i-th part of the
composition, each row starting under the last box of the previous one.
A template renders the same way with every infinite cluster drawn as a
two-box strip of '*' (the strip keeps going) and finite clusters as
'#' boxes.  A picture grows as its rows times its width, so its size
is worked out from the runs of equal symbols before any of it is
built, and one above :data:`PICTURE_CAP` characters is refused.
"""

from __future__ import annotations

from .templates import Template
from .words import PLUS, ROOT, Vertex

#: render refuses pictures of more characters than this
PICTURE_CAP = 4_000_000


def _check_size(runs: list[tuple[str, int, str]]) -> None:
    """Refuse with ``ValueError`` a ribbon of more than PICTURE_CAP characters.

    Every '+' up to the end of a row moves its last box one column
    right, so the row's line is one character more than those '+'
    symbols; each '-' ends a line and adds its newline.
    """
    plus = size = 0
    for sign, count, _ in runs:
        if sign == PLUS:
            plus += count
        else:
            size += count * (2 + plus)
    size += 1 + plus
    if size > PICTURE_CAP:
        raise ValueError(f"picture of {size} characters above cap {PICTURE_CAP}")


def _ribbon(runs: list[tuple[str, int, str]]) -> str:
    """The ribbon of a word given as runs of (sign, count, box tag): the
    first box takes the first run's tag, and each symbol adds a box with
    its run's tag, '+' right of the last one and '-' below it."""
    _check_size(runs)
    lines: list[str] = []
    row, offset = runs[0][2] if runs else "#", 0
    for sign, count, tag in runs:
        if sign == PLUS:
            row += tag * count
            continue
        for _ in range(count):
            lines.append(" " * offset + row)
            offset += len(row) - 1
            row = tag
    lines.append(" " * offset + row)
    return "\n".join(lines)


def render_vertex(v: Vertex) -> str:
    if v is ROOT:
        return "(empty diagram)"
    return _ribbon([(sign, count, "#") for sign, count in v.blocks()])


def render_template(t: Template) -> str:
    """Ribbon of the template with infinite strips drawn as '*' pairs."""
    return _ribbon([(c.sign, c.mult or 2, "*" if c.is_infinite else "#")
                    for c in t.clusters])
