"""Plain-text figure rendering.

The paper's figures are stacked-bar breakdowns (Figures 1 and 3) and
CDFs (Figure 2).  These helpers render both as fixed-width text so the
benchmark runs can literally draw the regenerated figures into the
log, with no plotting dependencies.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

#: Fill characters for stacked segments, in category order.
_SEGMENT_CHARS = "#=+."


def stacked_bar_chart(
    rows: Mapping[str, Mapping[str, float]],
    width: int = 60,
) -> str:
    """Stacked 100%-bars (Figure 1/3 style).

    ``rows`` maps a bar label to an ordered mapping of category ->
    percentage.  Categories get a legend keyed by fill character.
    """
    if width < 4:
        raise ValueError("width must be at least 4")
    categories: List[str] = []
    for segments in rows.values():
        for category in segments:
            if category not in categories:
                categories.append(category)
    if len(categories) > len(_SEGMENT_CHARS):
        raise ValueError(
            f"at most {len(_SEGMENT_CHARS)} categories supported, "
            f"got {len(categories)}"
        )
    char_of = dict(zip(categories, _SEGMENT_CHARS))
    label_width = max((len(label) for label in rows), default=0)
    lines = []
    for label, segments in rows.items():
        bar = ""
        for category in categories:
            share = segments.get(category, 0.0)
            bar += char_of[category] * round(width * share / 100.0)
        bar = (bar + " " * width)[:width]
        lines.append(f"{label:<{label_width}} |{bar}|")
    legend = "  ".join(f"{char_of[c]}={c}" for c in categories)
    lines.append(f"{'':<{label_width}}  {legend}")
    return "\n".join(lines)


def cdf_plot(
    fractions: Sequence[float],
    width: int = 60,
    height: int = 12,
) -> str:
    """A coarse CDF plot (Figure 2 style): y is cumulative fraction,
    x is rank; the ``.`` diagonal shows the no-skew reference."""
    if not fractions:
        return "(empty CDF)"
    if width < 2 or height < 2:
        raise ValueError("plot must be at least 2x2")
    grid = [[" "] * width for _ in range(height)]
    n = len(fractions)
    for column in range(width):
        # Reference diagonal y = x.
        reference = (column + 1) / width
        ref_row = height - 1 - min(height - 1, int(reference * (height - 1)))
        grid[ref_row][column] = "."
        # Data point: the fraction at this rank position.
        index = min(n - 1, int((column + 1) / width * n) - 0) if n else 0
        index = min(n - 1, max(0, round((column + 1) / width * n) - 1))
        value = fractions[index]
        row = height - 1 - min(height - 1, int(value * (height - 1)))
        grid[row][column] = "*"
    lines = ["1.0 +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 +" + "".join(grid[-1]))
    lines.append("     " + "^" + " " * (width - 2) + "^")
    lines.append(f"     rank 1{'':<{max(0, width - 12)}}rank {n}")
    return "\n".join(lines)
