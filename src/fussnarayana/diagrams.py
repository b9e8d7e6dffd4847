"""Arch diagrams for pair matchings, rendered as standalone SVG.

Blocks are drawn as rectangular arches over a baseline: two vertical
legs joined by a horizontal bar whose height grows with nesting depth.
When a word is supplied its letters label the positions.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Sequence

from .partitions import Letter, PairPartition

_UNIT = 26        # horizontal distance between positions
_RISE = 16        # vertical distance between nesting levels
_MARGIN = 22


def _nesting_levels(pi: PairPartition) -> dict[tuple[int, int], int]:
    """Arch height level per block: innermost arches lowest, level >= 1."""
    blocks = [(i, j) for i, j in enumerate(pi.match) if j > i]
    levels: dict[tuple[int, int], int] = {}
    for a, b in blocks:
        depth = sum(1 for c, d in blocks if c < a and b < d)
        levels[(a, b)] = depth
    max_depth = max(levels.values(), default=0)
    return {blk: max_depth - depth + 1 for blk, depth in levels.items()}


def partition_svg(pi: PairPartition, word: Sequence[Letter] | None = None) -> str:
    """Render a matching (optionally with word labels) to an SVG string."""
    if word is not None and len(word) != pi.size:
        raise ValueError(f"word length {len(word)} does not match {pi.size} positions")
    m = pi.size
    levels = _nesting_levels(pi)
    top_level = max(levels.values(), default=1)
    width = 2 * _MARGIN + _UNIT * max(m - 1, 0)
    label_space = 18 if word is not None else 0
    baseline = _MARGIN + _RISE * top_level
    height = baseline + label_space + 8

    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width),
        "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })
    style = ET.SubElement(root, "g", {
        "stroke": "black", "stroke-width": "1.5", "fill": "none",
    })

    def x_at(pos: int) -> float:
        return _MARGIN + _UNIT * pos

    ET.SubElement(style, "line", {
        "x1": str(x_at(0) - 10), "y1": str(baseline),
        "x2": str(x_at(max(m - 1, 0)) + 10), "y2": str(baseline),
        "stroke-width": "0.75",
    })
    for (a, b), level in sorted(levels.items()):
        top = baseline - _RISE * level
        for leg in (a, b):
            ET.SubElement(style, "line", {
                "x1": str(x_at(leg)), "y1": str(baseline),
                "x2": str(x_at(leg)), "y2": str(top),
            })
        ET.SubElement(style, "line", {
            "x1": str(x_at(a)), "y1": str(top),
            "x2": str(x_at(b)), "y2": str(top),
        })

    if word is not None:
        text_group = ET.SubElement(root, "g", {
            "font-family": "serif", "font-size": "13", "text-anchor": "middle",
        })
        for pos, letter in enumerate(word):
            node = ET.SubElement(text_group, "text", {
                "x": str(x_at(pos)), "y": str(baseline + 15),
            })
            node.text = str(letter)

    return ET.tostring(root, encoding="unicode")


def write_partition_svg(path: str, pi: PairPartition, word: Sequence[Letter] | None = None) -> None:
    """Write the diagram to a file, with XML prolog."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(partition_svg(pi, word))
        handle.write("\n")
