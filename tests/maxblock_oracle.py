"""The paper's product formula on max-block words, kept as a test oracle.

A max-block word of a template has one block per cluster, each finite
cluster filled to its exact multiplicity; only the blocks at infinite
clusters vary, so these words form a Pascal graph in as many
dimensions as the template has infinite clusters.  On them the
splitting evaluation ``paintbox.eval_F`` has a closed form, a product
over the intervals and over the corners between them, which shares
nothing with the transfer vector.
"""

from __future__ import annotations

from fractions import Fraction

from zigzag_harmonics.paintbox import IntervalTuple, template_of_intervals
from zigzag_harmonics.templates import Template
from zigzag_harmonics.words import BinaryWord


def maxblock_member(t: Template, w: BinaryWord) -> bool:
    """Membership in the ideal of words with the most blocks possible."""
    blocks = w.blocks()
    if len(blocks) != len(t.clusters):
        return False
    for (sign, length), c in zip(blocks, t.clusters):
        if sign != c.sign:
            return False
        if c.is_infinite:
            if length < 1:
                return False
        elif length != c.mult:
            return False
    return True


def eval_F_maxblock(w: BinaryWord, u: IntervalTuple) -> Fraction:
    """Product formula for words with the most blocks the template allows.

    Blocks line up with the intervals (separator blocks in between);
    interval i contributes its length to the power of its block size
    adjusted by 1 - (#neighbours) + (#equally oriented neighbours),
    and each orientation change between consecutive intervals
    contributes a factor (length_i + length_{i+1}), which is the sum
    over the two ways the corner box between them can fall.
    """
    t_u = template_of_intervals(u)
    if not maxblock_member(t_u, w):
        raise ValueError(f"{w} is not a maximal-block word for {u}")
    blocks = w.blocks()
    block_sizes = [length for (_, length), c in zip(blocks, t_u.clusters) if c.is_infinite]
    m = len(u)
    signs, lengths = u.signs, u.lengths
    value = Fraction(1)
    for i in range(m):
        neighbours = (1 if i > 0 else 0) + (1 if i < m - 1 else 0)
        same = ((1 if i > 0 and signs[i - 1] == signs[i] else 0)
                + (1 if i < m - 1 and signs[i + 1] == signs[i] else 0))
        exponent = block_sizes[i] + same - neighbours + 1
        value = value * lengths[i] ** exponent
    for i in range(m - 1):
        if signs[i] != signs[i + 1]:
            value = value * (lengths[i] + lengths[i + 1])
    return value
