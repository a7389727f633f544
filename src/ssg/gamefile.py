"""Plain-text game files.

Line 1 is the format header "ssg 1".  Every other non-blank line
describes one vertex: "<id> max|min <succ> <succ> ...",
"<id> ave <succ> <succ>", or "<id> sink <num>/<den>".  A "#" starts a
comment.  Ids must be dense starting at 0 but may appear in any order.
Ids, successors and sink values are written in the ASCII digits 0-9
only, and each accepted value parses exactly.  Serialization writes
reduced fractions and ascending ids, so text may not come back as
written ("01/2" as "1/2", "0" as "0/1"), but parse(serialize(game))
reproduces the game bit-exactly.  parse checks each line once, as it
reads it, so every game it returns is one model.validate accepts;
validate is for games built in code.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidGameError
from .model import Game, VertexKind

HEADER = "ssg 1"

_RATIONAL = re.compile(r"[0-9]+(/[0-9]+)?")
_KINDS = {kind.value: kind for kind in VertexKind}


def parse(text: str) -> Game:
    """Game described by the text; InvalidGameError names the bad line."""
    rows: dict[int, tuple[int, str, list[str]]] = {}
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.isascii():
            raise InvalidGameError(f"line {line_no}: non-ASCII character in {line!r}")
        if not header_seen:
            if line != HEADER:
                raise InvalidGameError(
                    f"line {line_no}: expected header {HEADER!r}, found {line!r}"
                )
            header_seen = True
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise InvalidGameError(f"line {line_no}: expected '<id> <kind> ...'")
        if not tokens[0].isdigit():
            raise InvalidGameError(
                f"line {line_no}: vertex id {tokens[0]!r} is not written in digits 0-9"
            )
        vid = int(tokens[0])
        if vid in rows:
            raise InvalidGameError(
                f"line {line_no}: duplicate vertex id {vid} "
                f"(first defined on line {rows[vid][0]})"
            )
        rows[vid] = (line_no, tokens[1], tokens[2:])
    if not header_seen:
        raise InvalidGameError(f"line 1: missing header {HEADER!r}")
    if not rows:
        raise InvalidGameError("no vertex lines after the header")

    n = len(rows)
    for vid, (line_no, _, _) in sorted(rows.items()):
        if vid >= n:
            raise InvalidGameError(
                f"line {line_no}: vertex id {vid} leaves a gap "
                f"(ids must be 0..{n - 1})"
            )

    kinds: list[VertexKind] = []
    succs: list[tuple[int, ...]] = []
    values: list[Fraction | None] = []
    for vid in range(n):
        line_no, tag, rest = rows[vid]
        kind = _KINDS.get(tag)
        if kind is None:
            raise InvalidGameError(f"line {line_no}: unknown vertex kind {tag!r}")
        kinds.append(kind)
        if kind is VertexKind.SINK:
            if len(rest) != 1 or not _RATIONAL.fullmatch(rest[0]):
                raise InvalidGameError(
                    f"line {line_no}: sink lines are '<id> sink <num>/<den>' in digits 0-9"
                )
            num, _, den = rest[0].partition("/")
            num, den = int(num), int(den) if den else 1
            if not den:
                raise InvalidGameError(f"line {line_no}: zero denominator in {rest[0]!r}")
            if num > den:
                raise InvalidGameError(f"line {line_no}: sink value {rest[0]} outside [0, 1]")
            succs.append((vid,))
            values.append(Fraction(num, den))
            continue
        if kind is VertexKind.AVE and len(rest) != 2:
            raise InvalidGameError(
                f"line {line_no}: average vertices take exactly two successors"
            )
        if not rest:
            raise InvalidGameError(f"line {line_no}: vertex {vid} has no successors")
        out = [int(token) for token in rest if token.isdigit()]
        if len(out) < len(rest):
            bad = next(token for token in rest if not token.isdigit())
            raise InvalidGameError(
                f"line {line_no}: successor {bad!r} is not written in digits 0-9"
            )
        if max(out) >= n:
            raise InvalidGameError(
                f"line {line_no}: successor {max(out)} is not a vertex id"
            )
        succs.append(tuple(out))
        values.append(None)
    return Game(tuple(kinds), tuple(succs), tuple(values))


def serialize(game: Game) -> str:
    """Canonical text for the game: header, ascending ids, reduced sinks."""
    lines = [HEADER]
    for v in range(game.n):
        kind = game.kinds[v]
        if kind is VertexKind.SINK:
            value = game.sink_value(v)
            lines.append(f"{v} sink {value.numerator}/{value.denominator}")
        else:
            arcs = " ".join(str(s) for s in game.succs[v])
            lines.append(f"{v} {kind.value} {arcs}")
    return "\n".join(lines) + "\n"
