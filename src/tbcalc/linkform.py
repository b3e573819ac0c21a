"""Linking forms of multi-component real links.

When the real part of the resolved surface is cut along the link circles
of contracted rational curves, each closed piece contributes a cycle, and
the linking form in that basis is assembled from two ingredients: the
Euler characteristic of the punctured piece, and the contraction matrices
of the collapsed curves.

A contracted (-m)-curve with two-sided real part creates two link circles
whose mutual linking numbers form a 2x2 matrix; a one-sided real part
creates a single circle. The decomposition evaluator distributes these
matrices bilinearly over the pieces the circles lie on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .errors import InternalInvariantError, MalformedDecomposition, NonPositiveM
from .numeric import format_rational, parse_rational

KIND_TWO_SIDED_NONORIENTABLE = "two_sided_nonorientable"
KIND_TWO_SIDED_ORIENTABLE = "two_sided_orientable"
KIND_ONE_SIDED = "one_sided"
_KINDS = (KIND_TWO_SIDED_NONORIENTABLE, KIND_TWO_SIDED_ORIENTABLE, KIND_ONE_SIDED)


class _LinkingEntries(NamedTuple):
    entries: tuple[tuple[Fraction, ...], ...]


class LinkingMatrix(_LinkingEntries):
    """A symmetric matrix of exact linking numbers."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Fraction, ...], ...]) -> "LinkingMatrix":
        size = len(entries)
        for row in entries:
            if len(row) != size:
                raise ValueError("linking matrix must be square")
        for i in range(size):
            for j in range(size):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        return super().__new__(cls, entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def as_strings(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]


def contraction_linking_matrix(m: Union[int, Fraction], kind: str) -> LinkingMatrix:
    """The linking form created by collapsing a real rational (-m)-curve.

    two_sided_nonorientable: two circles, all pairings -m/4;
    two_sided_orientable:    two circles, -m/4 diagonal, +m/4 across;
    one_sided:               one circle with framing -m.
    """
    if isinstance(m, bool) or not isinstance(m, (int, Fraction)):
        raise NonPositiveM(f"m must be a positive rational, got {m!r}")
    m = Fraction(m)
    if m <= 0:
        raise NonPositiveM(f"m must be positive, got {m}")
    quarter = m / 4
    if kind == KIND_TWO_SIDED_NONORIENTABLE:
        rows = ((-quarter, -quarter), (-quarter, -quarter))
    elif kind == KIND_TWO_SIDED_ORIENTABLE:
        rows = ((-quarter, quarter), (quarter, -quarter))
    elif kind == KIND_ONE_SIDED:
        rows = ((-m,),)
    else:
        raise MalformedDecomposition(
            f"unknown contracted-point kind {kind!r}; expected one of {_KINDS}"
        )
    return LinkingMatrix(entries=rows)


class Piece(NamedTuple):
    """One closed-up piece of the cut real surface.

    euler_char_closed_piece is the Euler characteristic of the piece with
    all its link-circle boundaries capped off; boundary_ids, when given,
    name those circles and must match the incidences that reference the
    piece.
    """

    id: str
    euler_char_closed_piece: int
    boundary_ids: tuple[str, ...] = ()


class ContractedPoint(NamedTuple):
    """A collapsed curve with its real-link circles on the pieces.

    incidences lists (piece id, number of this point's circles on that
    piece). A one_sided point has one circle in total, a two-sided point
    two.
    """

    id: str
    m_value: Fraction
    kind: str
    incidences: tuple[tuple[str, int], ...]

    @property
    def total_circles(self) -> int:
        return sum(count for _piece, count in self.incidences)


def _integer(value) -> int:
    """A JSON integer; floats, bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _string(value) -> str:
    """A JSON string; numbers and other values are refused, not coerced."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _strings(value) -> tuple[str, ...]:
    """A JSON list of strings; a bare string is not a list of names."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(_string(item) for item in value)


class Decomposition(NamedTuple):
    pieces: tuple[Piece, ...]
    contracted_points: tuple[ContractedPoint, ...]

    @staticmethod
    def from_json(doc: dict) -> "Decomposition":
        """Parse and validate a decomposition document."""
        if not isinstance(doc, dict):
            raise MalformedDecomposition("decomposition document must be an object")
        try:
            raw_pieces = doc["pieces"]
            raw_points = doc["contracted_points"]
        except (KeyError, TypeError) as exc:
            raise MalformedDecomposition(f"missing key: {exc}") from exc
        if not isinstance(raw_pieces, list) or not isinstance(raw_points, list):
            raise MalformedDecomposition("pieces and contracted_points must be lists")
        pieces = []
        for item in raw_pieces:
            try:
                pieces.append(Piece(
                    id=_string(item["id"]),
                    euler_char_closed_piece=_integer(item["euler_char_closed_piece"]),
                    boundary_ids=_strings(item.get("boundary_ids", [])),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedDecomposition(f"bad piece entry: {exc}") from exc
        points = []
        for item in raw_points:
            try:
                raw_m = item["m_value"]
                if isinstance(raw_m, str):
                    m_value = parse_rational(raw_m)
                elif isinstance(raw_m, int) and not isinstance(raw_m, bool):
                    m_value = Fraction(raw_m)
                else:
                    raise ValueError(
                        f"m_value must be an integer or a 'p/q' string, got {raw_m!r}"
                    )
                points.append(ContractedPoint(
                    id=_string(item["id"]),
                    m_value=m_value,
                    kind=str(item["kind"]),
                    incidences=tuple(
                        (_string(piece), _integer(count))
                        for piece, count in item["incidences"]
                    ),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedDecomposition(f"bad contracted point entry: {exc}") from exc
        d = Decomposition(pieces=tuple(pieces), contracted_points=tuple(points))
        d.validate()
        return d

    def validate(self) -> None:
        ids = [p.id for p in self.pieces]
        if not ids:
            raise MalformedDecomposition("decomposition has no pieces")
        if len(set(ids)) != len(ids):
            raise MalformedDecomposition("duplicate piece ids")
        known = set(ids)
        point_ids = [x.id for x in self.contracted_points]
        if len(set(point_ids)) != len(point_ids):
            raise MalformedDecomposition("duplicate contracted point ids")
        circles_on: dict[str, int] = {p.id: 0 for p in self.pieces}
        for x in self.contracted_points:
            if x.kind not in _KINDS:
                raise MalformedDecomposition(
                    f"point {x.id}: unknown kind {x.kind!r}"
                )
            if x.m_value <= 0:
                raise NonPositiveM(
                    f"point {x.id}: m_value must be positive, got {x.m_value}"
                )
            expected = 1 if x.kind == KIND_ONE_SIDED else 2
            if x.total_circles != expected:
                raise MalformedDecomposition(
                    f"point {x.id}: total incidence {x.total_circles}, "
                    f"expected {expected} for kind {x.kind}"
                )
            for piece, count in x.incidences:
                if piece not in known:
                    raise MalformedDecomposition(
                        f"point {x.id}: unknown piece {piece!r}"
                    )
                if count < 1:
                    raise MalformedDecomposition(
                        f"point {x.id}: incidence count must be >= 1"
                    )
                circles_on[piece] += count
        for p in self.pieces:
            if p.euler_char_closed_piece > 2:
                raise MalformedDecomposition(f"piece {p.id}: no closed surface "
                                             "has Euler characteristic above 2")
            if len(set(p.boundary_ids)) != len(p.boundary_ids):
                raise MalformedDecomposition(f"piece {p.id}: duplicate boundary ids")
            if p.boundary_ids and len(p.boundary_ids) != circles_on[p.id]:
                raise MalformedDecomposition(
                    f"piece {p.id} lists {len(p.boundary_ids)} boundary circles "
                    f"but the contracted points put {circles_on[p.id]} on it"
                )


def linking_form_from_decomposition(d: Decomposition) -> LinkingMatrix:
    """Assemble the linking form of the pieces' cycles.

    The diagonal starts from minus the punctured Euler characteristic of
    each piece (punctures = link circles on it). Each contracted point
    then adds its contraction matrix bilinearly: its circles are assigned
    to pieces per the incidences, and every circle pair (a, b) adds the
    matrix entry to the (piece of a, piece of b) slot.
    """
    d.validate()
    index = {p.id: i for i, p in enumerate(d.pieces)}
    size = len(d.pieces)
    entries = [[Fraction(0)] * size for _ in range(size)]

    punctures = [0] * size
    for x in d.contracted_points:
        for piece, count in x.incidences:
            punctures[index[piece]] += count
    for i, p in enumerate(d.pieces):
        entries[i][i] = -Fraction(p.euler_char_closed_piece - punctures[i])

    for x in d.contracted_points:
        matrix = contraction_linking_matrix(x.m_value, x.kind)
        circle_pieces: list[int] = []
        for piece, count in x.incidences:
            circle_pieces.extend([index[piece]] * count)
        for a, i in enumerate(circle_pieces):
            for b, j in enumerate(circle_pieces):
                entries[i][j] += matrix.entries[a][b]

    for i in range(size):
        for j in range(size):
            if entries[i][j] != entries[j][i]:
                raise InternalInvariantError("linking form must be symmetric")
    return LinkingMatrix(entries=tuple(tuple(row) for row in entries))
