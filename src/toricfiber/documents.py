"""Plain-text documents for lattice maps, fans and polytopes.
One line-oriented format, versioned per kind; serialization
is canonical so round-trips are stable byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fans import Fan
from .intlinalg import LatticeMap, is_primitive, is_zero
from .polytopes import Polytope

MAGIC = "toricfiber"
KINDS = ("lattice_map", "fan", "polytope")
VERSION = "v1"


class DocumentError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class Document:
    kind: str
    version: str
    payload: dict


def _ints(tokens, line):
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise DocumentError(f"expected integers, got {tokens!r}", line)


def parse(text: str) -> Document:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise DocumentError("empty document")
    first_no, first = rows[0]
    head = first.split()
    if len(head) != 3 or head[0] != MAGIC:
        raise DocumentError(f"bad header {first!r}", first_no)
    kind, version = head[1], head[2]
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}", first_no)
    if version != VERSION:
        raise DocumentError(f"unsupported version {version!r}", first_no)
    parser = {
        "lattice_map": _parse_lattice_map,
        "fan": _parse_fan,
        "polytope": _parse_polytope,
    }[kind]
    return Document(kind, version, parser(rows))


def _expect_key(lines, pos, key):
    """The tokens after `key` on row `pos`; row 0 is the header."""
    if pos >= len(lines):
        raise DocumentError(f"missing '{key}' line", lines[-1][0] + 1)
    no, ln = lines[pos]
    parts = ln.split()
    if parts[0] != key:
        raise DocumentError(f"expected '{key}', got {parts[0]!r}", no)
    return no, parts[1:]


def _expect_count(lines, pos, key) -> int:
    """The single non-negative integer on a `key N` line."""
    no, val = _expect_key(lines, pos, key)
    count = _ints(val, no)
    if len(count) != 1 or count[0] < 0:
        raise DocumentError(f"'{key}' needs one non-negative integer, got {val!r}",
                            no)
    return count[0]


def _parse_lattice_map(lines):
    rows = _expect_count(lines, 1, "rows")
    cols = _expect_count(lines, 2, "cols")
    matrix = []
    for pos in range(rows):
        no, val = _expect_key(lines, 3 + pos, "row")
        row = _ints(val, no)
        if len(row) != cols:
            raise DocumentError(f"row has {len(row)} entries, expected {cols}", no)
        matrix.append(row)
    if len(lines) != 3 + rows:
        raise DocumentError("trailing content after matrix rows",
                            lines[3 + rows][0])
    return {"matrix": tuple(matrix), "rows": rows, "cols": cols}


def _parse_fan(lines):
    rank = _expect_count(lines, 1, "rank")
    rays = {}
    order = []
    cones = []
    for no, ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "ray":
            if len(parts) < 2 + rank:
                raise DocumentError("ray line too short", no)
            name = parts[1]
            if name in rays:
                raise DocumentError(f"duplicate ray name {name!r}", no)
            vec = _ints(parts[2:], no)
            if len(vec) != rank:
                raise DocumentError(f"ray has {len(vec)} coordinates, "
                                    f"expected {rank}", no)
            if is_zero(vec):
                raise DocumentError(f"ray {name!r} is zero", no)
            if not is_primitive(vec):
                raise DocumentError(f"ray {name!r} is not primitive: {vec}", no)
            rays[name] = vec
            order.append(name)
        elif parts[0] == "cone":
            idx = []
            for n in parts[1:]:
                if n not in rays:
                    raise DocumentError(f"cone refers to unknown ray {n!r}", no)
                idx.append(order.index(n))
            cones.append(tuple(idx))
        else:
            raise DocumentError(f"unexpected line {parts[0]!r} in fan", no)
    return {"rank": rank, "ray_names": tuple(order),
            "rays": tuple(rays[n] for n in order), "cones": tuple(cones)}


def _parse_polytope(lines):
    rank = _expect_count(lines, 1, "rank")
    verts = []
    for no, ln in lines[2:]:
        parts = ln.split()
        if parts[0] != "vertex":
            raise DocumentError(f"unexpected line {parts[0]!r} in polytope", no)
        vec = _ints(parts[1:], no)
        if len(vec) != rank:
            raise DocumentError(f"vertex has {len(vec)} coordinates, "
                                f"expected {rank}", no)
        verts.append(vec)
    if not verts:
        raise DocumentError("polytope document has no vertices")
    return {"rank": rank, "vertices": tuple(verts)}


def _line(*tokens) -> str:
    """One document line; a key with no values gets no trailing space."""
    return " ".join(str(t) for t in tokens)


def serialize(doc: Document) -> str:
    out = [f"{MAGIC} {doc.kind} {doc.version}"]
    p = doc.payload
    if doc.kind == "lattice_map":
        out.append(f"rows {p['rows']}")
        out.append(f"cols {p['cols']}")
        out.extend(_line("row", *row) for row in p["matrix"])
    elif doc.kind == "fan":
        out.append(f"rank {p['rank']}")
        for name, vec in zip(p["ray_names"], p["rays"]):
            out.append(_line("ray", name, *vec))
        for cone in p["cones"]:
            out.append(_line("cone", *(p["ray_names"][i] for i in cone)))
    elif doc.kind == "polytope":
        out.append(f"rank {p['rank']}")
        out.extend(_line("vertex", *v) for v in sorted(p["vertices"]))
    else:  # pragma: no cover
        raise DocumentError(f"unknown kind {doc.kind}")
    return "\n".join(out) + "\n"


# -- conversions -------------------------------------------------------------


def fan_document(fan: Fan, ray_names) -> Document:
    return Document("fan", VERSION, {
        "rank": fan.rank, "ray_names": tuple(ray_names),
        "rays": tuple(fan.rays), "cones": tuple(fan.maximal_cones)})


def fan_from_document(doc: Document) -> tuple[Fan, tuple[str, ...]]:
    if doc.kind != "fan":
        raise DocumentError(f"expected a fan document, got {doc.kind}")
    p = doc.payload
    try:
        fan = Fan(p["rank"], p["rays"], p["cones"])
    except ValueError as exc:
        raise DocumentError(f"invalid fan: {exc}")
    return fan, p["ray_names"]


def polytope_document(p: Polytope) -> Document:
    return Document("polytope", VERSION,
                    {"rank": p.ambient_rank, "vertices": tuple(p.vertices)})


def polytope_from_document(doc: Document) -> Polytope:
    if doc.kind != "polytope":
        raise DocumentError(f"expected a polytope document, got {doc.kind}")
    return Polytope(doc.payload["vertices"])


def lattice_map_document(m: LatticeMap) -> Document:
    return Document("lattice_map", VERSION, {
        "matrix": m.matrix, "rows": m.target_rank, "cols": m.source_rank})


def lattice_map_from_document(doc: Document) -> LatticeMap:
    if doc.kind != "lattice_map":
        raise DocumentError(f"expected a lattice_map document, got {doc.kind}")
    p = doc.payload
    return LatticeMap._shaped(p["matrix"], p["cols"])
