"""JSON documents and DOT export for decorated graphs."""

from __future__ import annotations

from typing import Optional

from .errors import InvalidDocument
from .graph import DecoratedGraph

FORMAT_VERSION = "1"


def graph_to_document(g: DecoratedGraph, meta: Optional[dict] = None) -> dict:
    """Encode a graph as a JSON-ready document. Optional decorations are
    omitted when unset, so documents stay minimal and round-trip exactly."""
    vertices = []
    for v in g.vertex_ids():
        data = g.vertices[v]
        entry: dict = {"id": v, "self_int": data.self_int}
        if data.mult is not None:
            entry["mult"] = data.mult
        if data.real is not None:
            entry["real"] = data.real
        if data.arm_label is not None:
            entry["arm"] = data.arm_label
        if data.c1_coeff is not None:
            entry["c1"] = data.c1_coeff
        vertices.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "edges": [[u, v] for u, v in g.edges()],
        "arrows": [{"vertex": a} for a in sorted(g.arrows)],
        "meta": dict(meta) if meta else {},
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidDocument(message)


def _is_int(value) -> bool:
    """A JSON integer: bools and floats are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_document(doc: dict) -> DecoratedGraph:
    """Decode and validate a graph document."""
    _require(isinstance(doc, dict), "graph document must be an object")
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"unsupported format_version {doc.get('format_version')!r}")
    for key in ("vertices", "edges", "arrows"):
        _require(isinstance(doc.get(key), list), f"missing or invalid {key!r} list")
    g = DecoratedGraph()
    for entry in doc["vertices"]:
        _require(isinstance(entry, dict), "vertex entry must be an object")
        _require(_is_int(entry.get("id")), "vertex id must be an integer")
        _require(_is_int(entry.get("self_int")),
                 f"vertex {entry.get('id')} needs an integer self_int")
        vid = entry["id"]
        _require(vid not in g.vertices, f"duplicate vertex id {vid}")
        mult = entry.get("mult")
        _require(mult is None or _is_int(mult), "mult must be an integer")
        real = entry.get("real")
        _require(real is None or isinstance(real, bool), "real must be a boolean")
        arm = entry.get("arm")
        _require(arm is None or isinstance(arm, str), "arm must be a string")
        c1 = entry.get("c1")
        _require(c1 is None or _is_int(c1), "c1 must be an integer")
        g.add_vertex(entry["self_int"], vid=vid, mult=mult, real=real,
                     arm_label=arm, c1_coeff=c1)
    for pair in doc["edges"]:
        _require(isinstance(pair, list) and len(pair) == 2, "edge must be [u, v]")
        u, v = pair
        _require(_is_int(u) and _is_int(v), f"edge {pair} must join integer ids")
        _require(u in g.vertices and v in g.vertices,
                 f"edge {pair} references an unknown vertex")
        _require(u != v, "loops are not allowed")
        _require(not g.has_edge(u, v), f"duplicate edge {pair}")
        g.add_edge(u, v)
    for item in doc["arrows"]:
        _require(isinstance(item, dict) and "vertex" in item,
                 "arrow must be an object with a 'vertex' key")
        _require(_is_int(item["vertex"]), "arrow vertex must be an integer")
        _require(item["vertex"] in g.vertices,
                 f"arrow references unknown vertex {item['vertex']}")
        g.arrows.append(item["vertex"])
    g.validate()
    return g


def to_dot(g: DecoratedGraph, w: frozenset = frozenset()) -> str:
    """Render the graph in DOT.

    Vertex labels read "id:self_int[:mult][R|I]". Real vertices are drawn
    black and imaginary ones gray; members of w get a double border.
    Arrows appear as diamond nodes.
    """
    lines = ["graph resolution {", "  node [shape=circle];"]
    for v in g.vertex_ids():
        data = g.vertices[v]
        label = f"{v}:{data.self_int}"
        if data.mult is not None:
            label += f":{data.mult}"
        if data.real is True:
            label += "R"
        elif data.real is False:
            label += "I"
        color = "gray" if data.real is False else "black"
        attrs = [f'label="{label}"', f"color={color}", f"fontcolor={color}"]
        if v in w:
            attrs.append("peripheries=2")
        lines.append(f"  v{v} [{', '.join(attrs)}];")
    for i, a in enumerate(sorted(g.arrows)):
        lines.append(f'  arrow{i} [shape=diamond, label=""];')
    for u, v in g.edges():
        lines.append(f"  v{u} -- v{v};")
    for i, a in enumerate(sorted(g.arrows)):
        lines.append(f"  v{a} -- arrow{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
