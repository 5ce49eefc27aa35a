"""The directive reader that ``resolve.parse_resolution``'s one table-driven
reader replaced, kept as the reference it must equal: a key=value generator
and one hand-written parser per directive."""

from susplink.errors import InputError, excerpt
from susplink.graphs import ResArrow, ResolutionGraph, ResVertex


def parse_resolution(text: str) -> ResolutionGraph:
    vertices: list[ResVertex] = []
    edges: list[tuple[int, int]] = []
    arrows: list[ResArrow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        try:
            if kind == "vertex":
                vertices.append(_parse_vertex(args))
            elif kind == "edge":
                if len(args) != 2:
                    raise InputError("edge needs exactly two vertex ids")
                edges.append((_int("edge end", args[0]), _int("edge end", args[1])))
            elif kind == "arrow":
                arrows.append(_parse_arrow(args))
            else:
                raise InputError(f"unknown directive {excerpt(kind)}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return ResolutionGraph(tuple(vertices), tuple(edges), tuple(arrows))


def _int(name: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {excerpt(token)}") from None


def _key_values(kind: str, items, names):
    """Yield the (key, value) of each key=value item, every key one of
    ``names`` and given at most once."""
    seen = set()
    for item in items:
        if "=" not in item:
            raise InputError(f"expected key=value, got {excerpt(item)}")
        key, value = item.split("=", 1)
        if key not in names:
            raise InputError(f"unknown {kind} field {excerpt(key)}")
        if key in seen:
            raise InputError(f"duplicate field {key!r}")
        seen.add(key)
        yield key, value


def _parse_vertex(args) -> ResVertex:
    if not args:
        raise InputError("vertex needs an id")
    vid = _int("vertex id", args[0])
    fields = {"weight": None, "genus": 0, "mf": None, "mg": None}
    for key, value in _key_values("vertex", args[1:], fields):
        fields[key] = _int(f"field {key!r}", value)
    if fields["weight"] is None:
        raise InputError(f"vertex {vid} is missing weight=")
    return ResVertex(vid, fields["weight"], fields["genus"], fields["mf"], fields["mg"])


def _parse_arrow(args) -> ResArrow:
    if not args:
        raise InputError("arrow needs a vertex id")
    vid = _int("arrow id", args[0])
    side = mult = None
    for key, value in _key_values("arrow", args[1:], ("side", "mult")):
        if key == "side":
            side = value
        else:
            mult = _int("field 'mult'", value)
    if side not in ("f", "g"):
        raise InputError("arrow needs side=f or side=g")
    want = 1 if side == "f" else -1
    if mult is not None and mult != want:
        raise InputError(
            f"arrow mult on side {side} must be {want:+d} (orientation convention)")
    return ResArrow(vid, side, want)
