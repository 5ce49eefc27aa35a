"""The four benchmark workloads.

Each builder returns the list of operations of one round.  A round is the
unit of work: a run repeats whole rounds, so the share of failing
operations is the same in every run.  The seed only orders the operations
of a round (and, for ``blowdown``, generates the trees); the inputs of
``examples``, ``large_r`` and ``stage_files`` are the files in ``data/``.

Every operation carries three callables:

* ``run``   -- the timed call into the program,
* ``key``   -- a cheap fingerprint of the output; every later round must
  reproduce the first round's fingerprint exactly,
* ``check`` -- independent checks (``oracle``) of the first round's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle
from oracle import require

DATA_FILES = ("ex1", "ex2", "ex3", "cusp")

# Brieskorn-Pham exponents of each one-sided run, f = x^a + y^b; cusp has a
# single branch, so its mixed run is one-sided too.
EXPONENTS = {
    ("cusp", "fg"): (2, 3), ("cusp", "f"): (2, 3),
    ("ex1", "f"): (2, 7), ("ex1", "g"): (5, 2),
    ("ex2", "f"): (2, 3), ("ex2", "g"): (3, 2),
    ("ex3", "f"): (3, 5), ("ex3", "g"): (7, 2),
}

# cusp + z^r: the A2, D4, E6, E8 and (2, 3, 7) plumbings.
ADE_DET = {2: 3, 3: 4, 4: 3, 5: 1, 7: 1}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    key: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    ok: Callable[[Any], bool] = lambda out: True
    expect_fail: bool = False


def plain(tree) -> dict:
    """Plain-data copy of a PlumbingTree for the oracle."""
    return {
        "vertices": [(v.id, v.weight, v.genus, v.mult) for v in tree.vertices],
        "edges": [(e.u, e.v, e.sign) for e in tree.edges],
        "arrows": [(a.vertex, a.mult) for a in tree.arrows],
    }


def plain_from_json(doc: dict) -> dict:
    """Plain-data copy of a ``susplink/plumbing:1`` JSON document."""
    require(doc.get("schema") == "susplink/plumbing:1",
            f"unexpected schema {doc.get('schema')!r}")
    return {
        "vertices": [(v["id"], v["weight"], v.get("genus", 0), v.get("mult"))
                     for v in doc["vertices"]],
        "edges": [(e["u"], e["v"], e.get("sign", 1)) for e in doc["edges"]],
        "arrows": [(a["vertex"], a.get("mult", 1)) for a in doc.get("arrows", ())],
    }


def longest_chain(g) -> int:
    """Most vertices in one path of genus-0 vertices of edge valence <= 2."""
    valence = {vid: 0 for vid, *_ in g["vertices"]}
    for u, v, _ in g["edges"]:
        valence[u] += 1
        valence[v] += 1
    inner = {vid for vid, _, genus, _ in g["vertices"]
             if genus == 0 and valence[vid] <= 2}
    adj = {vid: [] for vid in inner}
    for u, v, _ in g["edges"]:
        if u in inner and v in inner:
            adj[u].append(v)
            adj[v].append(u)
    best, seen = 0, set()
    for start in inner:
        if start in seen:
            continue
        size, stack = 0, [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            size += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        best = max(best, size)
    return best


# ---------------------------------------------------------------------------
# examples and large_r: run_pipeline + render_text + render_json_dict
# ---------------------------------------------------------------------------

def check_obstructions(g, o) -> None:
    """Every invariant of one report that has an independent recomputation."""
    oracle.check_canonical(g, o.K, o.K_squared)
    require(o.numerically_gorenstein == all(Fraction(k).denominator == 1 for k in o.K),
            "numerically Gorenstein flag disagrees with K")
    oracle.check_form(g, o.determinant, o.negative_definite)
    oracle.check_chi_resolution(g, o.chi_resolution)
    require(o.wedge_spheres == o.chi_fibre_F - 1,
            f"wedge {o.wedge_spheres} and chi(F) {o.chi_fibre_F} disagree")
    if o.ls_applicable:
        require(o.ls_right == (o.chi_resolution + o.K_squared) % 12,
                "mod-12 right side is not chi + K^2 mod 12")
        require(o.ls_left == o.chi_fibre_F % 12, "mod-12 left side is not chi(F) mod 12")


def pipeline_op(api, texts, name, r, side, reduce) -> Op:
    text = texts[name]

    def run():
        result = api.pipeline.run_pipeline(text, r, side=side, reduce=reduce)
        return result, api.report.render_text(result), api.report.render_json_dict(result)

    def check(out, key):
        result, rendered, doc = out
        g = plain(result.plumbing_full)
        o = result.obstructions
        oracle.check_balance(g)
        check_obstructions(g, o)
        require(doc["obstructions"]["determinant"] == o.determinant,
                "JSON report determinant differs")
        require(f"determinant = {o.determinant}," in rendered,
                "text report does not state the determinant")
        exponents = EXPONENTS.get((name, side))
        if exponents:
            oracle.check_brieskorn(g, o.wedge_spheres, exponents, r,
                                   o.determinant, o.negative_definite)
        if reduce:
            ade = ADE_DET[r] if name == "cusp" and side == "f" and r > 1 else None
            oracle.check_reduced(plain(result.blowdown), o.determinant, ade, sphere=r == 1)

    return Op(f"{name} r={r} side={side}", run, key=lambda out: out[1], check=check)


def build_examples(api, texts, rng, workdir) -> list[Op]:
    runs = [(name, r, side)
            for name, r in (("ex1", 3), ("ex2", 2), ("ex3", 5))
            for side in ("fg", "f", "g")]
    runs += [("cusp", r, "f") for r in sorted(ADE_DET)]
    runs += [(name, 1, side) for name in ("ex1", "ex2", "ex3") for side in ("fg", "f", "g")]
    runs += [("cusp", 1, "f")]
    ops = [pipeline_op(api, texts, name, r, side, reduce=True) for name, r, side in runs]
    rng.shuffle(ops)
    return ops


def build_large_r(api, texts, rng, workdir) -> list[Op]:
    # cusp has a single branch, so its mixed run equals its one-sided one.
    runs = [("cusp", 401, "f")]
    runs += [("ex3", 211, side) for side in ("fg", "f", "g")]
    runs += [("ex1", 101, side) for side in ("fg", "f", "g")]
    ops = [pipeline_op(api, texts, name, r, side, reduce=False) for name, r, side in runs]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# blowdown: normalize_edge_signs + blow_down on blown-up minimal trees
# ---------------------------------------------------------------------------

def minimal_tree(kind: str) -> dict:
    if kind == "E8":
        edges = [(i, i + 1) for i in range(1, 7)] + [(3, 8)]
        n = 8
    elif kind == "D4":
        edges, n = [(1, 2), (1, 3), (1, 4)], 4
    elif kind.startswith("A"):
        n = int(kind[1:])
        edges = [(i, i + 1) for i in range(1, n)]
    else:  # "S3": the smooth point, a single -1 curve
        return {"vertices": [(1, -1, 0, None)], "edges": [], "arrows": []}
    return {"vertices": [(i, -2, 0, None) for i in range(1, n + 1)],
            "edges": [(u, v, 1) for u, v in edges], "arrows": []}


def blow_up(seed: dict, steps: int, rng) -> dict:
    """Random vertex and edge blow-ups, random edge signs, then a random
    relabelling and reordering of vertices and edges."""
    weight = {vid: w for vid, w, _, _ in seed["vertices"]}
    edges = [list(e) for e in seed["edges"]]
    for _ in range(steps):
        new = max(weight) + 1
        weight[new] = -1
        if edges and rng.random() < 0.5:
            i = rng.randrange(len(edges))
            u, v, s = edges[i]
            weight[u] -= 1
            weight[v] -= 1
            s1 = rng.choice((1, -1))
            edges[i] = [u, new, s1]
            edges.append([new, v, s * s1])
        else:
            u = rng.choice(sorted(weight.keys() - {new}))
            weight[u] -= 1
            edges.append([u, new, rng.choice((1, -1))])
    ids = sorted(weight)
    label = dict(zip(ids, rng.sample(range(1, 10 * len(ids) + 1), len(ids))))
    vertices = [(label[v], weight[v], 0, None) for v in ids]
    rng.shuffle(vertices)
    out_edges = [(label[u], label[v], s) if rng.random() < 0.5 else (label[v], label[u], s)
                 for u, v, s in edges]
    rng.shuffle(out_edges)
    return {"vertices": vertices, "edges": out_edges, "arrows": []}


def chain(n: int) -> dict:
    """The [-1, -2, ..., -2] chain of n vertices, a blown-up smooth point."""
    return {"vertices": [(i, -1 if i == 1 else -2, 0, None) for i in range(1, n + 1)],
            "edges": [(i, i + 1, 1) for i in range(1, n)], "arrows": []}


BLOWDOWN_SEEDS = ("E8", "D4", "A3", "A6", "S3")
BLOWDOWN_STEPS = (6, 12, 18, 24, 30)
# Trees per (seed tree, steps): enough that the latency quantiles of a
# round, not the shape of one random tree, set the figures.
BLOWDOWN_REPLICAS = 4
BLOWDOWN_CHAINS = (20, 40, 80)


def blowdown_op(api, name, seed_plain, before) -> Op:
    graphs = api.graphs
    tree = graphs.PlumbingTree(
        tuple(graphs.Vertex(vid, w, genus) for vid, w, genus, _ in before["vertices"]),
        tuple(graphs.Edge(u, v, s) for u, v, s in before["edges"]))

    def run():
        return api.synthesis.blow_down(api.synthesis.normalize_edge_signs(tree))

    def check(out, key):
        oracle.check_blow_down(seed_plain, before, plain(out))

    return Op(name, run, key=lambda out: out, check=check)


def build_blowdown(api, texts, rng, workdir) -> list[Op]:
    ops = []
    for kind in BLOWDOWN_SEEDS:
        seed_plain = minimal_tree(kind)
        for steps in BLOWDOWN_STEPS:
            for replica in range(BLOWDOWN_REPLICAS):
                ops.append(blowdown_op(api, f"{kind}+{steps}#{replica}", seed_plain,
                                       blow_up(seed_plain, steps, rng)))
    for n in BLOWDOWN_CHAINS:
        ops.append(blowdown_op(api, f"chain{n}", minimal_tree("S3"), chain(n)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# stage_files: in-process CLI calls composing through JSON files
# ---------------------------------------------------------------------------

STAGE_RUNS = (("ex1", 3), ("ex2", 2), ("ex3", 5), ("cusp", 5), ("cusp", 101))
MULTI_R = 5

# Malformed stage documents: (file stem, subcommand, document).
MALFORMED = (
    ("no_weight", "invariants",
     {"schema": "susplink/plumbing:1", "vertices": [{"id": 1}], "edges": []}),
    ("weight_x", "invariants",
     {"schema": "susplink/plumbing:1", "vertices": [{"id": 1, "weight": "x"}],
      "edges": []}),
    ("stalk_no_beta", "plumbing",
     {"schema": "susplink/waldhausen:1", "vertices": [{"id": 1, "e": -1}],
      "stalks": [{"vertex": 1, "alpha": 2}]}),
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _no_check(out, key) -> None:
    pass


def cli_op(api, name, argv, output, check=_no_check, expect_fail=False) -> Op:
    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = api.cli.main(argv)
        return rc, err.getvalue()

    def key(out):
        return out[0], _read(output) if output else out[1]

    if expect_fail:
        return Op(name, run, key, check,
                  ok=lambda out: out[0] == 1 and "error [" in out[1], expect_fail=True)
    return Op(name, run, key, check, ok=lambda out: out[0] == 0)


# The fields the ``invariants`` subcommand prints.
INVARIANT_FIELDS = ("K", "K_squared", "numerically_gorenstein", "chi_resolution",
                    "determinant", "negative_definite")


def invariant_fields(get) -> dict:
    """``INVARIANT_FIELDS`` read through ``get``, with K and K^2 as fractions,
    so that a report object and a JSON document compare equal."""
    fields = {name: get(name) for name in INVARIANT_FIELDS}
    fields["K"] = [Fraction(k) for k in fields["K"]]
    fields["K_squared"] = Fraction(fields["K_squared"])
    return fields


def check_fields_independently(g, fields) -> None:
    oracle.check_canonical(g, fields["K"], fields["K_squared"])
    oracle.check_form(g, fields["determinant"], fields["negative_definite"])
    oracle.check_chi_resolution(g, fields["chi_resolution"])


def build_stage_files(api, texts, rng, workdir) -> list[Op]:
    data = api.data_dir
    blocks = []
    for name, r in STAGE_RUNS:
        stem = os.path.join(workdir, f"{name}_r{r}")
        src = os.path.join(data, f"{name}.txt")
        steps = [
            ("step1", [src], "mp"),
            ("nielsen", [f"{stem}.mp.json"], "n"),
            ("power", [f"{stem}.n.json", "-r", str(r)], "np"),
            ("waldhausen", [f"{stem}.np.json"], "w"),
            ("plumbing", [f"{stem}.w.json", "--keep-arrows"], "tree"),
            ("invariants", [f"{stem}.tree.json", "--format", "json"], "inv"),
        ]
        tree_path = f"{stem}.tree.json"

        def check_tree(out, key):
            g = plain_from_json(json.loads(key[1]))
            oracle.check_balance(g)

        def check_invariants(out, key, name=name, r=r, tree_path=tree_path):
            fields = invariant_fields(json.loads(key[1]).__getitem__)
            reference = api.pipeline.run_pipeline(texts[name], r).obstructions
            require(fields == invariant_fields(lambda field: getattr(reference, field)),
                    f"invariants JSON of {name} r={r} differs from run_pipeline")
            check_fields_independently(plain_from_json(json.loads(_read(tree_path))), fields)

        block = []
        for command, args, suffix in steps:
            output = f"{stem}.{suffix}.json"
            check = {"plumbing": check_tree, "invariants": check_invariants}.get(command, _no_check)
            block.append(cli_op(api, f"{command} {name} r={r}",
                                [command, *args, "-o", output], output, check))
        blocks.append(block)

    multi_out = os.path.join(workdir, "multi.json")
    multi_inputs = [os.path.join(data, f"{name}.txt") for name in DATA_FILES]

    def check_multi(out, key):
        chunks = key[1].split("== ")[1:]
        require(len(chunks) == len(multi_inputs), f"{len(chunks)} reports for "
                f"{len(multi_inputs)} inputs")
        for path, chunk in zip(multi_inputs, chunks):
            header, body = chunk.split("\n", 1)
            require(header == path, f"report header {header!r} for input {path!r}")
            doc = json.loads(body)
            name = os.path.basename(path)[:-4]
            reference = api.pipeline.run_pipeline(texts[name], MULTI_R).obstructions
            fields = invariant_fields(doc["obstructions"].__getitem__)
            require(fields == invariant_fields(lambda field: getattr(reference, field)),
                    f"pipeline JSON of {name} differs from run_pipeline")
            check_fields_independently(plain_from_json(doc["stages"]["plumbing"]), fields)

    blocks.append([cli_op(api, "pipeline multi",
                          ["pipeline", *multi_inputs, "-r", str(MULTI_R),
                           "--format", "json", "-o", multi_out], multi_out, check_multi)])

    for stem, command, doc in MALFORMED:
        path = os.path.join(workdir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        blocks.append([cli_op(api, f"malformed {stem}",
                              [command, path, "-o", os.path.join(workdir, f"{stem}.out")],
                              None, expect_fail=True)])
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


BUILDERS = {
    "examples": build_examples,
    "large_r": build_large_r,
    "blowdown": build_blowdown,
    "stage_files": build_stage_files,
}
