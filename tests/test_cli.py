import contextlib
import functools
import io
import json
import os
import random
import stat
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from susplink import cli
from susplink.cli import build_parser, main
from susplink.graphs import BoundaryStalk, NielsenEdge, NielsenGraph, NielsenVertex, Stalk
from susplink.nielsen import build_nielsen
from susplink.pipeline import run_pipeline
from susplink.resolve import parse_resolution, subtract_and_normalize
from susplink.serialize import to_dict, to_json
from conftest import DATA, read_input

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stage_composition_equals_pipeline(tmp_path, capsys):
    """step1 | nielsen | power | waldhausen | plumbing through files gives
    the same graphs the pipeline report embeds."""
    mp = tmp_path / "mp.json"
    n = tmp_path / "n.json"
    n3 = tmp_path / "n3.json"
    w = tmp_path / "w.json"
    tree = tmp_path / "tree.json"
    for argv in (
        ["step1", str(DATA / "ex1.txt"), "-o", str(mp)],
        ["nielsen", str(mp), "-o", str(n)],
        ["power", str(n), "-r", "3", "-o", str(n3)],
        ["waldhausen", str(n3), "-o", str(w)],
        ["plumbing", str(w), "-o", str(tree)],
    ):
        assert main(argv) == 0
    code, out, _ = run_cli(capsys, "pipeline", str(DATA / "ex1.txt"),
                           "-r", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["stages"]["multiplicity"] == json.loads(mp.read_text())
    assert report["stages"]["nielsen"] == json.loads(n.read_text())
    assert report["stages"]["nielsen_power"] == json.loads(n3.read_text())
    assert report["stages"]["waldhausen"] == json.loads(w.read_text())
    assert report["stages"]["plumbing"] == json.loads(tree.read_text())


def test_invariants_subcommand(tmp_path, capsys):
    w = tmp_path / "w.json"
    tree = tmp_path / "tree.json"
    assert main(["step1", str(DATA / "ex3.txt"), "-o", str(tmp_path / "mp.json")]) == 0
    assert main(["nielsen", str(tmp_path / "mp.json"), "-o", str(tmp_path / "n.json")]) == 0
    assert main(["power", str(tmp_path / "n.json"), "-r", "5", "-o", str(tmp_path / "n5.json")]) == 0
    assert main(["waldhausen", str(tmp_path / "n5.json"), "-o", str(w)]) == 0
    assert main(["plumbing", str(w), "-o", str(tree)]) == 0
    code, out, _ = run_cli(capsys, "invariants", str(tree), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["chi_resolution"] == 18
    assert data["numerically_gorenstein"] is False
    assert data["negative_definite"] is True


def test_pipeline_text_report(capsys):
    code, out, err = run_cli(capsys, "pipeline", str(DATA / "ex1.txt"), "-r", "3")
    assert code == 0 and err == ""
    assert "31/30" in out
    assert "not numerically Gorenstein" in out or "numerically Gorenstein: no" in out


def test_pipeline_dot_output(capsys):
    code, out, _ = run_cli(capsys, "pipeline", str(DATA / "cusp.txt"),
                           "-r", "5", "--format", "dot", "--blow-down")
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count('label="-2') == 8  # the E8 diagram, multiplicities attached


def test_error_exit_code_and_stage(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertex 1 weight=-1\nvertex 2 weight=-2\nedge 1 2\n"
                   "arrow 1 side=f\narrow 1 side=g\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "pipeline", str(bad))
    assert code == 1
    assert out == ""
    assert "step1" in err and "not fibred" in err
    assert err.count("(elements: 1)") == 1


@pytest.mark.parametrize("line,number,message", [
    ("vertex 3 weight=-3 weight=-1", 3, "duplicate field 'weight'"),
    ("arrow 2 side=g side=f", 6, "duplicate field 'side'"),
], ids=["vertex", "arrow"])
def test_repeated_field_is_a_parse_error(tmp_path, capsys, line, number, message):
    """cusp.txt with one line given a repeated field fails in parsing
    instead of running with the last value."""
    lines = [l for l in read_input("cusp.txt").splitlines() if not l.startswith("#")]
    lines[number - 1] = line
    path = tmp_path / "repeated.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "pipeline", str(path), "-r", "5")
    assert (code, out, err) == (1, "", f"error [parse] line {number}: {message}\n")


def test_missing_input_file_is_an_os_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "pipeline", str(tmp_path / "absent.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "absent.txt" in err


def test_output_file_is_rewritten_in_place(tmp_path, capsys):
    """``-o FILE`` leaves the bytes ``-o -`` prints, with no tail of a longer
    earlier document, creates a missing file under the umask, writes through
    a symlink and accepts a device."""
    docs, printed = {}, {}
    for name in ("ex3", "cusp"):
        docs[name] = tmp_path / f"{name}_w.json"
        docs[name].write_text(to_json(run_pipeline(read_input(f"{name}.txt"), 5).waldhausen),
                              encoding="utf-8")
        code, stdout, err = run_cli(capsys, "plumbing", str(docs[name]), "-o", "-")
        assert (code, err) == (0, "")
        printed[name] = stdout.encode("utf-8")
    assert len(printed["ex3"]) > len(printed["cusp"])

    out = tmp_path / "tree.json"
    old_umask = os.umask(0o027)
    try:
        assert run_cli(capsys, "plumbing", str(docs["ex3"]), "-o", str(out)) == (0, "", "")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_bytes() == printed["ex3"]
    assert run_cli(capsys, "plumbing", str(docs["cusp"]), "-o", str(out)) == (0, "", "")
    assert out.read_bytes() == printed["cusp"]

    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert run_cli(capsys, "plumbing", str(docs["ex3"]), "-o", str(link)) == (0, "", "")
    assert link.is_symlink() and out.read_bytes() == printed["ex3"]
    assert run_cli(capsys, "plumbing", str(docs["cusp"]), "-o", os.devnull) == (0, "", "")


@pytest.mark.parametrize("target", [("missing", "x.json"), ()], ids=["missing_dir", "dir"])
def test_unwritable_output_is_an_os_error(tmp_path, capsys, target):
    out = tmp_path.joinpath(*target)
    code, stdout, err = run_cli(capsys, "step1", str(DATA / "ex1.txt"), "-o", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_plumbing_text_output_is_the_pipeline_step5(tmp_path, capsys):
    """The plumbing subcommand's text rendering lists the vertices and edges
    the pipeline report prints as its step 5."""
    w = tmp_path / "w.json"
    w.write_text(to_json(run_pipeline(read_input("ex2.txt"), 2).waldhausen), encoding="utf-8")
    code, out, err = run_cli(capsys, "plumbing", str(w), "--format", "text")
    assert code == 0 and err == ""
    head, *body = out.splitlines()
    assert head == "plumbing tree" and body
    _, report, _ = run_cli(capsys, "pipeline", str(DATA / "ex2.txt"), "-r", "2")
    step5 = report.split("step 5: plumbing tree\n", 1)[1]
    assert step5.splitlines()[:len(body)] == body


def test_wrong_stage_input_is_rejected(tmp_path, capsys):
    mp = tmp_path / "mp.json"
    assert main(["step1", str(DATA / "ex1.txt"), "-o", str(mp)]) == 0
    code, _, err = run_cli(capsys, "waldhausen", str(mp))
    assert code == 1
    assert "expected NielsenGraph" in err


def test_batch_pipeline(capsys):
    code, out, _ = run_cli(capsys, "pipeline", str(DATA / "ex1.txt"),
                           str(DATA / "ex2.txt"), "-r", "2")
    assert code == 0
    assert out.count("== ") == 2


@pytest.mark.parametrize("command,doc", [
    ("invariants", {"schema": "susplink/plumbing:1", "vertices": [{"id": 1}],
                    "edges": []}),
    ("invariants", {"schema": "susplink/plumbing:1",
                    "vertices": [{"id": 1, "weight": "x"}], "edges": []}),
    ("plumbing", {"schema": "susplink/waldhausen:1", "vertices": [{"id": 1, "e": -1}],
                  "stalks": [{"vertex": 1, "alpha": 2}]}),
    ("plumbing", {"schema": "susplink/waldhausen:1",
                  "vertices": [{"id": 1, "e": -1, "order": 0}],
                  "arrows": [{"vertex": 1, "alpha": 1, "beta": 0}]}),
    ("plumbing", {"schema": "susplink/waldhausen:1",
                  "vertices": [{"id": 1, "e": -1, "q": 2}],
                  "arrows": [{"vertex": 1, "alpha": 1, "beta": 0}]}),
    ("plumbing", {"schema": "susplink/waldhausen:1",
                  "vertices": [{"id": 1, "e": -1}, {"id": 2, "e": -1}],
                  "edges": [{"u": 1, "v": 2, "eps": 1, "alpha": 1, "beta_u": 1,
                             "beta_v": 0}]}),
], ids=["no_weight", "weight_x", "stalk_no_beta", "order_0", "q_2", "alpha_1_beta_1"])
def test_malformed_stage_document(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error [{command}] ")


@pytest.mark.parametrize("command", ["power", "waldhausen"])
def test_q_gt_1_nielsen_document_fails_in_the_reading_stage(tmp_path, capsys, command):
    """A piece with q = 2 is rejected while the document is read, in the
    stage that reads it, and named."""
    path = tmp_path / "n.json"
    path.write_text(json.dumps({
        "schema": "susplink/nielsen:1",
        "vertices": [{"id": 1, "order": 4, "genus": 0, "q": 2}],
        "stalks": [{"vertex": 1, "lam": 2, "sigma": 1}, {"vertex": 1, "lam": 2, "sigma": 1}],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == (f"error [{command}] pieces permuted in orbits of size q > 1 "
                   "are not supported (elements: 1)\n")


def test_negative_genus_fails_in_the_nielsen_stage(tmp_path, capsys):
    """ex1's multiplicity tree with genus -1 on vertex 1 is rejected while
    the nielsen stage reads it, not computed as if the genus were 0."""
    mp = tmp_path / "mp.json"
    assert main(["step1", str(DATA / "ex1.txt"), "-o", str(mp)]) == 0
    doc = json.loads(mp.read_text())
    assert doc["vertices"][0]["id"] == 1
    doc["vertices"][0]["genus"] = -1
    mp.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "nielsen", str(mp))
    assert (code, out) == (1, "")
    assert err.startswith("error [nielsen] genus must be >= 0")


@pytest.mark.parametrize("doc,field", [
    ({"vertices": [{"id": 1, "weight": -2, "genu": 1}, {"id": 2, "weight": -2}],
      "edges": [{"u": 1, "v": 2, "sing": -1}]}, "'genu' in vertices[0]"),
    ({"vertices": [{"id": 1, "weight": -2}, {"id": 2, "weight": -2}],
      "edges": [{"u": 1, "v": 2, "sing": -1}]}, "'sing' in edges[0]"),
    ({"vertices": [{"id": 1, "weight": -2}], "edges": [],
      "arrowz": [{"vertex": 1}]}, "'arrowz' in the document"),
], ids=["genu", "sing", "arrowz"])
def test_unknown_field_in_a_stage_document_is_rejected(tmp_path, capsys, doc, field):
    """A misspelt field reads as an error, not as its default: genus 0,
    sign +1 or no arrows."""
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"schema": "susplink/plumbing:1", **doc}), encoding="utf-8")
    assert run_cli(capsys, "invariants", str(path)) == (
        1, "", f"error [invariants] unknown field {field}\n")


@pytest.mark.parametrize("command,function,source,argv", [
    ("step1", "subtract_and_normalize", None, []),
    ("nielsen", "build_nielsen", "mp.json", []),
    ("power", "power_nielsen", "n.json", ["-r", "3"]),
    ("waldhausen", "nielsen_to_waldhausen", "n3.json", []),
    ("plumbing", "synth_plumbing", "w.json", []),
])
def test_stage_subcommand_calls_its_stage_function_by_name(
        tmp_path, capsys, monkeypatch, command, function, source, argv):
    """Each stage subcommand looks its stage function up in ``susplink.cli``
    when it runs, so a rebound module attribute sees exactly one call."""
    mp, n, n3, w = (str(tmp_path / name) for name in ("mp.json", "n.json", "n3.json", "w.json"))
    for args in (["step1", str(DATA / "ex1.txt"), "-o", mp], ["nielsen", mp, "-o", n],
                 ["power", n, "-r", "3", "-o", n3], ["waldhausen", n3, "-o", w]):
        assert main(args) == 0
    original, calls = getattr(cli, function), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, function, counting)
    path = DATA / "ex1.txt" if source is None else tmp_path / source
    code, _, err = run_cli(capsys, command, str(path), *argv)
    assert (code, err) == (0, "")
    assert len(calls) == 1


@pytest.mark.parametrize("text", [
    pytest.param('{"schema": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested_1e5_deep"),
    pytest.param('{"schema": "susplink/plumbing:1", "vertices": [{"id": ' + "9" * 5000
                 + ', "weight": -1}], "edges": []}', id="int_of_5000_digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this interpreter converts ints of any length")),
])
def test_json_past_the_decoder_limits_is_an_input_error(tmp_path, capsys, text):
    """JSON nested deeper than the decoder recurses, or holding an integer
    with more digits than int() converts, is an input error, not a crash."""
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error [invariants] invalid JSON: ")


@pytest.mark.parametrize("command", ["pipeline", "step1", "invariants"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error [{command}] {path}: not UTF-8 text")


def test_non_utf8_stdin_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe\x00bad")))
    code, out, err = run_cli(capsys, "step1", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error [step1] stdin: not UTF-8 text")


BOM = "\ufeff".encode("utf-8")


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    """A resolution text and a stage document saved with a UTF-8
    byte-order mark read as they do without one."""
    text, marked = DATA / "ex1.txt", tmp_path / "ex1.txt"
    marked.write_bytes(BOM + text.read_bytes())
    want = run_cli(capsys, "step1", str(text))
    assert want[0] == 0 and run_cli(capsys, "step1", str(marked)) == want
    doc = tmp_path / "mp.json"
    doc.write_bytes(BOM + want[1].encode("utf-8"))
    code, out, err = run_cli(capsys, "nielsen", str(doc))
    assert (code, err) == (0, "")
    assert out == to_json(build_nielsen(subtract_and_normalize(parse_resolution(
        text.read_text(encoding="utf-8"))))) + "\n"


def test_a_leading_byte_order_mark_on_stdin_is_dropped(monkeypatch, capsys):
    data = (DATA / "ex1.txt").read_bytes()
    want = run_cli(capsys, "step1", str(DATA / "ex1.txt"))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BOM + data)))
    assert run_cli(capsys, "step1", "-") == want


def test_only_one_byte_order_mark_is_dropped(tmp_path, capsys):
    """A second mark is text: the first line's one token, which the error names."""
    path = tmp_path / "twice.txt"
    path.write_bytes(BOM + BOM + (DATA / "ex1.txt").read_bytes())
    code, out, err = run_cli(capsys, "step1", str(path))
    assert (code, out) == (1, "")
    assert err == "error [step1] line 1: unknown directive '\\ufeff'\n"


def test_non_utf8_offset_counts_the_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(BOM + b"vertex 1 weight=-1\xff\n")
    code, out, err = run_cli(capsys, "step1", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error [step1] {path}: not UTF-8 text "
                   "(invalid start byte at byte 21)\n")


@pytest.mark.parametrize("side", ["fg", "f"])
def test_pipeline_reads_the_resolution_document_of_its_report(tmp_path, capsys, side):
    """The ``input`` of a JSON report, saved as a document, is read by
    ``pipeline`` as ``step1`` reads it, and gives the same report."""
    argv = ["-r", "3", "--side", side, "--format", "json"]
    res = tmp_path / "res.json"
    for name in ("ex1.txt", "ex2.txt", "ex3.txt", "cusp.txt"):
        code, report, err = run_cli(capsys, "pipeline", str(DATA / name), *argv)
        assert (code, err) == (0, "")
        res.write_text(json.dumps(json.loads(report)["input"]), encoding="utf-8")
        assert run_cli(capsys, "pipeline", str(res), *argv) == (0, report, "")


def test_side_flag(capsys):
    code, out, _ = run_cli(capsys, "pipeline", str(DATA / "ex1.txt"),
                           "-r", "2", "--side", "f", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["side"] == "f"


@pytest.mark.parametrize("name,argv", [
    ("ex1_r3_report.json", ["pipeline", "-r", "3", "--blow-down", "--format", "json"]),
    ("ex2_r2_report.json", ["pipeline", "-r", "2", "--blow-down", "--format", "json"]),
    ("ex3_r5_report.json", ["pipeline", "-r", "5", "--blow-down", "--format", "json"]),
    ("ex1_r3_report.txt", ["pipeline", "-r", "3", "--blow-down"]),
    ("ex2_r2_report.txt", ["pipeline", "-r", "2", "--blow-down"]),
    ("ex3_r5_report.txt", ["pipeline", "-r", "5", "--blow-down"]),
    ("ex1_r3_keep_arrows.json",
     ["pipeline", "-r", "3", "--keep-arrows", "--blow-down", "--format", "json"]),
    ("ex2_r2_keep_arrows.json",
     ["pipeline", "-r", "2", "--keep-arrows", "--blow-down", "--format", "json"]),
    # at size: chains up to 27 (ex3, K over 211) and 70 (cusp) vertices long
    ("ex3_r211_report.json", ["pipeline", "-r", "211", "--format", "json"]),
    ("ex3_r211_report.txt", ["pipeline", "-r", "211"]),
    ("cusp_r401_f_report.txt", ["pipeline", "-r", "401", "--side", "f"]),
])
def test_golden_outputs(capsys, name, argv):
    """Byte-for-byte stability of the reports for the three worked examples,
    and of the mixed ex3 and the cusp at the sizes of the large-r benchmark."""
    source = DATA / (name.split("_")[0] + ".txt")
    cmd = argv[:1] + [str(source)] + argv[1:]
    code, out, _ = run_cli(capsys, *cmd)
    assert code == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("name,argv", [
    ("ex3_r5_invariants.txt", []),
    ("ex3_r5_invariants.json", ["--format", "json"]),
])
def test_invariants_golden_outputs(tmp_path, capsys, name, argv):
    """Byte-for-byte stability of ``invariants`` on ex3's r = 5 plumbing
    document, as text and as JSON."""
    w = tmp_path / "w.json"
    tree = tmp_path / "tree.json"
    assert main(["step1", str(DATA / "ex3.txt"), "-o", str(tmp_path / "mp.json")]) == 0
    assert main(["nielsen", str(tmp_path / "mp.json"), "-o", str(tmp_path / "n.json")]) == 0
    assert main(["power", str(tmp_path / "n.json"), "-r", "5", "-o", str(tmp_path / "n5.json")]) == 0
    assert main(["waldhausen", str(tmp_path / "n5.json"), "-o", str(w)]) == 0
    assert main(["plumbing", str(w), "-o", str(tree)]) == 0
    code, out, _ = run_cli(capsys, "invariants", str(tree), *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_pipeline_keep_arrows(capsys):
    code, out, _ = run_cli(capsys, "pipeline", str(DATA / "ex1.txt"),
                           "-r", "3", "--keep-arrows", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["stages"]["plumbing"]["arrows"]) == 2


# Subcommand reading each kind of input; None stands for resolution text.
_READERS = {None: ("step1", "pipeline"), "susplink/resolution:1": ("step1",),
            "susplink/multiplicity:1": ("nielsen",),
            "susplink/nielsen:1": ("power", "waldhausen"),
            "susplink/waldhausen:1": ("plumbing",), "susplink/plumbing:1": ("invariants",)}
_COMMANDS = ("step1", "nielsen", "power", "waldhausen", "plumbing", "invariants", "pipeline")


@functools.cache
def _seeds() -> tuple:
    """Each data file's text and stage documents at the r in 1..12 whose
    Seifert pairs all have alpha <= 12, as (text or JSON object, r)."""
    seeds = []
    for path in sorted(DATA.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        for r in range(1, 13):
            result = run_pipeline(text, r)
            w = result.waldhausen
            if max(p.alpha for p in w.stalks + w.arrows + w.edges) > 12:
                continue
            seeds.append((text, r))
            seeds += [(to_dict(g), r) for g in (
                result.resolution, result.multiplicity, result.nielsen,
                result.nielsen_power, w, result.plumbing_full)]
    return tuple(seeds)


_VALUES = st.one_of(st.integers(-3, 12), st.sampled_from(
    ["1/2", "-1/3", "2/3", "-3/2", "x", "", "f", "g", "binding", None, True, 0.5, []]))


def _mutated_text(rng, text) -> str:
    """``text`` with a token of one line replaced, or a line dropped."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    if tokens and rng.random() < 0.8:
        j = rng.randrange(len(tokens))
        key = tokens[j].split("=", 1)[0] + "=" if "=" in tokens[j] else ""
        tokens[j] = key + rng.choice(["-4", "-3", "-2", "-1", "0", "1", "2", "f", "g", "x"])
        lines[i] = " ".join(tokens)
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


def _mutated_document(rng, draw, doc) -> dict:
    """``doc`` with one field of one element set to a drawn value, one
    element dropped or doubled, or the schema tag changed."""
    doc = json.loads(json.dumps(doc))
    lists = [k for k, v in doc.items() if isinstance(v, list) and v]
    roll = rng.random()
    if not lists or roll < 0.05:
        doc["schema"] = rng.choice(list(_READERS)[1:] + ["susplink/report:1"])
        return doc
    items = doc[rng.choice(lists)]
    i = rng.randrange(len(items))
    if roll < 0.15:
        del items[i]
    elif roll < 0.25:
        items.append(items[i])
    elif isinstance(items[i], dict):
        items[i][rng.choice([*items[i], "x"])] = draw(_VALUES)
    else:
        items[i][rng.randrange(2)] = draw(_VALUES)
    return doc


@st.composite
def _cli_runs(draw):
    """(argv without the input path, input text): a subcommand with its
    options, mostly fed the kind of input it reads and mostly mutated."""
    seed, r = draw(st.sampled_from(_seeds()))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = seed.get("schema") if isinstance(seed, dict) else None
    if draw(st.integers(0, 3)):
        command = draw(st.sampled_from(_READERS[kind]))
    else:
        command = draw(st.sampled_from(_COMMANDS))
    if draw(st.integers(0, 4)):
        seed = (_mutated_text(rng, seed) if kind is None
                else _mutated_document(rng, draw, seed))
    text = seed if kind is None else json.dumps(seed)
    argv = [command]
    if command in ("power", "pipeline"):
        argv += ["-r", str(draw(st.sampled_from([r, r, -1, 0, 1, 2])))]
    if command in ("plumbing", "pipeline") and draw(st.booleans()):
        argv.append("--keep-arrows")
    if command in ("plumbing", "invariants", "pipeline") and draw(st.booleans()):
        argv.append("--blow-down")
    if command != "invariants":
        argv += ["--format", draw(st.sampled_from(["json", "text", "dot"]))]
    return argv, text


@settings(max_examples=300, deadline=None)
@given(_cli_runs())
def test_cli_fuzz_exits_0_or_reports_the_stage(run):
    """Every subcommand, fed a stage document or input text that is mostly
    mutated, exits 0, or exits 1 with an "error [stage]" line on stderr."""
    argv, text = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith("error [")), (code, err.getvalue())


def test_non_reduced_seifert_pair_names_the_pair_and_the_piece(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema": "susplink/waldhausen:1",
                                "vertices": [{"id": 1, "e": -1, "order": 4}],
                                "arrows": [{"vertex": 1, "alpha": 4, "beta": 2}]}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "plumbing", str(path))
    assert (code, out) == (1, "")
    assert err == ("error [plumbing] arrow pair (4, 2) at vertex 1 is not reduced: "
                   "gcd 2 (elements: 1)\n")


def test_gluing_without_a_dual_pair_names_both_pieces(tmp_path, capsys):
    """Two pieces of order 2 glued twice with twist 1/2 and valency (2, 1) at
    both ends: each gluing reads (2, 0) from both ends, and the Waldhausen
    graph of step 4 rejects it, naming its two pieces."""
    edge = NielsenEdge(1, 2, Fraction(1, 2), 2, 1, 2, 1)
    n = NielsenGraph((NielsenVertex(1, 2, 0), NielsenVertex(2, 2, 0)), edges=(edge, edge))
    path = tmp_path / "n.json"
    path.write_text(to_json(n), encoding="utf-8")
    code, out, err = run_cli(capsys, "waldhausen", str(path))
    assert (code, out) == (1, "")
    assert err == ("error [waldhausen] beta * beta' = 0 * 0 is not 1 mod 2 "
                   "(elements: 1, 2)\n")


def _mult_document(vertices, edges):
    """A multiplicity document of (id, weight, genus, m) vertices joined
    by edges of sign 1."""
    return {"schema": "susplink/multiplicity:1",
            "vertices": [{"id": i, "weight": w, "genus": g, "m": m} for i, w, g, m in vertices],
            "edges": [{"u": u, "v": v} for u, v in edges]}


@pytest.mark.parametrize("doc,message", [
    # the nodes 1 and 3 (genus 1) are joined through 2, with gcd(6, 3) = 3
    # and gcd(3, 4) = 1
    pytest.param(_mult_document([(1, -1, 1, 6), (2, -2, 0, 3), (3, -1, 1, 4)],
                                [(1, 2), (2, 3)]),
                 "inconsistent chain data: consecutive multiplicity gcds [1, 3] vary "
                 "(elements: 1, 2, 3)", id="chain_gcd"),
    # the stalk [2, 1, 1] off the node 1 has a zero intermediate value
    pytest.param(_mult_document([(1, -1, 1, 2), (2, -2, 0, 1), (3, -1, 0, 1), (4, -1, 0, 1)],
                                [(1, 2), (2, 3), (3, 4)]),
                 "degenerate chain [2, 1, 1]: zero intermediate value (elements: 1, 2, 3, 4)",
                 id="degenerate_stalk"),
])
def test_chain_errors_name_the_chain_and_its_nodes(tmp_path, capsys, doc, message):
    path = tmp_path / "mp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "nielsen", str(path))
    assert (code, out, err) == (1, "", f"error [nielsen] {message}\n")


@pytest.mark.parametrize("n,message", [
    # a boundary stalk of valency 6 and twist -1/4 at a piece of order 6
    pytest.param(NielsenGraph((NielsenVertex(1, 6, 1),), (Stalk(1, 6, 1),),
                              (BoundaryStalk(1, 6, 5, Fraction(-1, 4)),)),
                 "arrow at vertex 1: alpha = 3/2 is not integral (elements: 1)", id="arrow"),
    # two pieces of order 2 glued twice with twist 1/8 and valency (2, 1)
    pytest.param(NielsenGraph((NielsenVertex(1, 2, 0), NielsenVertex(2, 2, 0)),
                              edges=(NielsenEdge(1, 2, Fraction(1, 8), 2, 1, 2, 1),) * 2),
                 "edge at 1 to 2: alpha = 1/2 is not integral (elements: 1, 2)", id="edge"),
])
def test_seifert_pair_errors_name_the_piece(tmp_path, capsys, n, message):
    path = tmp_path / "n.json"
    path.write_text(to_json(n), encoding="utf-8")
    code, out, err = run_cli(capsys, "waldhausen", str(path))
    assert (code, out, err) == (1, "", f"error [waldhausen] {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_invariants_beyond_the_int_to_str_limit_are_an_error(tmp_path, capsys, fmt):
    """A 100-vertex path of weight -10^50 has a determinant of 5000 digits,
    more than Python converts to text (4300 by default): an error naming
    the digit count, exit 1 and no output file, not a ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not 0 < limit < 5000:
        pytest.skip(f"this interpreter converts {limit or 'any number of'} digits")
    path, out_path = tmp_path / "path.json", tmp_path / "out.txt"
    path.write_text(json.dumps({
        "schema": "susplink/plumbing:1",
        "vertices": [{"id": i, "weight": -10**50} for i in range(1, 101)],
        "edges": [{"u": i, "v": i + 1} for i in range(1, 100)]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "invariants", str(path), "--format", fmt,
                             "-o", str(out_path))
    assert (code, out) == (1, "")
    assert err == (f"error [invariants] determinant: an integer of 5000 digits, more than "
                   f"the {limit} that Python converts to text\n")
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_numbers_beyond_the_int_to_str_limit_are_an_error(tmp_path, capsys, fmt):
    """A genus of 10^4000 gives K^2 of 8001 digits: ``pipeline`` names it
    before any format is rendered, exit 1 and no output file, not a
    ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not 0 < limit < 8001:
        pytest.skip(f"this interpreter converts {limit or 'any number of'} digits")
    path, out_path = tmp_path / "big_genus.txt", tmp_path / "out.txt"
    path.write_text(f"vertex 1 weight=-1 genus={10**4000}\narrow 1 side=f\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "pipeline", str(path), "-r", "2", "--format", fmt,
                             "-o", str(out_path))
    assert (code, out) == (1, "")
    assert err == (f"error [pipeline] K_squared: an integer of 8001 digits, more than "
                   f"the {limit} that Python converts to text\n")
    assert not out_path.exists()


def test_every_json_output_is_the_standard_indent_2_text(tmp_path, capsys):
    """The six stage documents, ``invariants --format json`` and the
    pipeline report are what ``json.dumps(doc, indent=2)`` writes."""
    def outputs():
        for name, r in (("ex1", 3), ("ex3", 5), ("cusp", 5)):
            src = str(DATA / f"{name}.txt")
            yield ["pipeline", src, "-r", str(r), "--blow-down", "--format", "json"]
            yield ["pipeline", src, "-r", str(r), "--keep-arrows", "--format", "json"]
            for argv in (["step1", src], ["nielsen", "mp.json"], ["power", "n.json", "-r", str(r)],
                         ["waldhausen", "nr.json"], ["plumbing", "w.json", "--keep-arrows"],
                         ["plumbing", "w.json"], ["invariants", "tree.json", "--format", "json"]):
                yield [argv[0]] + [str(tmp_path / a) if a.endswith(".json") else a
                                   for a in argv[1:]]

    stage_files = {"step1": "mp.json", "nielsen": "n.json", "power": "nr.json",
                   "waldhausen": "w.json", "plumbing": "tree.json"}
    for argv in outputs():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        if argv[0] in stage_files:
            (tmp_path / stage_files[argv[0]]).write_text(out, encoding="utf-8")


# -- one parser per process ---------------------------------------------------

def _main_as_fresh(argv):
    """``main(argv)``, after checking that the shared parser reads ``argv``
    as a freshly built one does."""
    assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)
    return main(argv)


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    """A usage error or an option of one call leaves nothing behind for the
    next call in the same process."""
    assert build_parser() is build_parser()
    ex1 = str(DATA / "ex1.txt")
    with pytest.raises(SystemExit) as info:
        main(["pipeline", ex1, "-r", "x"])
    assert info.value.code == 2
    assert _main_as_fresh(["pipeline", ex1, "-r", "3"]) == 0

    g, fg = tmp_path / "g.json", tmp_path / "fg.json"
    assert _main_as_fresh(["step1", ex1, "--side", "g", "-o", str(g)]) == 0
    assert _main_as_fresh(["step1", ex1, "-o", str(fg)]) == 0
    expected = to_json(subtract_and_normalize(parse_resolution(read_input("ex1.txt")))) + "\n"
    assert fg.read_text(encoding="utf-8") == expected != g.read_text(encoding="utf-8")

    w, kept, stripped = (tmp_path / name for name in ("w.json", "kept.json", "stripped.json"))
    w.write_text(to_json(run_pipeline(read_input("ex1.txt"), 3).waldhausen), encoding="utf-8")
    assert _main_as_fresh(["plumbing", str(w), "--keep-arrows", "-o", str(kept)]) == 0
    assert _main_as_fresh(["plumbing", str(w), "-o", str(stripped)]) == 0
    assert json.loads(kept.read_text(encoding="utf-8"))["arrows"]
    assert not json.loads(stripped.read_text(encoding="utf-8")).get("arrows")
    capsys.readouterr()


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_matches_a_fresh_parser(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    outputs = []
    for parse in (main, build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("usage: susplink")
