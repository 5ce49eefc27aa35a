"""Command line driver.

Subcommands mirror the pipeline stages and compose through files:

    susplink step1 data/ex1.txt -o mp.json
    susplink nielsen mp.json -o n.json
    susplink power n.json -r 3 -o n3.json
    susplink waldhausen n3.json -o w.json
    susplink plumbing w.json -o tree.json
    susplink invariants tree.json

is equivalent to ``susplink pipeline data/ex1.txt -r 3``.  Diagnostics go to
stderr, results to stdout or ``-o``; the exit code is 0 iff no stage failed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import fields
from fractions import Fraction
from functools import cache

from .errors import InputError, PlumbingError, UnsupportedError, digits, int_max_str_digits
from .graphs import (
    MultPlumbing,
    NielsenGraph,
    PlumbingTree,
    ResolutionGraph,
    WaldhausenGraph,
)
from .invariants import form_invariants
from .nielsen import build_nielsen
from .pipeline import StageError, _stage, run_pipeline
from .power import power_nielsen
from .report import render_graph_text, render_json, render_text
from .resolve import SIDE_COEFFS, parse_resolution, subtract_and_normalize
from .serialize import dumps, from_json, to_dot, to_json
from .synthesis import reduce_tree, strip_decorations, synth_plumbing
from .waldhausen import nielsen_to_waldhausen


def _read(path: str) -> str:
    """The UTF-8 text of ``path`` ('-' for stdin), without one leading
    byte-order mark; InputError if it is not UTF-8."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the offset counts from the first byte, mark and all
        name = "stdin" if path == "-" else path
        raise InputError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return text.removeprefix("\ufeff")


def _load(path: str, want, stage: str):
    """Load a stage input: JSON documents by schema, text otherwise; a
    document or text that does not parse fails in ``stage``."""
    text = _read(path)
    parse = from_json if text.lstrip().startswith("{") else parse_resolution
    graph = _stage(stage)(parse, text)
    if not isinstance(graph, want):
        raise StageError(stage, InputError(
            f"expected {want.__name__} input, got {type(graph).__name__}"))
    return graph


def _emit(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout for None or '-'.

    A file gets exactly the UTF-8 bytes of ``text``, written with
    ``os.write`` on its descriptor until all are written, with no text
    layer and no newline translation.  It is rewritten in place and then
    cut to the new length, not truncated before the write: on ext4,
    closing a file that was truncated from a nonzero size starts its
    writeback at once.  Only a regular file is cut, since ``/dev/null`` or
    a pipe cannot be.
    """
    if out and out != "-":
        data = text.encode("utf-8")
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            left = memoryview(data)
            while left:  # a pipe may take part of it at a time
                left = left[os.write(fd, left):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        sys.stdout.write(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: ``main``
    may run many times in one process, and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susplink",
        description="plumbing description and obstruction invariants of "
                    "suspension singularity links")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, include_format=True):
        p.add_argument("input", help="input file ('-' for stdin)")
        p.add_argument("-o", "--output", default=None, help="output file")
        if include_format:
            p.add_argument("--format", choices=("text", "json", "dot"),
                           default="json", help="output format")

    p = sub.add_parser("step1", help="multiplicity tree of the decorated input")
    common(p)
    p.add_argument("--side", choices=tuple(SIDE_COEFFS), default="fg")

    p = sub.add_parser("nielsen", help="Nielsen graph of the monodromy")
    common(p)

    p = sub.add_parser("power", help="Nielsen graph of the r-th power")
    common(p)
    p.add_argument("-r", type=int, default=2, help="exponent (default 2)")

    p = sub.add_parser("waldhausen", help="Waldhausen graph of the open book")
    common(p)

    p = sub.add_parser("plumbing", help="plumbing tree of the open book")
    common(p)
    p.add_argument("--keep-arrows", action="store_true")
    p.add_argument("--blow-down", action="store_true")

    p = sub.add_parser("invariants", help="obstruction invariants of a plumbing tree")
    common(p, include_format=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--blow-down", action="store_true")

    p = sub.add_parser("pipeline", help="run every stage and report")
    p.add_argument("inputs", nargs="+", help="input file(s)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("-r", type=int, default=2, help="suspension exponent (default 2)")
    p.add_argument("--side", choices=tuple(SIDE_COEFFS), default="fg")
    p.add_argument("--keep-arrows", action="store_true")
    p.add_argument("--blow-down", action="store_true")
    return parser


def _shown_tree(tree: PlumbingTree, args) -> PlumbingTree:
    """``tree`` as ``plumbing`` and ``invariants`` show it: without its
    binding arrows unless --keep-arrows, then blown down on --blow-down."""
    if not getattr(args, "keep_arrows", False):
        tree = strip_decorations(tree)
    if args.blow_down:
        tree = reduce_tree(tree)
    return tree


def _check_digits(numbers: dict) -> None:
    """UnsupportedError naming the first of ``numbers`` (name -> an int, a
    Fraction, None or a tuple of those) too long for Python to print."""
    limit = int_max_str_digits()
    for name, value in numbers.items():
        values = value if type(value) is tuple else (value or 0,)
        count = digits(max((abs(p) for x in values for p in (x.numerator, x.denominator)),
                           default=0))
        if limit and count > limit:
            raise UnsupportedError(f"{name}: an integer of {count} digits, more than "
                                   f"the {limit} that Python converts to text")


def _tree_output(tree, fmt: str) -> str:
    """``tree`` in ``fmt``; a number too long to print is named by its field."""
    try:
        if fmt == "dot":
            return to_dot(tree)
        return render_graph_text(tree) if fmt == "text" else to_json(tree) + "\n"
    except ValueError:  # a number too long to print, named here
        _check_digits({f"field {name!r} in {f.name}[{i}]": value
                       for f in fields(tree) for i, x in enumerate(getattr(tree, f.name))
                       for name, value in x._asdict().items()
                       if type(value) in (int, Fraction)})
        raise


def _invariants_output(form: dict, fmt: str) -> str:
    try:
        K = [*map(str, form["K"])]
        data = {**form, "K": K, "K_squared": str(form["K_squared"])}
        if fmt == "json":
            return dumps({"schema": "susplink/invariants:1", **data}) + "\n"
        data["K"] = "(" + ", ".join(K) + ")"
        return "".join(f"{key} = {value}\n" for key, value in data.items())
    except ValueError:  # a number too long to print, named here
        _check_digits({name: form[name] for name in ("determinant", "K_squared", "K")})
        raise


# Stage subcommand -> (input document type, its stage on (input, args)).
# Each stage function is looked up by name when it runs, so rebinding a
# module attribute (as a tracer does) reaches these calls too.
_STAGE_COMMANDS = {
    "step1": (ResolutionGraph, lambda g, args: subtract_and_normalize(g, args.side)),
    "nielsen": (MultPlumbing, lambda g, args: build_nielsen(g)),
    "power": (NielsenGraph, lambda g, args: power_nielsen(g, args.r)),
    "waldhausen": (NielsenGraph, lambda g, args: nielsen_to_waldhausen(g)),
    "plumbing": (WaldhausenGraph, lambda g, args: _shown_tree(synth_plumbing(g), args)),
    "invariants": (PlumbingTree, lambda g, args: form_invariants(_shown_tree(g, args))),
}


def _cmd_stage(args) -> str:
    want, run = _STAGE_COMMANDS[args.command]
    result = _stage(args.command)(run, _load(args.input, want, args.command), args)
    if args.command == "invariants":
        return _invariants_output(result, args.format)
    return _tree_output(result, args.format)


def _run_one_pipeline(path: str, args) -> str:
    graph = _load(path, ResolutionGraph, "parse")
    result = run_pipeline(graph, args.r, side=args.side,
                          keep_arrows=args.keep_arrows, reduce=args.blow_down)
    if args.format == "dot":
        return _tree_output(result.blowdown or result.plumbing, "dot")
    try:
        if args.format == "json":
            return render_json(result) + "\n"
        return render_text(result)
    except ValueError:  # a number too long to print, named here
        _check_digits(result.obstructions._asdict())
        raise


def _cmd_pipeline(args) -> str:
    if len(args.inputs) == 1:
        return _run_one_pipeline(args.inputs[0], args)
    return "".join(f"== {path}\n{_run_one_pipeline(path, args)}"
                   for path in args.inputs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = _cmd_pipeline if args.command == "pipeline" else _cmd_stage
        _emit(command(args), args.output)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except PlumbingError as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
