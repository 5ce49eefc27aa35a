"""The scripts under scripts/ run end to end."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_examples(capsys):
    spec = importlib.util.spec_from_file_location(
        "run_examples", SCRIPTS / "run_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    out = capsys.readouterr().out
    sanity = out.split("== r = 1 sanity", 1)[1].splitlines()[1:]
    lines = [line for line in sanity if line.strip()]
    assert len(lines) == 3
    assert all(line.endswith("|det| after blow-down = 1") for line in lines)
