"""The diagnostic script runs end to end on a small horizon."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "construction_diagnostics.py"


def load_script():
    spec = importlib.util.spec_from_file_location("construction_diagnostics", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_construction_diagnostics_prints_every_block(capsys):
    module = load_script()
    assert module.main(["--log2-T", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for header in ("== walk ==", "== machine ==", "== info =="):
        assert header in out


@pytest.mark.parametrize("argv", [["--log2-T", "1"], ["--K", "1"], ["--delta", "0"],
                                  ["--delta", "1.5"]])
def test_construction_diagnostics_rejects_bad_arguments_before_printing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        load_script().main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
