"""The diagnostic script runs end to end on a small horizon."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "construction_diagnostics.py"


def test_construction_diagnostics_prints_every_block(capsys):
    spec = importlib.util.spec_from_file_location("construction_diagnostics", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--log2-T", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for header in ("== walk ==", "== machine ==", "== info =="):
        assert header in out
