"""The example scripts under scripts/ run end to end on small arguments."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, last_line", [
    ("recovery_benchmark.py", ["--contig-len", "3000", "--per-group-n", "4",
                               "--predict-lens", "5,10"], "(an order-0 model is the"),
    ("cre_design_demo.py", ["--n", "40", "--k", "2"], "120\t"),
    ("prefix_conditioning.py", ["--n-train", "40", "--n-generate", "5", "--length", "30",
                                "--order", "2"], "  <high>  GC fraction"),
], ids=["recovery_benchmark", "cre_design_demo", "prefix_conditioning"])
def test_script_runs(monkeypatch, capsys, script, args, last_line):
    monkeypatch.setattr(sys, "argv", [script] + args)
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith(last_line)
