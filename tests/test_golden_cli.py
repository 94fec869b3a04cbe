"""Golden-output test: exact bytes of 96 ``sdma-lab`` calls.

For every scheme at alpha in {3, 4} the frozen calls are an antenna sweep
over 2..32 as CSV and as JSON, a noisy sweep (SNR 20 dB at D = 1) over 2..16
as JSON, and ``analytic`` with each of the three methods at the scheme's
``default_config(8)``. Each entry stores the argv, the exit code, the text
printed to stdout and the text of the written output file, so a failure
shows which cell moved. Stderr is not frozen: it carries library warnings
whose text and repetition depend on the interpreter, not on the program.

Regenerate the frozen file (only after a deliberate output change, which
must be stated with its reason) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

ALPHAS = ("3", "4")
SCHEMES = ("dpc-mimo-ub", "dpc-miso", "zf-multi", "zf-rxzf", "zf-antsel",
           "zf-miso", "bd-ub", "siso")
# default_config(8) of each scheme, as (M, N, K)
CONFIG_AT_8 = {
    "dpc-mimo-ub": (8, 8, 8), "dpc-miso": (8, 1, 8), "zf-multi": (16, 2, 8),
    "zf-rxzf": (8, 16, 1), "zf-antsel": (8, 8, 8), "zf-miso": (8, 1, 8),
    "bd-ub": (16, 8, 2), "siso": (1, 1, 1),
}
METHODS = ("small-eps", "upper-bound", "sandwich")


def golden_calls() -> list[tuple[str, list[str]]]:
    """(id, argv) of every frozen call; the argv writes to ``out.<fmt>``."""
    calls = []
    for alpha in ALPHAS:
        for name in SCHEMES:
            base = ["sweep", "--scheme", name, "--alpha", alpha]
            for fmt in ("csv", "json"):
                calls.append((f"sweep-{fmt}-{name}-a{alpha}",
                              base + ["--grid", "2,4,8,16,32", "--format", fmt]))
            calls.append((f"noisy-sweep-json-{name}-a{alpha}",
                          base + ["--grid", "2,4,8,16", "--snr-db", "20",
                                  "--distance", "1", "--format", "json"]))
            m, n, k = CONFIG_AT_8[name]
            for method in METHODS:
                calls.append((f"analytic-{method}-{name}-a{alpha}",
                              ["analytic", "--scheme", name, "--alpha", alpha,
                               "--m", str(m), "--n", str(n), "--k", str(k),
                               "--method", method, "--format", "json"]))
    return [(cid, argv + ["--out", f"out.{argv[argv.index('--format') + 1]}"])
            for cid, argv in calls]


def run_call(argv: list[str]) -> dict:
    """Run one call in the current directory; its exit code, stdout and output."""
    from sdma_capacity import cli

    out_path = Path(argv[-1])
    if out_path.exists():
        out_path.unlink()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    output = out_path.read_text() if out_path.exists() else None
    return {"rc": rc, "stdout": stdout.getvalue(), "output": output}


def _load_golden() -> dict:
    return {e["id"]: e for e in json.loads(GOLDEN_PATH.read_text())}


GOLDEN = _load_golden() if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_call():
    assert sorted(GOLDEN) == sorted(cid for cid, _ in golden_calls())
    assert len(GOLDEN) == 96


def _diff(label: str, want: str | None, got: str | None) -> str:
    if want == got:
        return ""
    lines = difflib.unified_diff((want or "").splitlines(), (got or "").splitlines(),
                                 f"frozen {label}", f"current {label}", lineterm="")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("call_id,argv", golden_calls(), ids=[c for c, _ in golden_calls()])
def test_golden_output(call_id, argv, tmp_path, monkeypatch):
    want = GOLDEN[call_id]
    assert want["argv"] == argv
    monkeypatch.chdir(tmp_path)
    got = run_call(argv)
    report = "".join(_diff(key, want[key], got[key])
                     for key in ("stdout", "output"))
    assert got["rc"] == want["rc"], f"exit code {got['rc']} != frozen {want['rc']}\n{report}"
    assert not report, report


def freeze() -> None:
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for cid, argv in golden_calls():
                entries.append({"id": cid, "argv": argv, **run_call(argv)})
        finally:
            os.chdir(cwd)
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"froze {len(entries)} calls to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    freeze()
