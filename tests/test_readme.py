"""The README's examples run as written, so a renamed or deleted public
name fails here instead of leaving stale docs."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from vpvlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, fence: str) -> str:
    section = README[README.index(heading):]
    match = re.search(rf"^```{fence}\n(.*?)^```$", section, re.S | re.M)
    return match.group(1)


def test_readme_library_block_runs():
    code = _block_after("## Library", "python")
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert "vpv2-s1" in out.getvalue()


def _shown_and_run(argv: list[str]) -> tuple[str, str]:
    prompt = "$ vpvlab " + " ".join(argv) + "\n"
    shown = README[README.index(prompt) + len(prompt):].split("\n\n", 1)[0] + "\n"
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return shown, out.getvalue()


def test_readme_verify2_output_is_current():
    shown, printed = _shown_and_run(["verify2", "--s", "2", "--x", "0.5", "--y", "0.3"])
    assert printed == shown


def test_readme_audit_output_is_current():
    shown, printed = _shown_and_run(["audit", "--precision", "extended:30", "--format", "csv"])
    assert printed == shown
