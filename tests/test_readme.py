"""README's CLI block runs as written: every `vmflow` line exits 0."""
import re
import shlex
from pathlib import Path

from vmflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def _cli_lines():
    """The commands of the sh block that holds `vmflow gen-data`, with
    backslash continuations joined and comments dropped."""
    block = next(b for b in _blocks("sh") if "vmflow gen-data" in b)
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    (run_json,) = [b for b in _blocks("json") if '"variant"' in b]
    (tmp_path / "run.json").write_text(run_json)
    monkeypatch.chdir(tmp_path)  # the lines use relative paths; mask writes mask.*
    lines = _cli_lines()
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "vmflow", line
        if argv[1] == "train":
            argv += ["--set", "epochs=1"]  # the documented epochs, cut to keep the test fast
        assert main(argv[1:]) == 0, line
