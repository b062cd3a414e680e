import re
import shlex
from pathlib import Path

from l2limits.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_at_a_glance_runs():
    exec(compile(_block("Library at a glance", "python"), "README.md", "exec"),
         {})


def test_cli_examples_parse():
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "l2limits"
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
