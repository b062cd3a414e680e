import argparse
import re
import shlex
from pathlib import Path

import l2limits
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


def _options(parser) -> set:
    """Every option string of ``parser`` and of its subcommands, nested."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _options(sub)
    return found


def test_cli_section_names_only_real_options():
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    flags = {flag for span in re.findall(r"`([^`]+)`", prose)
             for flag in re.findall(r"--[a-z][\w-]*", span)}
    assert {"--eps", "--rmax"} <= flags  # the spans were found
    options = _options(build_parser())
    assert flags <= options, flags - options


def test_library_at_a_glance_names_every_public_name():
    # the module list names each public name in a span of its own
    section = README.split("\n## Library at a glance\n", 1)[1]
    prose = re.sub(r"```.*?```", "", section.split("\n## ", 1)[0], flags=re.S)
    spans = set(re.findall(r"`([^`]+)`", prose))
    missing = [name for name in l2limits.__all__
               if name != "__version__" and name not in spans]
    assert missing == []
