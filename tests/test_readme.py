import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_snippet_runs():
    """The library-tour code block in the README must keep working."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README lost its python example"
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)  # noqa: S102
    element = scope["element"]
    assert element.backend == "exact"
    from tamecert import envelope, rank

    cls = envelope.classify(element)
    assert cls.tag == "one_sided" and cls.params["side"] == "minus"
    assert rank.beta_rank(element, 0.01).beta == 2


def test_cli_synopsis_matches_parser(capsys):
    """Each ``tamecert <verb>`` line of the command-line synopsis lists the verb's flags."""
    from tamecert.cli import main

    section = README.read_text().split("## Command line", 1)[1]
    synopsis = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in synopsis.splitlines() if line.startswith("tamecert ")]
    assert lines, "README lost its command-line synopsis"
    flag = re.compile(r"(?<![\w-])--[a-z][\w-]*")
    for line in lines:
        verb = line.split()[1]
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        shown = set(flag.findall(capsys.readouterr().out)) - {"--help"}
        assert set(flag.findall(line)) == shown, line
