import json
import re
from fractions import Fraction
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


def test_parameter_table_lists_each_params_row():
    """The README's parameter table names exactly the keys of each ``cli.PARAMS``
    row, and each default and least value it shows is the row's."""
    from tamecert.cli import PARAMS, REQUIRED

    table = README.read_text().split("| row | keys and defaults |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `([\w/-]+)` \| (.*) \|$", table, re.MULTILINE))
    assert set(rows) == set(PARAMS)
    entry = re.compile(r"`(\w+)` (?:= `([^`]*)`|\((required|ignored))")
    for name, text in rows.items():
        shown = {key: default or note for key, default, note in entry.findall(text)}
        assert list(shown) == list(PARAMS[name]), name
        starts = [m.start() for m in entry.finditer(text)] + [len(text)]
        for (key, (_, _, *least)), start, stop in zip(PARAMS[name].items(), starts, starts[1:]):
            assert re.findall(r"at least (\d+)", text[start:stop]) == list(map(str, least)), key
        for key, (default, *_) in PARAMS[name].items():
            if shown[key] == "required":
                assert default is REQUIRED, (name, key)
            elif shown[key] == "ignored":
                assert default is None, (name, key)
            else:
                value = json.loads(shown[key])
                assert value == (str(default) if isinstance(default, Fraction) else default), key
