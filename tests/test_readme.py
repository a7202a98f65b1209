"""The README's library examples, run as a doctest, and its CLI block, run
through the command line's entry point."""

import doctest
import json
import shlex
from pathlib import Path

from vennlogic import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_cli_block(capsys):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines()
    commands = [i for i, line in enumerate(lines) if line.startswith("vennlogic ")]
    codify = [i for i in commands if lines[i].startswith("vennlogic codify ")]
    assert commands and len(codify) == 1
    for i in commands:
        rc = cli.main(shlex.split(lines[i])[1:])
        out, err = capsys.readouterr()
        assert rc == 0, (lines[i], err)
        if i in codify:
            # the output is spelled out in the two comment lines below; the
            # CLI prints it on one line with json.dumps' separators, in the
            # comment's key order
            comment = "".join(line.removeprefix("#") for line in lines[i + 1 : i + 3])
            assert out == json.dumps(json.loads(comment), ensure_ascii=False) + "\n"
