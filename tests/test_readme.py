"""The README examples run as written and show the values they claim.

Every ```python block of README.md is executed in order in one namespace,
as a reader pasting them into one session would; the assertions repeat
the values the README comments show.  Every `charplab` line of the
command-line block runs from the repository root, with its output paths
moved into a temporary directory, and exits 0.
"""

import pathlib
import re
import shlex
from fractions import Fraction

import charplab.cli as cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_show_their_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)

    S, A, nu, report = ns["S"], ns["A"], ns["nu"], ns["report"]
    assert [(r.e, r.q, r.length) for r in S.rows] == \
        [(1, 5, 41), (2, 25, 1041), (3, 125, 26041), (4, 625, 651041)]
    assert ns["ehk_estimate"](S).value == Fraction(130209, 78125)
    assert [r.a for r in A.rows] == [9, 209, 5209, 130209]
    assert ns["fsig_estimate"](A).value == Fraction(26041, 78125)
    assert [(r.e, r.nu) for r in nu.rows] == [(1, 5), (2, 40), (3, 285)]
    assert ns["fpt_estimate"](nu) == (Fraction(285, 343), Fraction(286, 343))
    assert report.verdicts == {"splitting-constancy": "pass",
                               "perturbed-ideal-equality": "pass"}
    assert report.thresholds == {1: 3, 2: 7}


def test_readme_command_lines_exit_zero(monkeypatch, tmp_path, capsys):
    blocks = re.findall(r"```\n((?:charplab [^\n]*\n)+)```",
                        README.read_text())
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert len(lines) == 4
    monkeypatch.chdir(README.parent)
    for line in lines:
        argv = shlex.split(line)[1:]
        for flag in ("--out", "--out-dir"):
            if flag in argv:
                at = argv.index(flag) + 1
                argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
