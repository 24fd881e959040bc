"""The CLI's help and usage-error text is pinned.

A SHA-256 over what ``main`` writes (stdout, stderr and exit code) for the
top-level help, every subcommand's help and the usage errors must stay fixed,
so a change to how the parser is built cannot change a byte a user sees.
Help text wraps at the terminal width, so ``COLUMNS`` is fixed; argparse's
layout differs between Python versions, and the digest was recorded on 3.11.
"""

import hashlib
import sys

import pytest

from pseudocube.cli import main

HELP_SHA256 = "0d6b6a53b6b3ed9c485dd0082e2f549e0f880bf13a2b37fa1419a8419cf14c97"

SUBCOMMANDS = ("dim", "bound", "gen", "oig", "cert", "learn", "sweep", "verify")

CASES = ([[], ["--help"], ["-h", "dim"], ["--version"], ["--vers"]]
         + [[name, "--help"] for name in SUBCOMMANDS]
         + [["bogus"], ["dim"], ["dim", "ds"], ["dim", "ds", "--bogus", "x"],
            ["dim", "ds", "--input", "H.cls", "--bogus", "x"],
            ["bound", "ds", "--n", "3"], ["learn", "loo", "--jobs", "0"],
            ["oig", "shift", "--input", "H.cls", "--format", "json"],
            ["dim", "ds", "--input", "no-such-file.cls"]])


def _record(capsys, argv) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return f"argv={argv} code={code}\n--stdout--\n{captured.out}--stderr--\n{captured.err}"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse help layout is version specific; recorded on 3.11")
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H.cls").write_text("n=2 k=2\n0 0\n0 1\n1 0\n")
    sha = hashlib.sha256()
    for argv in CASES:
        sha.update(_record(capsys, argv).encode("utf-8"))
    assert sha.hexdigest() == HELP_SHA256
