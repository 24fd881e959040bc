"""The reports of ``sweep`` and ``verify`` are pinned.

A SHA-256 over argv, exit code, stdout and stderr of a fixed list of
invocations must stay fixed, so a change to how the two commands build their
corpora cannot change a byte a user sees.  The list runs both ``sweep``
actions (in-process and with a worker pool), every ``verify`` target on the
source it reads, sparse random draws whose empty classes are skipped, and the
rejections of bad parameters.  Class files are named relative to a temporary
working directory, so the headers that echo them do not depend on where the
test runs.  Of an argparse rejection only the error line is kept, since the
usage lines above it differ between Python versions.
"""

import hashlib

from pseudocube.cli import main

REPORTS_SHA256 = "aa0f6791d9c2583cf607fddc9ce0d1184c12d102d87acef495f5e7dcdb42d444"

CASES = [
    # sweep, both actions
    "sweep exhaustive --n 2 --k 2",
    "sweep exhaustive --n 2 --k 3 --ell 2",
    "sweep exhaustive --n 2 --k 3 --ell 1 --jobs 2",
    "sweep exhaustive --n 1 --k 4 --ell 3",
    "sweep exhaustive --n 3 --k 2",
    "sweep random --n 3 --k 3 --ell 2 --count 12 --seed 5",
    "sweep random --n 3 --k 3 --ell 2 --count 12 --seed 5 --jobs 2",
    "sweep random --n 2 --k 3 --density 0.05 --count 30 --seed 3",
    "sweep random --n 4 --k 3 --count 0",
    # verify, every target on its source
    "verify sauer --n 2 --k 2",
    "verify sauer --n 1 --k 4",
    "verify sauer --n 3 --k 2",
    "verify sauer --input H3.cls",
    "verify sauer --input H3.cls --ell 2",
    "verify sauer --input H3.cls --ell 1 --d 1",
    "verify shiftlaws --n 3 --k 3 --count 30",
    "verify shiftlaws --n 2 --k 4 --density 0.05 --count 40 --seed 7",
    "verify corollary --n 3 --k 3 --count 20",
    "verify corollary --n 2 --k 4 --density 0.05 --count 40 --seed 7",
    "verify corollary --n 3 --k 3 --count 0",
    "verify appendix --n 2 --k 2",
    "verify appendix --n 2 --k 3 --ell 2",
    "verify appendix --n 3 --k 2",
    "verify appendix --n 1 --k 4 --ell 2",
    # rejections
    "sweep random --n 3 --k 3 --count -2",
    "sweep exhaustive --n 2 --k 2 --jobs 0",
    "sweep exhaustive --n 3 --k 3",
    "sweep random --n 20 --k 3 --count 1",
    "verify shiftlaws --n 3 --k 3 --count -1",
    "verify corollary --n 0 --count 3",
    "verify corollary --density 1.5 --count 3",
    "verify shiftlaws --k 1 --count 3",
    "verify shiftlaws --density -0.5 --count 3",
    "verify sauer --n 0",
    "verify appendix --k 1",
    "verify appendix --n 2 --k 3 --ell 0",
    "verify appendix --n 2 --k 3 --ell 3",
    "verify sauer --input H3.cls --ell 3",
    "verify sauer --input H3.cls --ell 0",
    "verify sauer --input empty.cls",
    "verify sauer --input H3.cls --d 2",
    "verify sauer --input no-such-file.cls",
    "verify sauer --n 3 --k 3",
    "verify appendix --n 3 --k 3",
    "verify shiftlaws --n 20 --k 3 --count 1",
    "verify corollary --n 20 --k 3 --count 1",
]


def _record(capsys, argv) -> str:
    usage_error = False
    try:
        code = main(argv)
    except SystemExit as exc:
        code, usage_error = exc.code, True
    captured = capsys.readouterr()
    # argparse's usage lines vary between Python versions; its error line does not
    err = captured.err.splitlines()[-1] + "\n" if usage_error else captured.err
    return f"argv={argv} code={code}\n--stdout--\n{captured.out}--stderr--\n{err}"


def test_sweep_and_verify_reports_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H3.cls").write_text("n=2 k=3\n0 0\n0 1\n1 0\n")
    (tmp_path / "empty.cls").write_text("n=2 k=3\n")
    sha = hashlib.sha256()
    for case in CASES:
        sha.update(_record(capsys, case.split()).encode("utf-8"))
    assert sha.hexdigest() == REPORTS_SHA256
