"""Every report shape of the CLI is pinned.

A SHA-256 over argv, exit code and stdout of one invocation of each report
shape must stay fixed, so a change to how ``cli`` frames its reports (the
``# tool=pseudocube`` header with the resolved parameters, or the JSON
envelope) cannot change a byte a user sees.  The list covers every
subcommand in text and, where it takes one, in JSON, the outputs that carry
no header (``gen``, ``oig shift`` and ``fixpoint``, ``cert replay`` to
stdout), and the files that ``--output`` writes, whose bytes are hashed
after the run.  It runs from a temporary working directory with relative
file names, so the headers that echo them do not depend on where the test
runs.  No case is a usage error, so nothing depends on argparse's layout.
"""

import hashlib

from pseudocube.cli import main

REPORTS_SHA256 = "332cfc1a35d4d19760d0a8dfbfbfa0a6748a9d9d01683f7b3726fe64e2863f96"

H3 = "n=3 k=3\n0 0 0\n0 1 0\n1 0 0\n1 1 1\n2 2 1\n0 2 2\n2 0 2\n"
OTHER = "n=3 k=3\n0 0 0\n0 1 0\n1 0 0\n"

# (argv, file that the run writes, or None)
CASES = [
    ("dim ds --input H3.cls", None),
    ("dim ds --input H3.cls --format json", None),
    ("dim nat --input H3.cls --ell 2", None),
    ("dim nat --input H3.cls --format json", None),
    ("dim exp --input H3.cls", None),
    ("dim exp --input H3.cls --ell 2 --format json", None),
    ("dim graph --input H3.cls", None),
    ("dim graph --input H3.cls --format json", None),
    ("bound ds --n 4 --k 3 --ell 1 --d 2", None),
    ("bound ds --n 4 --k 3 --ell 2 --d 1 --format json", None),
    ("bound nat --n 4 --k 3 --ell 1 --d 2", None),
    ("bound nat --n 4 --k 3 --ell 1 --d 2 --format json", None),
    ("gen extremal --n 3 --k 3 --ell 1 --d 1", None),
    ("gen extremal --n 3 --k 3 --ell 1 --d 1 --format json", None),
    ("gen extremal --n 3 --k 3 --ell 2 --d 1 --output ext.cls", "ext.cls"),
    ("gen random --n 3 --k 3 --density 0.3 --seed 4", None),
    ("gen random --n 3 --k 3 --density 0.3 --seed 4 --format json", None),
    ("gen random --n 3 --k 3 --density 0.3 --seed 4 --format json --output rnd.json",
     "rnd.json"),
    ("oig stats --input H3.cls", None),
    ("oig stats --input H3.cls --ell 2 --format json", None),
    ("oig shift --input H3.cls --dir 1", None),
    ("oig fixpoint --input H3.cls", None),
    ("oig density --input OTHER.cls", None),
    ("oig orient --input H3.cls", None),
    ("cert span --input H3.cls", None),
    ("cert span --input H3.cls --d 2", None),
    ("cert replay --input H3.cls", None),
    ("cert replay --input H3.cls --output H3.cert", "H3.cert"),
    ("cert verify --cert H3.cert", None),
    ("cert verify --cert H3.cert --input OTHER.cls", None),
    ("learn loo --input H3.cls --m 6 --trials 30 --seed 2", None),
    ("learn loo --input H3.cls --m 6 --trials 30 --seed 2 --format json", None),
    ("learn loo --input H3.cls --m 6 --trials 12 --seed 2 --format json --verbose", None),
    ("learn pac --input H3.cls --epsilon 0.5 --delta 0.4 --m 1600 --seed 3", None),
    ("learn pac --input H3.cls --epsilon 0.5 --delta 0.4 --m 1600 --seed 3 --format json", None),
    ("learn uc --input H3.cls --m 10 --trials 10 --seed 5", None),
    ("sweep exhaustive --n 2 --k 2", None),
    ("sweep random --n 3 --k 3 --ell 2 --count 4 --seed 5", None),
    ("verify sauer --n 2 --k 2", None),
    ("verify sauer --input H3.cls --ell 2", None),
    ("verify shiftlaws --n 3 --k 3 --count 5", None),
    ("verify corollary --n 3 --k 3 --count 5", None),
    ("verify appendix --n 2 --k 2", None),
]


def _record(capsys, tmp_path, argv, written) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    record = f"argv={argv} code={code}\n--stdout--\n{out}"
    if written is not None:
        record += f"--{written}--\n{(tmp_path / written).read_text(encoding='utf-8')}"
    return record


def test_every_report_shape_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H3.cls").write_text(H3)
    (tmp_path / "OTHER.cls").write_text(OTHER)
    sha = hashlib.sha256()
    for case, written in CASES:
        sha.update(_record(capsys, tmp_path, case.split(), written).encode("utf-8"))
    assert sha.hexdigest() == REPORTS_SHA256
