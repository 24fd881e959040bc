import argparse
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from pseudocube import __version__, load_certificate, parse_class, verify_certificate
from pseudocube import bounds, cli, dims
from pseudocube.cli import main

from oracles import all_subcommands_parser

THREE_FILE = "n=2 k=2\n0 0\n0 1\n1 0\n"


@pytest.fixture
def three(tmp_path):
    path = tmp_path / "H.cls"
    path.write_text(THREE_FILE)
    return str(path)


@pytest.fixture
def three_k3(tmp_path):
    path = tmp_path / "H3.cls"
    path.write_text("n=2 k=3\n0 0\n0 1\n1 0\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_ell_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ell must be >= 1" in captured.err


class TestDim:
    def test_ds(self, capsys, three):
        code, out = run(capsys, ["dim", "ds", "--ell", "1", "--input", three])
        assert code == 0
        assert "value=1" in out and "witness=[0]" in out

    @pytest.mark.parametrize("kind", ["ds", "nat", "exp", "graph"])
    def test_ell_below_one_is_usage_error(self, capsys, three, kind):
        assert_ell_usage_error(capsys, ["dim", kind, "--input", three, "--ell", "0"])

    def test_json_embeds_version_and_config(self, capsys, three):
        code, out = run(capsys, ["dim", "nat", "--ell", "1", "--input", three,
                                 "--format", "json"])
        obj = json.loads(out)
        assert code == 0
        assert obj["version"] == __version__
        assert obj["config"]["ell"] == 1
        assert obj["result"]["value"] == 1

    def test_graph_kind(self, capsys, three):
        code, out = run(capsys, ["dim", "graph", "--input", three])
        assert code == 0 and "value=1" in out


class TestBoundGen:
    def test_bound(self, capsys):
        code, out = run(capsys, ["bound", "ds", "--n", "2", "--k", "3",
                                 "--ell", "1", "--d", "1"])
        assert code == 0 and "value=5" in out

    def test_gen_extremal_round_trips(self, capsys):
        code, out = run(capsys, ["gen", "extremal", "--n", "2", "--k", "3",
                                 "--ell", "1", "--d", "1"])
        assert code == 0
        h = parse_class(out)
        assert len(h) == 5

    def test_gen_random_deterministic(self, capsys):
        a = run(capsys, ["gen", "random", "--n", "2", "--k", "3", "--seed", "7"])
        b = run(capsys, ["gen", "random", "--n", "2", "--k", "3", "--seed", "7"])
        assert a == b

    def test_gen_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "gen.cls"
        code, _ = run(capsys, ["gen", "extremal", "--n", "2", "--k", "2",
                               "--ell", "1", "--d", "1", "--output", str(out_path)])
        assert code == 0
        assert len(parse_class(out_path.read_text())) == 3


class TestOig:
    def test_stats(self, capsys, three):
        code, out = run(capsys, ["oig", "stats", "--input", three, "--ell", "1"])
        assert code == 0 and "savd=2/3" in out and "avd=4/3" in out

    def test_orient(self, capsys, three):
        code, out = run(capsys, ["oig", "orient", "--input", three, "--ell", "1"])
        assert code == 0 and "cstar=1" in out and "dir=0 fixed=" in out

    def test_fixpoint(self, capsys, tmp_path):
        path = tmp_path / "G.cls"
        path.write_text("n=2 k=2\n1 0\n1 1\n")
        code, out = run(capsys, ["oig", "fixpoint", "--input", str(path)])
        assert code == 0 and "0 0" in out and "0 1" in out

    def test_density(self, capsys, three):
        code, out = run(capsys, ["oig", "density", "--input", three, "--ell", "1"])
        assert code == 0 and "max_density=2/3" in out

    @pytest.mark.parametrize("action,ell", [("stats", "0"), ("density", "-1"),
                                            ("orient", "0")])
    def test_ell_below_one_is_usage_error(self, capsys, three, action, ell):
        assert_ell_usage_error(capsys, ["oig", action, "--input", three, "--ell", ell])


class TestCert:
    def test_span(self, capsys, three):
        code, out = run(capsys, ["cert", "span", "--input", three, "--ell", "1"])
        assert code == 0 and "spans=True" in out

    def test_replay_then_verify(self, capsys, three, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _ = run(capsys, ["cert", "replay", "--input", three, "--ell", "1",
                               "--output", str(cert_path)])
        assert code == 0
        code, out = run(capsys, ["cert", "verify", "--cert", str(cert_path)])
        assert code == 0 and "ok=True" in out

    def test_replay_and_verify_do_not_enumerate_the_basis(self, capsys, tmp_path):
        # the bounded-high basis at n=52, k=2, ell=1, d=6 has 23,251,684
        # monomials, above the enumeration cap; membership is checked per term
        n = 52
        path = tmp_path / "sparse.cls"
        rows = ((0,) * n, (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2))
        path.write_text(f"n={n} k=2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        cert_path = tmp_path / "cert.json"
        code, _ = run(capsys, ["cert", "replay", "--input", str(path), "--ell", "1",
                               "--d", "6", "--output", str(cert_path)])
        assert code == 0
        code, out = run(capsys, ["cert", "verify", "--cert", str(cert_path)])
        assert code == 0 and "ok=True" in out

    def test_verify_rejects_foreign_class(self, capsys, three, three_k3, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, ["cert", "replay", "--input", three, "--ell", "1",
                     "--output", str(cert_path)])
        other = tmp_path / "other.cls"
        other.write_text("n=2 k=2\n0 0\n1 1\n")
        # three_k3 has the same patterns at a larger k: the certificate proves
        # the bound there too, so only the class comparison rejects it
        cert, _ = load_certificate(cert_path.read_text())
        assert verify_certificate(cert, parse_class(Path(three_k3).read_text())).ok
        for foreign in (str(other), three_k3):
            code, out = run(capsys, ["cert", "verify", "--cert", str(cert_path),
                                     "--input", foreign])
            lines = out.splitlines()
            assert code == 1 and lines[0].startswith("# tool=pseudocube version=")
            assert f"input={foreign}" in lines[0]
            assert lines[1:] == ["ok=False",
                                 "failure: certificate class differs from --input class"]


    @pytest.mark.parametrize("action", ["span", "replay"])
    def test_missing_input_is_usage_error(self, capsys, action):
        code = main(["cert", action, "--ell", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cert {action} needs --input\n"

    @pytest.mark.parametrize("action", ["span", "replay"])
    @pytest.mark.parametrize("d", [None, "1"])
    @pytest.mark.parametrize("ell", ["5", "0"])
    def test_ell_outside_one_to_k_is_the_only_message(self, capsys, three_k3, action, d, ell):
        # checked before ds_dimension, which warns about an ell past k
        argv = ["cert", action, "--input", three_k3, "--ell", ell]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + (["--d", d] if d else []))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: need 1 <= ell <= k, got ell={ell}, k=3\n"


class TestCertBelowDimension:
    """A --d below the DS dimension is an input error (exit 2)."""

    def test_replay_is_usage_error(self, capsys, three_k3):
        code = main(["cert", "replay", "--input", three_k3, "--ell", "1", "--d", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: no deficient pattern")

    def test_span_is_usage_error(self, capsys, three_k3):
        code = main(["cert", "span", "--input", three_k3, "--ell", "1", "--d", "0"])
        captured = capsys.readouterr()
        assert code == 2 and "below the DS dimension 1" in captured.err


class TestCertVerifyInput:
    """``cert verify`` on hand-written files: exit 1 only for a certificate
    that fails verification, exit 2 for anything malformed."""

    # ordering-only certificate for {(0,0), (1,0)} claiming d=0, where the
    # bound is 1 and the DS dimension is 1: every peeling step is valid
    D0 = {"class": {"n": 2, "k": 2, "patterns": [[0, 0], [1, 0]]}, "ell": 1, "d": 0,
          "ordering": [0, 1],
          "witnesses": [{"direction": 1, "values": []}, {"direction": 0, "values": []}]}

    def verify(self, capsys, tmp_path, obj):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code = main(["cert", "verify", "--cert", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_class_above_the_bound_fails(self, capsys, tmp_path):
        code, out, _ = self.verify(capsys, tmp_path, self.D0)
        assert code == 1 and "ok=False" in out
        assert "exceeds the bound 1" in out

    def test_same_order_at_the_dimension_passes(self, capsys, tmp_path):
        code, out, _ = self.verify(capsys, tmp_path, {**self.D0, "d": 1})
        assert code == 0 and "ok=True" in out

    MALFORMED = {"index past the class": {**D0, "ordering": [0, 5]},
                 "negative index": {**D0, "ordering": [-2, -1]},
                 "missing witnesses": {k: v for k, v in D0.items() if k != "witnesses"}}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_certificate_is_usage_error(self, capsys, tmp_path, case):
        code, out, err = self.verify(capsys, tmp_path, self.MALFORMED[case])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_missing_cert_option_is_usage_error(self, capsys):
        assert main(["cert", "verify"]) == 2

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("[" * 200_000)
        code = main(["cert", "verify", "--cert", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "nested too deeply" in captured.err

    @pytest.mark.parametrize("text, where", [("n=2 k=2\n0 0\n", "line 1 column 1"),
                                             ('{"class": 1,\n "ell": }', "line 2 column 9")])
    def test_non_json_file_names_the_certificate_and_the_position(self, capsys, tmp_path,
                                                                  text, where):
        path = tmp_path / "cert.json"
        path.write_text(text)
        code = main(["cert", "verify", "--cert", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: invalid certificate JSON: Expecting value at {where}\n"

    def test_boolean_label_in_embedded_class_is_usage_error(self, capsys, tmp_path):
        cls = {"n": 2, "k": 2, "patterns": [[0, 0], [True, 0]]}
        code, out, err = self.verify(capsys, tmp_path, {**self.D0, "d": 1, "class": cls})
        assert code == 2 and out == ""
        assert "label True out of range" in err

    def test_csv_format_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "ds", "--n", "2", "--k", "3", "--ell", "1", "--d", "1",
                  "--format", "csv"])
        assert exc.value.code == 2


class TestLearn:
    def test_loo_pass(self, capsys, tmp_path):
        path = tmp_path / "C.cls"
        from pseudocube import extremal_class, serialize_class
        path.write_text(serialize_class(extremal_class(3, 3, 1, 1)))
        code, out = run(capsys, ["learn", "loo", "--input", str(path),
                                 "--ell", "1", "--m", "40", "--trials", "100",
                                 "--seed", "5"])
        assert code == 0
        assert "empirical_error,bound,pass" in out.splitlines()[1]

    @pytest.mark.parametrize("weights", ["1,inf,1", "1,-inf,1", "1,nan,1"])
    def test_non_finite_weight_is_usage_error(self, capsys, tmp_path, weights):
        path = tmp_path / "C.cls"
        from pseudocube import extremal_class, serialize_class
        path.write_text(serialize_class(extremal_class(3, 3, 1, 1)))
        code = main(["learn", "loo", "--input", str(path), "--weights", weights,
                     "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "weights must be finite" in captured.err

    def test_sample_support_loo_passes(self, capsys, tmp_path):
        # about 2.6% of the test instances are unseen at m=20, n=6
        path = tmp_path / "E6.cls"
        from pseudocube import extremal_class, serialize_class
        path.write_text(serialize_class(extremal_class(6, 3, 1, 1)))
        code, out = run(capsys, ["learn", "loo", "--provider", "sample-support",
                                 "--input", str(path), "--m", "20", "--trials", "1000",
                                 "--seed", "1"])
        assert code == 0
        assert out.splitlines()[2].startswith("1,1,3,20,1000,")

    def test_loo_json_reports_forced_share(self, capsys, tmp_path):
        path = tmp_path / "C.cls"
        from pseudocube import (ExperimentConfig, extremal_class, loo_experiment,
                                make_task, serialize_class)
        h = extremal_class(4, 3, 1, 1)
        path.write_text(serialize_class(h))
        code, out = run(capsys, ["learn", "loo", "--input", str(path), "--m", "3",
                                 "--trials", "200", "--seed", "6", "--format", "json"])
        rep = loo_experiment(make_task(h, 0), ExperimentConfig(m=3, trials=200, seed=6))
        assert code == 0
        share = Fraction(json.loads(out)["result"]["forced_share"])
        assert share == Fraction(rep.forced_trials, 200) and 0 < share < 1

    def test_pac_default_m_is_the_sample_plan(self, capsys, tmp_path):
        path = tmp_path / "C.cls"
        from pseudocube import ExperimentConfig, extremal_class, make_task, serialize_class
        from pseudocube.listlearn import pac_sample_plan
        h = extremal_class(4, 3, 1, 1)
        path.write_text(serialize_class(h))
        p, chunk, val = pac_sample_plan(make_task(h, 0), ExperimentConfig(), h.k)
        assert p * chunk + val == 8215
        code, out = run(capsys, ["learn", "pac", "--input", str(path)])
        header, columns, row = out.splitlines()
        assert code == 0 and " m=8215 " in header
        assert columns == "epsilon,delta,m,test_error,population_error,chosen,pass"
        assert row.startswith("0.1,0.05,8215,") and row.endswith(",True")
        code, out = run(capsys, ["learn", "loo", "--input", str(path), "--trials", "5",
                                 "--format", "json"])
        assert code == 0 and json.loads(out)["config"]["m"] == 100

    def test_identical_invocations_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "C.cls"
        from pseudocube import extremal_class, serialize_class
        path.write_text(serialize_class(extremal_class(3, 3, 1, 1)))
        argv = ["learn", "loo", "--input", str(path), "--m", "30",
                "--trials", "50", "--seed", "12"]
        assert run(capsys, argv) == run(capsys, argv)


class TestSweepVerify:
    def test_exhaustive_sweep_shape(self, capsys):
        code, out = run(capsys, ["sweep", "exhaustive", "--n", "2", "--k", "3",
                                 "--ell", "1"])
        lines = out.splitlines()
        assert code == 0
        assert lines[1] == "id,n,k,ell,d,size,ds_bound,nat_bound,slack,holds"
        rows = lines[2:]
        assert len(rows) == 511
        assert all(row.endswith("True") for row in rows)

    def test_sweep_jobs_output_identical(self, capsys):
        # 511 rows are 8 chunks of 64, so the pool must keep the order across chunks
        a = run(capsys, ["sweep", "exhaustive", "--n", "2", "--k", "3"])
        b = run(capsys, ["sweep", "exhaustive", "--n", "2", "--k", "3",
                         "--jobs", "2"])
        assert len(a[1].splitlines()) == 2 + 511
        # headers differ only in the jobs echo
        assert a[1].splitlines()[1:] == b[1].splitlines()[1:]

    def test_sweep_random(self, capsys):
        code, out = run(capsys, ["sweep", "random", "--n", "3", "--k", "3",
                                 "--ell", "2", "--count", "25", "--seed", "5"])
        lines = out.splitlines()
        assert code == 0
        assert 0 < len(lines) - 2 <= 25
        assert all(row.endswith("True") for row in lines[2:])

    def test_verify_sauer_single_input_with_claimed_d(self, capsys, three):
        code, out = run(capsys, ["verify", "sauer", "--input", three,
                                 "--ell", "1", "--d", "1"])
        assert code == 0 and "sauer: ok" in out
        assert main(["verify", "sauer", "--input", three,
                     "--ell", "1", "--d", "2"]) == 2  # wrong claim

    def test_verify_sauer_header_reports_the_input_class(self, capsys, tmp_path):
        from pseudocube import extremal_class, serialize_class
        path = tmp_path / "E.cls"
        path.write_text(serialize_class(extremal_class(3, 3, 1, 1)))
        code, out = run(capsys, ["verify", "sauer", "--input", str(path)])
        header = out.splitlines()[0].split()
        assert code == 0 and out.splitlines()[1:] == ["sauer: ok"]
        assert "n=3" in header and "k=3" in header and "n=2" not in header

    def test_empty_class_is_parseable_but_rejected_by_dim(self, capsys, tmp_path):
        path = tmp_path / "empty.cls"
        path.write_text("n=2 k=3\n")
        assert main(["dim", "ds", "--input", str(path)]) == 2

    def test_verify_targets(self, capsys):
        for argv in (["verify", "sauer", "--n", "2", "--k", "2"],
                     ["verify", "shiftlaws", "--n", "3", "--k", "3",
                      "--count", "30"],
                     ["verify", "corollary", "--n", "3", "--k", "3",
                      "--count", "20"],
                     ["verify", "appendix", "--n", "2", "--k", "2"]):
            code, out = run(capsys, argv)
            assert code == 0, (argv, out)
            assert "failures=0" in out or "ok" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "random", "--n", "3", "--k", "3", "--count", "-2"],
    ["verify", "shiftlaws", "--n", "3", "--k", "3", "--count", "-1"],
    ["verify", "corollary", "--n", "3", "--k", "3", "--count", "-1"],
    ["sweep", "exhaustive", "--n", "2", "--k", "2", "--jobs", "0"],
    ["learn", "loo", "--m", "2", "--trials", "2", "--jobs", "0"],
    ["learn", "pac", "--jobs", "-3"],
])
def test_count_below_zero_and_jobs_below_one_are_usage_errors(capsys, three_k3, argv):
    if argv[0] == "learn":
        argv = argv + ["--input", three_k3]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "must be >= " in captured.err


@pytest.mark.parametrize("ell", ["-1", "0", "-3", "3", "7"])
def test_verify_appendix_rejects_ell_outside_one_to_k(capsys, ell):
    code = main(["verify", "appendix", "--n", "2", "--k", "3", "--ell", ell])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"need 1 <= ell < k, got ell={ell}, k=3" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "corollary", "--n", "0", "--count", "3"], "need n >= 1 and k >= 2, got n=0 k=3"),
    (["verify", "corollary", "--density", "1.5", "--count", "3"],
     "density must lie in [0,1], got 1.5"),
    (["verify", "shiftlaws", "--k", "1", "--count", "3"], "need n >= 1 and k >= 2, got n=2 k=1"),
    (["verify", "shiftlaws", "--density", "-0.5", "--count", "3"],
     "density must lie in [0,1], got -0.5"),
    (["verify", "sauer", "--n", "0"], "need n >= 1 and k >= 2, got n=0 k=3"),
    (["verify", "appendix", "--k", "1"], "need n >= 1 and k >= 2, got n=2 k=1"),
    (["verify", "sauer", "--input", "{three_k3}", "--ell", "3"], "need 1 <= ell < k, got ell=3, k=3"),
    (["verify", "sauer", "--input", "{three_k3}", "--ell", "0"], "need 1 <= ell < k, got ell=0, k=3"),
    (["verify", "sauer", "--input", "{empty}"], "cannot verify bounds for the empty class"),
    (["verify", "sauer", "--input", "{three_k3}", "--d", "2"],
     "claimed dimension 2 differs from computed 1"),
    # --input and --d are read only by verify sauer --input, not ignored elsewhere
    (["verify", "shiftlaws", "--input", "{three_k3}"],
     "verify shiftlaws: --input is read only by verify sauer"),
    (["verify", "corollary", "--input", "{three_k3}", "--count", "3"],
     "verify corollary: --input is read only by verify sauer"),
    (["verify", "appendix", "--input", "{three_k3}"],
     "verify appendix: --input is read only by verify sauer"),
    (["verify", "sauer", "--n", "2", "--k", "2", "--d", "1"],
     "verify sauer: --d is read only by verify sauer --input"),
    # sweep checks its parameters before drawing, whatever --count is, as verify does
    (["sweep", "random", "--n", "0", "--k", "3", "--count", "0"],
     "need n >= 1 and k >= 2, got n=0 k=3"),
    (["sweep", "random", "--n", "2", "--k", "1", "--count", "0"],
     "need n >= 1 and k >= 2, got n=2 k=1"),
    (["sweep", "random", "--n", "2", "--k", "3", "--density", "1.5", "--count", "0"],
     "density must lie in [0,1], got 1.5"),
    (["sweep", "random", "--n", "2", "--k", "3", "--ell", "7", "--count", "0"],
     "need 1 <= ell < k, got ell=7, k=3"),
    (["sweep", "random", "--n", "0", "--k", "3", "--count", "2"],
     "need n >= 1 and k >= 2, got n=0 k=3"),
    (["sweep", "random", "--n", "2", "--k", "1", "--count", "2"],
     "need n >= 1 and k >= 2, got n=2 k=1"),
    (["sweep", "random", "--n", "2", "--k", "3", "--ell", "7", "--count", "2"],
     "need 1 <= ell < k, got ell=7, k=3"),
    (["sweep", "random", "--n", "2", "--k", "3", "--ell", "0", "--count", "2"],
     "need 1 <= ell < k, got ell=0, k=3"),
    (["sweep", "exhaustive", "--n", "0", "--k", "3"], "need n >= 1 and k >= 2, got n=0 k=3"),
])
def test_verify_rejects_bad_parameters_before_the_header(capsys, three_k3, tmp_path, argv,
                                                        message):
    empty = tmp_path / "empty.cls"
    empty.write_text("n=2 k=3\n")
    argv = [a.format(three_k3=three_k3, empty=empty) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_verify_sauer_bound_violation_on_one_input_exits_1(capsys, three_k3, monkeypatch):
    from pseudocube import cli
    from pseudocube.bounds import BoundReport, BoundViolation
    report = BoundReport(class_size=3, ds_bound=2, nat_bound=2, d_used=1, ell=1,
                         holds=False, slack=-1)

    def violated(h, ell, claimed_d=None):
        raise BoundViolation(report)
    monkeypatch.setattr(cli, "verify_sauer", violated)
    code = main(["verify", "sauer", "--input", three_k3])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "VERIFICATION FAILURE: size 3 exceeds bound 2" in captured.err


def _appendix_case(n, k, ell, checked, tail=None, case_id=None):
    expected = [f"appendix: checked={checked} failures=0"] + ([tail] if tail else [])
    return pytest.param(["--n", str(n), "--k", str(k), "--ell", str(ell)], expected,
                        id=case_id or f"n{n}-k{k}-ell{ell}")


# the n=2, k=3 cases keep the ids they had when they were the only ones
@pytest.mark.parametrize("argv, expected", [
    _appendix_case(2, 3, 1, 1349, "largest_peelable_size_at_ell=5 turan_scale=5.19615",
                   case_id="1-largest_peelable_size_at_ell=5 turan_scale=5.19615"),
    _appendix_case(2, 3, 2, 1349, "largest_peelable_size_at_ell=8 turan_scale=6.24025",
                   case_id="2-largest_peelable_size_at_ell=8 turan_scale=6.24025"),
    _appendix_case(3, 2, 1, 124),
    _appendix_case(1, 4, 2, 15),
    _appendix_case(2, 2, 1, 29, "largest_peelable_size_at_ell=3 turan_scale=2.82843"),
])
def test_verify_appendix_in_range_ell(capsys, argv, expected):
    code, out = run(capsys, ["verify", "appendix"] + argv)
    assert code == 0
    assert out.splitlines()[1:] == expected


def test_verify_appendix_computes_each_dimension_once(capsys, monkeypatch):
    calls = []

    def counted(h, ell):
        calls.append((h, ell))
        return dims.ds_dimension(h, ell)

    for module in (cli, bounds):
        monkeypatch.setattr(module, "ds_dimension", counted)
    code, out = run(capsys, ["verify", "appendix", "--n", "2", "--k", "3"])
    assert code == 0 and "appendix: checked=1349 failures=0" in out
    # one call per nonempty class of {0,1,2}^2
    assert len(calls) == len(set(calls)) == 2 ** 9 - 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "sauer", "--n", "3", "--k", "3"], "2^(k^n) = 2^27 exceeds cap 16777216"),
    (["verify", "appendix", "--n", "3", "--k", "3"], "2^(k^n) = 2^27 exceeds cap 16777216"),
    (["verify", "shiftlaws", "--n", "20", "--k", "3", "--count", "1"],
     "k^n = 3486784401 exceeds enumeration cap 16777216"),
    (["verify", "corollary", "--n", "20", "--k", "3", "--count", "1"],
     "k^n = 3486784401 exceeds enumeration cap 16777216"),
])
def test_verify_rejects_an_oversized_grid_before_the_header(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_zero_count_is_accepted(capsys):
    code, out = run(capsys, ["verify", "corollary", "--n", "3", "--k", "3", "--count", "0"])
    assert code == 0 and "checked=0" in out


@pytest.mark.parametrize("argv", [["oig", "shift"], ["oig", "fixpoint"], ["oig", "density"],
                                  ["oig", "orient"], ["learn", "uc"]])
def test_text_only_action_rejects_json_format(capsys, three_k3, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", three_k3, "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--format json is not supported" in captured.err


class TestCrossProcessDeterminism:
    def test_reports_byte_identical_across_processes(self, tmp_path):
        import subprocess, sys
        path = tmp_path / "C.cls"
        from pseudocube import extremal_class, serialize_class
        path.write_text(serialize_class(extremal_class(3, 3, 1, 1)))
        argv = [sys.executable, "-m", "pseudocube.cli", "learn", "loo",
                "--input", str(path), "--m", "25", "--trials", "60",
                "--seed", "9", "--format", "json"]
        a = subprocess.run(argv, capture_output=True, check=True).stdout
        b = subprocess.run(argv, capture_output=True, check=True).stdout
        assert a == b
        argv2 = [sys.executable, "-m", "pseudocube.cli", "oig", "orient",
                 "--input", str(path), "--ell", "1"]
        c = subprocess.run(argv2, capture_output=True, check=True).stdout
        d = subprocess.run(argv2, capture_output=True, check=True).stdout
        assert c == d


class TestModuleEntryPoint:
    """``python -m pseudocube`` exits with the code ``main`` returns."""

    @pytest.mark.parametrize("argv", [["--help"], ["oig", "stats", "--input", "H"],
                                      ["cert", "replay", "--input", "H", "--d", "0"]])
    def test_exit_code_matches_main(self, capsys, three_k3, argv):
        import subprocess, sys
        argv = [three_k3 if a == "H" else a for a in argv]
        try:
            expected = main(argv)
        except SystemExit as exc:
            expected = exc.code
        capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "pseudocube"] + argv,
                              capture_output=True)
        assert proc.returncode == expected


class TestFreshProcess:
    """The subcommands that use ``oig``, ``polycert`` and ``listlearn`` import
    them inside their own functions.  This process has loaded every module
    already, so only a new interpreter shows a missing import: each case
    runs ``python -m pseudocube`` and must exit 0 with the output of ``main``."""

    CASES = [["oig", "stats", "--input", "H"], ["oig", "shift", "--input", "H", "--dir", "1"],
             ["oig", "fixpoint", "--input", "H"], ["oig", "orient", "--input", "H"],
             ["oig", "density", "--input", "H"], ["cert", "span", "--input", "H"],
             ["cert", "replay", "--input", "H"], ["cert", "verify", "--cert", "C"],
             ["learn", "loo", "--input", "H", "--m", "10", "--trials", "5"],
             ["learn", "pac", "--input", "H"],
             ["learn", "uc", "--input", "H", "--m", "10", "--trials", "5"],
             ["verify", "shiftlaws", "--n", "2", "--k", "3", "--count", "5"]]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv[:2]) for argv in CASES])
    def test_subcommand_runs_in_a_fresh_interpreter(self, capsys, tmp_path, three_k3, argv):
        import subprocess, sys
        cert = tmp_path / "H3.json"
        assert main(["cert", "replay", "--input", three_k3, "--output", str(cert)]) == 0
        argv = [{"H": three_k3, "C": str(cert)}.get(a, a) for a in argv]
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "pseudocube"] + argv,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected


# ``json`` is imported only where JSON is read or written (a certificate
# file, ``--format json`` and the JSON class reader and writer), and no run
# imports ``dataclasses``, which would bring ``inspect``
START_UP_FREE = ("dataclasses", "inspect", "json")


def test_importing_the_cli_leaves_multiprocessing_out():
    """Only ``sweep`` and ``learn loo`` with ``--jobs`` above 1 use
    ``multiprocessing``, only ``oig``, ``cert``, ``learn`` and ``verify
    shiftlaws`` use ``oig``, ``polycert``, ``listlearn`` or ``fractions``,
    no command uses ``dataclasses`` or ``inspect``, and only JSON input and
    output uses ``json``, so a fresh import of the command line, which every
    run pays, loads none of them.  Modules the bare
    interpreter had loaded before the import, by a ``site`` hook say, are
    not counted."""
    import subprocess, sys
    deferred = ["multiprocessing", "pseudocube.oig", "pseudocube.polycert",
                "pseudocube.listlearn", "fractions", *START_UP_FREE]
    proc = subprocess.run([sys.executable, "-c", "import sys; bare = set(sys.modules); "
                           "import pseudocube.cli; "
                           f"print([m for m in {deferred!r} if m in set(sys.modules) - bare])"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _imported(args):
    """The exit code of a fresh interpreter run with ``args``, and every
    module it imported, start-up included, as ``-X importtime`` lists them."""
    import subprocess, sys
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter imports before running anything."""
    code, modules = _imported(["-c", "pass"])
    assert code == 0
    return modules


@pytest.mark.parametrize("argv, loaded", [
    (["dim", "ds", "--input", "H"], ()),
    (["sweep", "random", "--n", "2", "--k", "3", "--count", "5"], ()),
    (["verify", "corollary", "--n", "2", "--k", "3", "--count", "5"], ()),
    (["dim", "ds", "--input", "H", "--format", "json"], ("json",)),
    (["cert", "span", "--input", "H"], ()),
    (["cert", "verify", "--cert", "C"], ("json",)),
    (["learn", "loo", "--input", "H", "--m", "5", "--trials", "5"], ()),
    (["oig", "stats", "--input", "H"], ()),
    (["verify", "shiftlaws", "--n", "2", "--k", "3", "--count", "5"], ())],
    ids=["dim ds", "sweep random", "verify corollary", "dim ds json", "cert span",
         "cert verify", "learn loo", "oig stats", "verify shiftlaws"])
def test_no_run_loads_dataclasses_or_inspect_and_only_json_io_loads_json(three_k3, bare_modules,
                                                                         tmp_path, argv, loaded):
    cert = tmp_path / "H3.json"
    assert main(["cert", "replay", "--input", three_k3, "--output", str(cert)]) == 0
    argv = [{"H": three_k3, "C": str(cert)}.get(a, a) for a in argv]
    code, modules = _imported(["-m", "pseudocube", *argv])
    assert code == 0
    assert set(loaded) <= modules
    assert [m for m in START_UP_FREE if m in modules - bare_modules and m not in loaded] == []


class TestParserEquivalence:
    """``main`` writes the same exit code, stdout and stderr with the parser
    it builds as with the reference that registers every subparser, on every
    Python version (the help digest runs on one)."""

    CASES = [["dim", "ds", "--input", "H"], ["bound", "ds", "--n", "3", "--k", "3", "--d", "1"],
             ["gen", "extremal", "--n", "3", "--k", "3", "--d", "1"],
             ["oig", "stats", "--input", "H"], ["cert", "span", "--input", "H"],
             ["learn", "loo", "--input", "H", "--m", "5", "--trials", "5"],
             ["sweep", "exhaustive", "--n", "1", "--k", "3"],
             ["verify", "sauer", "--input", "H"],
             [], ["--help"], ["-h", "dim"], ["--version"], ["--version", "dim"], ["bogus"],
             ["dim"], ["dim", "--help"], ["dim", "ds", "--input", "H", "--bogus", "x"],
             ["-x", "dim", "ds", "--input", "H"], ["learn", "loo", "--jobs", "0"],
             ["oig", "shift", "--input", "H", "--format", "json"],
             ["dim", "ds", "--input", "missing.cls"]]

    @staticmethod
    def _record(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "none" for argv in CASES])
    def test_output_matches_the_all_subcommands_parser(self, capsys, monkeypatch, tmp_path,
                                                       argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "H").write_text("n=2 k=3\n0 0\n0 1\n1 0\n")
        shipped = self._record(capsys, argv)
        monkeypatch.setattr(cli, "_build_parser", all_subcommands_parser)
        assert self._record(capsys, argv) == shipped

    def test_a_named_subcommand_builds_two_parsers(self, capsys, monkeypatch, three):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["dim", "ds", "--input", three]) == 0
        assert built == ["pseudocube", "pseudocube dim"]


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unreadable_input(self, capsys):
        assert main(["dim", "ds", "--input", "/nonexistent.cls"]) == 2

    def test_malformed_class_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.cls"
        bad.write_text("n=2 k=3\n0 9\n")
        assert main(["dim", "ds", "--input", str(bad)]) == 2

    def test_deeply_nested_json_class_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "deep.cls"
        bad.write_text('{"n":' + "[" * 200_000)
        code = main(["dim", "ds", "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "nested too deeply" in captured.err

    def test_boolean_json_class_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bool.cls"
        bad.write_text('{"n":true,"k":2,"patterns":[[true],[false]]}')
        code = main(["oig", "shift", "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "need integer n >= 1" in captured.err
