import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribadic
from tribadic import PrecisionError, classifier, cli, interpolation, prime_context
from tribadic.classifier import FormulaCase, FormulaSpec, builtin_spec, crt_witness, verify_formula
from tribadic.cli import (
    EXIT_EXCLUDED,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
    spec_from_dict,
    spec_to_dict,
)
from tribadic.classifier import TableRow, published_table, reproduce_table

from conftest import PSI_12


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestExitCodes:
    def test_decided_holds(self, capsys):
        code, rec = run_json(capsys, "classify", "--prime", "397")
        assert code == EXIT_PASS
        assert rec["payload"]["ml"]["status"] == "holds"
        assert rec["payload"]["ml"]["Q"] == 132

    def test_decided_fails(self, capsys):
        code, rec = run_json(capsys, "classify", "--prime", "5")
        assert code == EXIT_PASS
        assert rec["payload"]["ml"]["status"] == "fails"

    def test_excluded(self, capsys):
        for p in ("11", "2"):
            code, _ = run(capsys, "classify", "--prime", p)
            assert code == EXIT_EXCLUDED

    def test_undecided(self, capsys):
        code, _ = run(capsys, "classify", "--prime", "103")
        assert code == EXIT_UNDECIDED

    def test_usage_non_prime(self, capsys):
        assert main(["classify", "--prime", "12"]) == EXIT_USAGE

    def test_usage_bad_flag(self, capsys):
        assert main(["classify", "--no-such-flag"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--spec", "p3", "--range", "abc"],
            ["verify", "--spec", "p3", "--range", "5"],
            ["zero", "--prime", "5", "--ell", "21", "--multiplier", "0"],
            ["classify", "--prime", "5", "--precision", "0"],
            ["classify", "--prime", "269", "--precision", "2"],
            ["scan", "--max", str(classifier.P_MAX + 1)],
            ["table", "--max", str(classifier.P_MAX + 1)],
            ["scan", "--max", "60", "--jobs", "0"],
            ["table", "--max", "60", "--jobs", "-1"],
            ["table", "--max", "-5"],
            ["scan", "--max", "-3"],
            ["classify", "--prime", "12"],
            ["zero", "--prime", "11", "--ell", "0"],
            ["classify", "--prime", str(PSI_12)],
        ],
    )
    def test_bad_input_exits_64_with_one_line(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error: argument --" in err[0]

    def test_one_parser_per_process(self, capsys):
        # the parser is built once; a usage error or a flag of one call must not leak into the next
        assert cli.build_parser() is cli.build_parser()
        assert main(["zero", "--prime", "5", "--ell", "21", "--precision", "2"]) == EXIT_USAGE
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        _, first = run_json(capsys, "zero", "--prime", "5", "--ell", "21", "--precision", "48")
        _, second = run_json(capsys, "zero", "--prime", "5", "--ell", "21")
        assert (first["params"]["precision"], second["params"]["precision"]) == (48, 24)

    def test_exhausted_zero_escalation_is_internal(self, capsys, monkeypatch):
        def vanish(*args):
            raise PrecisionError("forced")

        monkeypatch.setattr(classifier, "series_coeffs", vanish)
        assert main(["zero", "--prime", "5", "--ell", "21"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err
        code, rec = run_json(capsys, "zero", "--prime", "5", "--ell", "21")
        assert code == EXIT_INTERNAL
        assert_error_envelope(rec, "zero", {"prime": 5, "ell": 21, "multiplier": 1, "precision": 24},
                              "PrecisionError")

    @pytest.mark.usefixtures("cold_records")
    def test_p3_class_without_certificate_is_internal(self, capsys, monkeypatch):
        # p = 3 has no undecided verdict for a missing certificate: its classify raises instead
        monkeypatch.setattr(classifier, "certify", lambda series: None)
        code, rec = run_json(capsys, "classify", "--prime", "3")
        assert (code, rec["status"], rec["payload"]["error"]) == (EXIT_INTERNAL, "error", "PrecisionError")

    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def crash(*args):
            raise ZeroDivisionError("forced")

        monkeypatch.setattr(cli, "classify_prime", crash)
        assert main(["classify", "--prime", "7"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err
        assert main(["classify", "--prime", "7", "--format", "json"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert "internal error" in err and "Traceback" in err
        assert_error_envelope(json.loads(out), "classify", {"prime": 7, "precision": 24}, "ZeroDivisionError")

    def test_internal_error_envelope_names_the_spec(self, capsys, monkeypatch):
        def crash(*args):
            raise RuntimeError("forced")

        monkeypatch.setattr(cli, "verify_formula", crash)
        code, rec = run_json(capsys, "verify", "--spec", "p3", "--range", "1..50")
        assert code == EXIT_INTERNAL
        assert_error_envelope(rec, "verify", {"spec": "p3", "range": "1..50", "precision": 24}, "RuntimeError")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--prime", "1999", "--format", "json"],  # larger than the buffer: fails in print
            ["classify", "--prime", "7", "--format", "csv"],  # fits the buffer: fails at the flush
        ],
    )
    def test_closed_stdout_exits_70_with_one_line(self, argv):
        # stdout is a pipe whose read end is closed before the process starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a plain shell pipe
        try:
            proc = subprocess.run([sys.executable, "-m", "tribadic.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stderr.splitlines() == [f"tribadic {argv[0]}: stdout was closed; the output is incomplete"]

    def test_closed_stdout_without_descriptor_prints_no_envelope(self, capsys, monkeypatch):
        def closed(*args):
            raise BrokenPipeError("forced")

        monkeypatch.setattr(cli, "classify_prime", closed)
        assert main(["classify", "--prime", "7", "--format", "json"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["tribadic classify: stdout was closed; the output is incomplete"]


class TestHelp:
    """--help wraps at the width shutil.get_terminal_size would give argparse, read without
    shutil: $COLUMNS, else the terminal's width, else 80, minus 2."""

    COMMANDS = ((), ("classify",), ("table",), ("verify",), ("zero",), ("scan",))

    @staticmethod
    def help_text(capsys, *argv):
        assert main([*argv, "--help"]) == EXIT_PASS
        return capsys.readouterr().out

    def test_zero_help_follows_columns(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "60")
        assert max(map(len, self.help_text(capsys, "zero").splitlines())) <= 60
        monkeypatch.setenv("COLUMNS", "132")
        assert max(map(len, self.help_text(capsys, "zero").splitlines())) > 80

    @pytest.mark.parametrize("columns", [None, "60", "132", "0", "wide"])
    def test_help_equals_argparse_own_width(self, capsys, monkeypatch, columns):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        ours = [self.help_text(capsys, *argv) for argv in self.COMMANDS]
        monkeypatch.delattr(cli._Parser, "_get_formatter")  # argparse's own, which asks shutil
        assert [self.help_text(capsys, *argv) for argv in self.COMMANDS] == ours


def assert_error_envelope(rec, command, params, error):
    assert set(rec) == {"command", "params", "status", "payload", "precision_used", "elapsed_ms"}
    assert (rec["command"], rec["params"], rec["status"]) == (command, params, "error")
    assert rec["payload"] == {"error": error, "message": "forced"}
    assert rec["precision_used"] == params["precision"]


class TestSchema:
    def test_json_record_fields(self, capsys):
        _, rec = run_json(capsys, "classify", "--prime", "7")
        assert set(rec) == {"command", "params", "status", "payload", "precision_used", "elapsed_ms"}
        assert rec["command"] == "classify"

    def test_classify_keeps_the_whole_zero_table(self, capsys):
        _, rec = run_json(capsys, "classify", "--prime", "179")
        assert rec["payload"]["zero_table_complete"] is True
        assert len(rec["payload"]["zero_table"]) == len(classifier.classify_prime(179).zero_table)

    def test_classify_and_scan_shape(self, capsys):
        # the payload keys in order, one key per conjecture form, and the fixed classify CSV rows
        for p, formula in ((2, False), (47, False), (83, True)):
            _, rec = run_json(capsys, "classify", "--prime", str(p))
            assert list(rec["payload"]) == ["p", "d", "N", "ml", "rational", "zero_table",
                                            "zero_table_complete"] + ["formula"] * formula
        _, rec = run_json(capsys, "scan", "--max", "60")
        assert list(rec["payload"]) == ["p_max", "total_primes", "ml", "rational", "cube_root_family",
                                        "cube_root_family_fraction", "cube_root_family_expected_density"]
        for form in ("ml", "rational"):
            assert list(rec["payload"][form]) == ["holds", "fails", "undecided", "excluded"]
        rows = ["2,,excluded,,,,excluded,", "3,13,holds,,,39,undecided,", "47,46,fails,31,16,,undecided,",
                "83,287,holds,,,287,undecided,", "269,268,fails,177,88,,holds,268", "397,132,holds,,,132,undecided,"]
        for row in rows:
            _, out = run(capsys, "classify", "--prime", row.split(",")[0], "--format", "csv")
            assert out.splitlines() == ["p,N,ml_status,ml_ell,ml_u,ml_Q,rat_status,rat_Q", row]

    def test_payload_round_trips(self, capsys):
        _, rec = run_json(capsys, "scan", "--max", "60")
        assert json.loads(json.dumps(rec["payload"])) == rec["payload"]

    def test_exit_code_is_function_of_status(self, capsys):
        seen = {}
        for argv in (["classify", "--prime", "7"], ["classify", "--prime", "103"],
                     ["classify", "--prime", "11"], ["verify", "--spec", "p3", "--range", "1..50"]):
            code, rec = run_json(capsys, *argv)
            seen.setdefault(rec["status"], set()).add(code)
        assert all(len(codes) == 1 for codes in seen.values())


class TestTable:
    def test_csv_columns_and_round_trip(self, capsys):
        code, out = run(capsys, "table", "--max", "60", "--format", "csv")
        assert code == EXIT_PASS
        lines = out.strip().splitlines()
        assert lines[0] == "p,N,ell,u"
        parsed = [
            tuple(int(v) if v else None for v in (rec["p"], rec["N"], rec["ell"], rec["u"]))
            for rec in csv.DictReader(lines)
        ]
        assert parsed == [(r.p, r.n_period, r.ell, r.u) for r in reproduce_table(60)]

    def test_validate_paper_pass(self, capsys):
        code, rec = run_json(capsys, "table", "--max", "60", "--validate-paper")
        assert code == EXIT_PASS
        assert rec["payload"]["published_validation"]["disagreements"] == []

    def test_validate_paper_reports_a_listed_witness_that_is_not_smallest(self, capsys, monkeypatch):
        rows = [TableRow(r.p, r.n_period, r.ell + (r.p == 47), r.u, "fails") for r in published_table()
                if r.p <= 60]
        monkeypatch.setattr(cli, "reproduce_table", lambda *args, **kwargs: rows)
        code, rec = run_json(capsys, "table", "--max", "60", "--validate-paper")
        assert code == EXIT_FAIL
        assert rec["payload"]["published_validation"]["disagreements"] == [
            {"p": 47, "N": True, "ell_is_zero": True, "deriv_ok": True, "u": True, "listed_is_smallest": False}
        ]


class TestVerify:
    def test_builtin_pass(self, capsys):
        code, _ = run(capsys, "verify", "--spec", "p2", "--range", "1..2000")
        assert code == EXIT_PASS

    def test_negative_start_with_equals(self, capsys):
        # a space would make argparse read -20..20 as an option; the = form covers Z_T points -1, -4, -17
        code, rec = run_json(capsys, "verify", "--spec", "p2", "--range=-20..20")
        assert code == EXIT_PASS
        assert rec["payload"]["range"] == [-20, 20]

    def test_spec_json_round_trip(self):
        for name in ("p2", "p269"):
            spec = builtin_spec(name)
            assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_corrupted_spec_file_fails(self, capsys, tmp_path):
        data = spec_to_dict(builtin_spec("p3"))
        data["cases"][0]["kappa"] += 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, rec = run_json(capsys, "verify", "--spec", str(path), "--range", "1..10000")
        assert code == EXIT_FAIL
        assert rec["payload"]["mismatches"]

    def test_unknown_spec_name(self, capsys):
        assert main(["verify", "--spec", "nope", "--range", "1..10"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "change",
        [
            "{",
            {"residues": [39]},  # outside [0, Q) for Q = 39
            {"a": "1/x"},
            "list",
            {"a": "1/0"},
            {"p": 4, "Q": 4, "cases": [{"residues": [0], "kappa": 1}]},  # a whole spec
            {"p": PSI_12, "Q": 4, "cases": []},  # composite, yet a strong probable prime to bases 2..37
            {"p": 1, "Q": 4, "cases": []},
            {"p": 5, "Q": 0, "cases": []},
            {"default_kappa": "0"},  # non-integer rules made a false "mismatch found" (exit 1) ...
            {"default_kappa": None},
            {"kappa": "1"},
            {"mu": "1"},  # ... or an internal error (exit 70)
            {"p": 3.0},  # exited 70 ...
            {"Q": 39.5},  # ... 1, a false "mismatch found" ...
            {"case": 0, "residues": [0.5]},  # ... or 0 on the kappa = 0 case, a false pass
            {"case": 7, "a": True},  # a JSON boolean loaded as a = 1, linear on residue 22 mod 39 ...
            {"a": False},  # ... or as a = 0
            "nested",  # json.load raised RecursionError: exit 1 with a traceback
        ],
        ids=["truncated-json", "residue-out-of-range", "bad-target", "top-level-list", "zero-denominator",
             "p-not-prime", "p-strong-pseudoprime", "p-one", "q-zero", "default-kappa-string",
             "default-kappa-null", "kappa-string", "mu-string", "p-float", "q-float", "residue-float",
             "target-true", "target-false", "deeply-nested"],
    )
    def test_malformed_spec_file_exits_64(self, capsys, tmp_path, change):
        data = spec_to_dict(builtin_spec("p3"))
        if change == "{":
            text = "{"
        elif change == "nested":
            text = "[" * 10**5
        elif change == "list":
            text = json.dumps([data])
        elif "cases" in change:
            text = json.dumps(change)
        elif change.keys() & {"p", "Q", "default_kappa"}:
            text = json.dumps({**data, **change})
        else:
            change = dict(change)
            case = data["cases"][change.pop("case")] if "case" in change else next(
                c for c in data["cases"] if c["a"] is not None)
            case.update(change)
            text = json.dumps(data)
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["verify", "--spec", str(path), "--range", "1..10"]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error: argument --spec" in err[0]


class TestZero:
    def test_p5_ell21(self, capsys):
        code, rec = run_json(capsys, "zero", "--prime", "5", "--ell", "21")
        assert code == EXIT_PASS
        z = rec["payload"]["zero"]
        assert z["unique"] is True
        assert z["classification"] == {"kind": "rational", "value": "1/3"}
        assert len(z["digits"]) == 24

    def test_p7_ell0_trivial_zero(self, capsys):
        code, rec = run_json(capsys, "zero", "--prime", "7", "--ell", "0")
        assert code == EXIT_PASS
        z = rec["payload"]["zero"]
        assert z["residue"] == 0
        assert z["classification"] == {"kind": "integer", "value": 0}

    def test_p3_multiplier_3_linear_certificate(self, capsys):
        code, rec = run_json(capsys, "zero", "--prime", "3", "--ell", "35", "--multiplier", "3")
        assert code == EXIT_PASS
        assert rec["payload"]["deriv_ok"] is False
        cert = rec["payload"]["linear_certificate"]
        assert cert["a"] == -4 and cert["kappa"] == 4

    def test_no_zero_when_46_fails(self, capsys):
        code, rec = run_json(capsys, "zero", "--prime", "7", "--ell", "1")
        assert code == EXIT_PASS
        assert rec["payload"]["divides"] is False
        assert "no zero" in rec["payload"]["conclusion"]

    def test_low_precision_match_is_not_a_certificate(self, capsys):
        # the zero of l = 454 (mod 553) has u = -5/3 mod 23, but g does not vanish mod 23^3 at
        # (-5/3 - 454)/553, a definite answer: no certificate, and no escalation
        code, rec = run_json(capsys, "zero", "--prime", "23", "--ell", "454", "--precision", "3")
        assert code == EXIT_PASS and rec["precision_used"] == 3
        assert rec["payload"]["zero"]["classification"]["kind"] == "other"
        assert "linear_certificate" not in rec["payload"]

    def test_projective_period_certificate(self, capsys):
        # l = 54 is not 0 mod N = 162, but x^54 is a scalar mod 163, so the class sits over a = 0;
        # the sequence agrees on n = 54 (mod 162), near-misses of 0 included
        for prec in (3, 24, 96):
            code, rec = run_json(capsys, "zero", "--prime", "163", "--ell", "54", "--precision", str(prec))
            cert = rec["payload"]["linear_certificate"]
            assert code == EXIT_PASS and rec["precision_used"] == prec
            assert (cert["a"], cert["kappa"], cert["Q"], cert["residue"]) == (0, 1, 162, 54)
        spec = FormulaSpec(163, 162, (FormulaCase((54,), 1, 0),))
        points = [crt_witness(54, 162, 0, 163, k) for k in range(1, 7)]
        assert all(n % 162 == 54 for n in points)
        mismatches = verify_formula(spec, 1, 2 * 10**5, extra=points)
        assert [m for m in mismatches if m.n % 162 == 54] == []


def certify_set_digest(seed: int) -> str:
    """sha256 over the zero requests of perfbench's certify workload at seed, in their order: one
    line per request, its exit code and its JSON record without elapsed_ms, keys sorted."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.make_inputs("certify", seed)
    lines = []
    for i, prec in inputs["requests"]:
        task = inputs["tasks"][i]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["zero", "--prime", str(task["p"]), "--ell", str(task["ell"]),
                         "--multiplier", str(task["s"]), "--precision", str(prec), "--format", "json"])
        rec = json.loads(buf.getvalue())
        del rec["elapsed_ms"]
        lines.append(f"{code} {json.dumps(rec, sort_keys=True)}")
    assert len(lines) == 108
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_certify_set_payloads_are_pinned():
    """The 108 certify-set zero payloads (36 classes at precisions 24, 48 and 96, seed-1 order)
    are byte-identical to those of commit 9959af6, before blocked series evaluation and lifted
    inverses.  The digest was produced there, with this file's certify_set_digest, by

        git archive 9959af6 src | tar -x -C /tmp/parent
        PYTHONPATH=/tmp/parent/src python -c "import sys; sys.path[:0] = ['tests']; \\
            from test_cli import certify_set_digest; print(certify_set_digest(1))"
    """
    assert certify_set_digest(1) == "a87dd8f7ff4be0e8eb4d825bc5864b0017950f0dc314cea587de5b2a6abe7c70"


class TestZeroSinglePass:
    """One zero request builds each series and each Hensel zero once, and
    escalates its precision in one loop."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"series_coeffs": [], "hensel_zero": 0}

        def series_coeffs(ctx, ell, *args):
            calls["series_coeffs"].append(ell)
            return interpolation.series_coeffs(ctx, ell, *args)

        def hensel_zero(series):
            calls["hensel_zero"] += 1
            return interpolation.hensel_zero(series)

        for module in (cli, classifier):  # wherever the pass looks the names up
            monkeypatch.setattr(module, "series_coeffs", series_coeffs, raising=False)
            monkeypatch.setattr(module, "hensel_zero", hensel_zero, raising=False)
        return calls

    @staticmethod
    def count_mu(monkeypatch, failures=0):
        """The precision of every computation of SeriesTrunc.mu, in order; the first failures
        of them raise PrecisionError instead of computing mu.  The function under mu's own
        descriptor is wrapped, so what it keeps is what is counted."""
        descriptor = interpolation.SeriesTrunc.__dict__["mu"]
        compute = descriptor.func
        precisions = []

        def mu(series):
            precisions.append(series.ctx.prec)
            if len(precisions) <= failures:
                raise PrecisionError("forced")
            return compute(series)

        monkeypatch.setattr(descriptor, "func", mu)
        return precisions

    def test_rational_class_builds_one_series_and_one_zero(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch)
        code, rec = run_json(capsys, "zero", "--prime", "269", "--ell", "179")
        assert code == EXIT_PASS and rec["payload"]["linear_certificate"]["a"] == "1/3"
        assert calls == {"series_coeffs": [179], "hensel_zero": 1}

    def test_integer_class_is_certified_on_its_own_series(self, capsys, monkeypatch):
        # l = 270 = -17 (mod 287): the certificate reads g at the integer zero (-17 - 270)/287
        calls = self.count_calls(monkeypatch)
        code, rec = run_json(capsys, "zero", "--prime", "83", "--ell", "270")
        assert code == EXIT_PASS and rec["payload"]["linear_certificate"]["a"] == -17
        assert calls == {"series_coeffs": [270], "hensel_zero": 1}

    @pytest.mark.usefixtures("cold_records")
    def test_p3_refinement_builds_one_series_per_class(self, monkeypatch):
        # classes 0, 7, 9, 12 mod 13, and 9, 22, 35 mod 39 after the mu = 2 split of 9
        calls = self.count_calls(monkeypatch)
        assert classifier.classify_prime(3).verdicts["ml"].q == 39
        assert calls == {"series_coeffs": [0, 7, 9, 9, 22, 35, 12], "hensel_zero": 0}

    def test_failing_certificate_makes_three_attempts(self, capsys, monkeypatch):
        # class_series escalates on the Strassman bound the certificate reads
        precisions = self.count_mu(monkeypatch, failures=3)
        assert main(["zero", "--prime", "5", "--ell", "21"]) == EXIT_INTERNAL
        assert precisions == [24, 48, 96]

    def test_precision_used_is_the_one_that_produced_the_payload(self, capsys, monkeypatch):
        precisions = self.count_mu(monkeypatch, failures=1)
        code, rec = run_json(capsys, "zero", "--prime", "5", "--ell", "21")
        # mu fails at 24 and is computed once at 48: certify and the payload read that value
        assert code == EXIT_PASS and precisions == [24, 48]
        assert rec["precision_used"] == 48
        assert len(rec["payload"]["zero"]["digits"]) == 48

    def test_mu_is_computed_once_per_request(self, capsys, monkeypatch):
        # class_series, certify and the payload's mu share one computation
        precisions = self.count_mu(monkeypatch)
        code, rec = run_json(capsys, "zero", "--prime", "5", "--ell", "21")
        assert code == EXIT_PASS and rec["payload"]["mu"] == 1 and precisions == [24]

    def test_escalation_computes_mu_once_per_precision_tried(self, capsys, monkeypatch):
        # p = 3, l = 35, s = 3: every coefficient vanishes mod 3^3, so mu raises there and is
        # computed once more on the series at 3^6
        precisions = self.count_mu(monkeypatch)
        code, rec = run_json(capsys, "zero", "--prime", "3", "--ell", "35", "--multiplier", "3",
                             "--precision", "3")
        assert code == EXIT_PASS and rec["precision_used"] == 6 and precisions == [3, 6]

    def test_escalated_class_is_read_off_one_series(self, capsys, monkeypatch):
        # p = 3, l = 35, s = 3: g vanishes mod 3^3, so class_series doubles to 3^6 once; e, mu,
        # the certificate and precision_used all come from that series, whose beta_1 is no unit
        calls = self.count_calls(monkeypatch)
        code, rec = run_json(capsys, "zero", "--prime", "3", "--ell", "35", "--multiplier", "3",
                             "--precision", "3")
        assert calls == {"series_coeffs": [35, 35], "hensel_zero": 1}
        series = classifier.class_series(prime_context(3, 3), 35, 3)
        cert = classifier.certify(series)
        pay = rec["payload"]
        assert code == EXIT_PASS and series.ctx.prec == rec["precision_used"] == 6
        assert (pay["e"], pay["mu"], pay["deriv_ok"]) == (series.e, series.mu, False)
        assert "zero" not in pay and pay["linear_certificate"] == {
            "a": cert.a, "kappa": cert.kappa, "mu": cert.mu, "Q": cert.q, "residue": cert.residue}
        assert (cert.a, cert.kappa) == (-4, 4)


class TestScan:
    def test_scan_json(self, capsys):
        code, rec = run_json(capsys, "scan", "--max", "100")
        assert code == EXIT_PASS
        assert rec["payload"]["ml"]["holds"] == [3, 83]
        assert rec["payload"]["cube_root_family"] == [47, 53]
        # finite floats must survive encoding (only the nu_p(0) marker becomes "inf")
        assert isinstance(rec["payload"]["cube_root_family_fraction"], float)
        assert abs(rec["payload"]["cube_root_family_expected_density"] - 1 / 12) < 1e-12
