"""End-to-end tests of the command-line interface and its exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact.arith import parse_rational, rational_str
from artifact import cli
from artifact.cli import build_parser, main
from artifact.coeffs import alpha, beta
from artifact.operators import Norm, random_stochastic, rotation_matrix

# sha256 of operator theorem-check reports without elapsed_s; any change to
# what a check visits, decides or reports (M, P, counts, failures) changes
# them.  On the general path rectangle.P is the reduction's agreement degree
# 2^(K+1) - 2; the APPENDIX_T mean-bound pin has rectangle.P = 0, as the
# closed form on a Jordan block reads no term.
REPORT_PINS = [
    ("check-power-bound", random_stochastic(5, 0, doubly=True), ["--n-max", "8"],
     "72fe3828a861b2371d7346bc31f501ed2529ac8a59fa8114dd2d4761f9e8b496"),
    ("check-power-bound", rotation_matrix(1.0), ["--n-max", "6", "--norm", "fro"],
     "845d2d3b7dccce8eeb7fdf9a378a8782263cb05e38083d4fa5c10b7bb50d1c30"),
    ("check-mean-bound", None, ["--n-max", "5"],
     "dca2fc1e3a54dac3c0a6f0cd0b2eeaccbdd298759056111875d9622ec606b037"),
    ("check-mean-bound", random_stochastic(4, 1), ["--n-max", "6"],
     "39d3998624a9c40032f278e2fc7ba2fdaa2b484a1874a815a2663f6fd68111e6"),
    ("check-domination", random_stochastic(3, 0), ["--N-max", "50"],
     "f387a5afac7f21a3f8fe5af6f97993409aa0fcb47d5584850c0f8894a942533d"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffCommand:
    def test_alpha_one_one(self, capsys):
        code, out, _ = run(capsys, "coeff", "--kind", "alpha", "--n", "1", "--p", "1")
        assert code == 0
        assert out.splitlines() == ["1/8", "0.125"]

    def test_alpha_five_zero(self, capsys):
        code, out, _ = run(capsys, "coeff", "--kind", "alpha", "--n", "5", "--p", "0")
        assert code == 0
        assert out.splitlines()[0] == "1/32"

    def test_beta_below_diagonal(self, capsys):
        code, out, _ = run(capsys, "coeff", "--kind", "beta", "--n", "3", "--p", "2")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "--n", "1", "--p", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "kind": "alpha", "n": 1, "p": 1, "value": "0.125", "float": 0.125
        }

    def test_json_value_past_the_int_string_limit(self, capsys):
        """alpha(1, 2200) has 4392 significant digits, more than the 4300 that
        str(int) prints by default."""
        code, out, err = run(capsys, "coeff", "--n", "1", "--p", "2200", "--format", "json")
        assert code == 0, err
        value = json.loads(out)["value"]
        assert Fraction(Decimal(value)) == alpha(1, 2200)
        assert parse_rational(value) == alpha(1, 2200)

    def test_default_kind_is_alpha(self, capsys):
        code, out, _ = run(capsys, "coeff", "--n", "2", "--p", "2")
        assert code == 0
        assert out.splitlines()[0] == "5/64"


class TestTableCommand:
    """Every cell of an 8 x 20 table, where beta has cells with p < n and with
    p >= n, against the per-cell exact accessors."""

    GRID = [(n, p) for n in range(1, 9) for p in range(21)]

    def cells(self, capsys, kind, fmt):
        code, out, _ = run(capsys, "table", "--kind", kind, "--n-max", "8",
                           "--p-max", "20", "--format", fmt)
        assert code == 0
        if fmt == "json":
            doc = json.loads(out)
            assert doc["kind"] == kind
            cells = [(e["n"], e["p"], e["value"]) for e in doc["entries"]]
        else:
            lines = out.splitlines()
            assert lines[0] == "n,p,value"
            cells = [(int(n), int(p), v)
                     for n, p, v in (line.split(",") for line in lines[1:])]
        assert [(n, p) for n, p, _ in cells] == self.GRID
        return [(n, p, parse_rational(v)) for n, p, v in cells]

    def test_csv_round_trips_to_exact_rationals(self, capsys):
        for n, p, value in self.cells(capsys, "alpha", "csv"):
            assert value == alpha(n, p), (n, p)

    def test_beta_table(self, capsys):
        for fmt in ("csv", "json"):
            for n, p, value in self.cells(capsys, "beta", fmt):
                assert value == beta(n, p), (fmt, n, p)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--n-max", "2", "--p-max", "2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "n,p,value"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n-max", "2", "--p-max", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["kind"] == "alpha"
        assert {"n": 1, "p": 1, "value": "0.125"} in doc["entries"]
        for n, p, value in self.cells(capsys, "alpha", "json"):
            assert value == alpha(n, p), (n, p)

    @pytest.mark.parametrize("kind", ["alpha", "beta"])
    @pytest.mark.parametrize("n_max, p_max", [(1, 0), (2, 1), (8, 20)])
    def test_json_layout_is_json_dumps(self, capsys, tmp_path, kind, n_max, p_max):
        """The table's fixed JSON template is byte for byte what _json gives
        the same document, on stdout (plus the newline _emit adds) and in --out."""
        value = alpha if kind == "alpha" else beta
        entries = [{"n": n, "p": p, "value": rational_str(value(n, p))}
                   for n in range(1, n_max + 1) for p in range(p_max + 1)]
        want = cli._json({"kind": kind, "entries": entries})
        argv = ["table", "--kind", kind, "--n-max", str(n_max),
                "--p-max", str(p_max), "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want + "\n"
        path = tmp_path / "table.json"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == want

    @pytest.mark.parametrize("kind", ["alpha", "beta"])
    @pytest.mark.parametrize("n_max, p_max", [(1, 0), (2, 1), (8, 20)])
    def test_csv_stdout_is_the_out_file(self, capsys, tmp_path, kind, n_max, p_max):
        """The streamed CSV ends with its own newline, so stdout gets nothing
        added and carries the bytes that --out writes."""
        argv = ["table", "--kind", kind, "--n-max", str(n_max), "--p-max", str(p_max)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "table.csv"
        code, written, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and written == ""
        assert out.encode() == path.read_bytes()

    def test_bad_size_opens_no_file(self, capsys, tmp_path):
        """The size is checked before the output file is opened."""
        path = tmp_path / "table.csv"
        code, out, err = run(capsys, "table", "--n-max", "0", "--out", str(path))
        assert code == 2 and out == "" and "n_max" in err
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_peaks_below_its_file_size(self, tmp_path, fmt):
        """The table is streamed to the file: no string of the whole table is built."""
        path = tmp_path / f"table.{fmt}"
        tracemalloc.start()
        try:
            code = main(["table", "--n-max", "30", "--p-max", "200",
                         "--format", fmt, "--out", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < path.stat().st_size, (peak, path.stat().st_size)

    def test_values_past_the_int_string_limit(self, capsys):
        """alpha(1, 2200) has 4397 decimal places and 4392 digits, more than
        the 4300 that str(int) prints by default; the export does not go
        through str(int)."""
        code, out, err = run(capsys, "table", "--n-max", "1", "--p-max", "2200")
        assert code == 0, err
        n, p, value = out.splitlines()[-1].split(",")
        assert (n, p) == ("1", "2200")
        assert Fraction(Decimal(value)) == alpha(1, 2200)

    # sha256 of the 8 x 20 tables as written by --out, computed when each cell
    # was still built as a reduced Fraction and the JSON by json.dumps
    TABLE_PINS = {
        ("alpha", "csv"): "2f40674810bf71c008bd9257e635e99638369055e47dada7324e33f1143725d2",
        ("alpha", "json"): "fa8fb75f8d7bd0da8de15094fb31aee07d8e7132dd360852395465ddc2f94e47",
        ("beta", "csv"): "fd9c5babbe46589bd52e673362bbe19d020216413c2fc05c80c1b0a2381b172b",
        ("beta", "json"): "80c076d883023466f2e8ba5896f350862aecd758d4c52efc56455ad9a47296b8",
    }

    @pytest.mark.parametrize("kind, fmt", sorted(TABLE_PINS))
    def test_table_bytes_pinned(self, capsys, tmp_path, kind, fmt):
        path = tmp_path / f"table.{fmt}"
        code, _, _ = run(capsys, "table", "--kind", kind, "--n-max", "8",
                         "--p-max", "20", "--format", fmt, "--out", str(path))
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.TABLE_PINS[kind, fmt]


class TestFigureCommand:
    def test_fig1_columns_and_threshold_marker(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1", "--n", "10", "--p-max", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p,diff"
        markers = [l for l in lines if l.endswith(",K")]
        assert len(markers) == 1
        k_value = float(markers[0].split(",")[1])
        assert k_value == pytest.approx(float(Fraction(6600, 1296)), rel=1e-12)

    def test_fig1_no_marker_for_n1(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1", "--n", "1", "--p-max", "10")
        assert code == 0
        assert not any(l.endswith(",K") for l in out.splitlines())

    def test_fig1_diff_values_are_exact_floats(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1", "--n", "2", "--p-max", "4")
        rows = [l.split(",") for l in out.strip().splitlines()[1:] if not l.endswith(",K")]
        for n_s, p_s, diff_s in rows:
            expected = float(alpha(int(n_s), int(p_s)) - alpha(int(n_s) + 1, int(p_s)))
            assert float(diff_s) == expected

    def test_fig2_header_and_value(self, capsys):
        code, out, _ = run(capsys, "figure", "fig2", "--n", "1", "--points", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,x,absdiff"
        n_s, x_s, v_s = lines[1].split(",")
        assert (n_s, float(x_s)) == ("1", 0.0)
        assert float(v_s) == pytest.approx(0.25)  # |1/2 - 1/4| at x = 0

    def test_fig3_default_grid_avoids_x_equal_one(self, capsys):
        code, out, _ = run(capsys, "figure", "fig3", "--n", "40", "--points", "64")
        assert code == 0
        xs = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert max(xs) == pytest.approx(0.9999)

    def test_default_n_lists(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1", "--p-max", "5")
        assert code == 0
        ns = {l.split(",")[0] for l in out.strip().splitlines()[1:]}
        assert ns == {"10", "20"}

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "figure", "fig1", "--n", "10", "--p-max", "30")
        _, out2, _ = run(capsys, "figure", "fig1", "--n", "10", "--p-max", "30")
        assert out1 == out2


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle", "--n-max", "5", "--p-max", "10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert doc["checks"] > 0

    def test_unknown_suite_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown suite" in err
        assert out == ""

    def test_hyphenated_suite_name(self, capsys):
        code, out, _ = run(
            capsys, "verify", "sum-bound", "--n-max", "2"
        )
        assert code == 0
        assert json.loads(out)["suite"] == "sum_bound"

    def test_removed_P_tail_flag_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sum-bound", "--P-tail", "400"])
        assert exc.value.code == 2
        assert "--P-tail" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monotonicity", "--n-max", "-5"],
        ["technical", "--N-max", "0"],
        ["sum-bound", "--n-max", "0"],
        ["bounds", "--p-max", "-3"],
    ])
    def test_degenerate_rectangle_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""

    def test_rectangle_flags_forwarded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "technical", "--N-max", "20"
        )
        assert code == 0
        assert json.loads(out)["rectangle"] == {"N_max": 20}

    def test_unread_rectangle_flag_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "alpha0", "--p-max", "5")
        assert code == 2
        assert "p_max" in err
        assert out == ""

    def test_verify_all_rejects_rectangle_flags(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--n-max", "3")
        assert code == 2
        assert "n_max" in err
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "alpha0", "--n-max", "6", "--out", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text())["suite"] == "alpha0"


class TestOperatorCommand:
    def write(self, tmp_path, rows):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
        return str(path)

    def test_brunel_power_identity_tight(self, capsys, tmp_path):
        path = self.write(tmp_path, [[1.0, 0.0], [0.0, 1.0]])
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", path,
            "--n", "1", "--eps", "1e-10",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tail_bound"] <= 1e-10
        assert np.allclose(doc["matrix"]["rows"], np.eye(2), atol=0)
        assert doc["norm"] == "opinf"

    def test_brunel_power_default_eps_is_reachable(self, capsys, tmp_path):
        """The library default eps is within the general path's step cap
        (1e-8 was not: at M = 1 it needs 27 reduction steps, the cap is 21)."""
        rows = [[0.5, 0.5], [0.25, 0.75]]
        path = self.write(tmp_path, rows)
        code, out, _ = run(capsys, "operator", "brunel-power", "--matrix", path)
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["tail_bound"] <= 1e-5
        # psi(t) = 1 / (1 + sqrt(1 - t)) on the eigenvalues 1 and 1/4
        w, V = np.linalg.eig(np.array(rows))
        exact = V @ np.diag(1 / (1 + np.sqrt(1 - w))) @ np.linalg.inv(V)
        err = np.abs(np.array(doc["matrix"]["rows"]) - exact).sum(axis=1).max()
        assert err <= doc["tail_bound"]

    def test_cesaro(self, capsys, tmp_path):
        path = self.write(tmp_path, [[-1.0, 2.0], [0.0, -1.0]])
        code, out, _ = run(capsys, "operator", "cesaro", "--matrix", path, "--N", "2")
        assert code == 0
        assert json.loads(out)["rows"] == [[0.0, 1.0], [0.0, 0.0]]

    def test_appendix_demo(self, capsys):
        code, out, _ = run(capsys, "operator", "appendix-demo", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert doc["max_abs_difference"] < 1e-8

    def test_random_stochastic_deterministic(self, capsys):
        code, out1, _ = run(
            capsys, "operator", "random-stochastic", "--dim", "3", "--seed", "7"
        )
        assert code == 0
        _, out2, _ = run(
            capsys, "operator", "random-stochastic", "--dim", "3", "--seed", "7"
        )
        assert out1 == out2
        rows = json.loads(out1)["rows"]
        for row in rows:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_check_power_bound(self, capsys, tmp_path):
        path = self.write(tmp_path, [[0.0, -1.0], [1.0, 0.0]])
        code, out, _ = run(
            capsys, "operator", "check-power-bound", "--matrix", path, "--n-max", "6"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_check_mean_bound_defaults_to_worked_example(self, capsys):
        code, out, _ = run(capsys, "operator", "check-mean-bound", "--n-max", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suite"] == "mean_bound"

    def test_check_domination(self, capsys, tmp_path):
        path = self.write(
            tmp_path, [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]
        )
        code, out, _ = run(
            capsys, "operator", "check-domination", "--matrix", path, "--N-max", "30"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("action, T, flags, digest", REPORT_PINS,
                             ids=[f"{pin[0]}-{i}" for i, pin in enumerate(REPORT_PINS)])
    def test_report_pinned(self, capsys, tmp_path, action, T, flags, digest):
        argv = ["operator", action, *flags]
        if T is not None:
            argv += ["--matrix", self.write(tmp_path, T.array.tolist())]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        del doc["elapsed_s"]
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    def test_matrix_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["operator", "brunel-power", "--n", "1"])
        assert exc.value.code == 2
        assert "--matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("action, flags, fn, want", [
        ("brunel-power", [], "brunel", {}),
        ("brunel-power", ["--n", "2", "--eps", "0.5", "--norm", "max"], "brunel",
         {"n_power": 2, "eps": 0.5, "norm": Norm.MAX}),
        ("check-power-bound", [], "check_power_bound_theorem", {}),
        ("check-power-bound", ["--n-max", "3"], "check_power_bound_theorem",
         {"n_max": 3}),
        ("check-mean-bound", ["--eps", "0.2"], "check_mean_bound_theorem",
         {"eps": 0.2}),
        ("check-domination", [], "check_cesaro_domination", {}),
        ("appendix-demo", [], "appendix_example", {"n": 5}),
        ("random-stochastic", [], "random_stochastic", {"dim": 3, "seed": 0}),
        ("random-stochastic", ["--doubly"], "random_stochastic",
         {"dim": 3, "seed": 0, "doubly": True}),
    ])
    def test_forwards_only_given_flags(self, capsys, tmp_path, monkeypatch,
                                       action, flags, fn, want):
        """A flag left out reaches the library as its own default: the CLI
        passes no keyword for it."""
        calls = []

        def record(T=None, **kwargs):
            calls.append(kwargs)
            raise ValueError("recorded")

        monkeypatch.setattr(cli, fn, record)
        argv = ["operator", action, *flags]
        if action not in ("appendix-demo", "random-stochastic"):
            argv += ["--matrix", self.write(tmp_path, [[0.5]])]
        code, out, _ = run(capsys, *argv)
        assert code == 1 and json.loads(out)["message"] == "recorded"
        assert calls == [want]

    @pytest.mark.parametrize("flags, name", [
        (["brunel-power", "--n", "0"], "n"),
        (["brunel-power", "--eps", "0"], "eps"),
        (["check-power-bound", "--n-max", "0"], "n_max"),
        (["check-domination", "--N-max", "0"], "N_max"),
    ])
    def test_explicit_zero_reaches_library(self, capsys, tmp_path, flags, name):
        """0 was once replaced by the default (n = 1, eps = 1e-8, n_max = 40)."""
        path = self.write(tmp_path, [[0.5, 0.5], [0.25, 0.75]])
        code, out, _ = run(capsys, "operator", *flags, "--matrix", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(f"{name} must be")

    def test_appendix_demo_zero_reaches_library(self, capsys):
        code, out, _ = run(capsys, "operator", "appendix-demo", "--n", "0")
        assert code == 1
        assert json.loads(out) == {"error": "ValueError",
                                   "message": "n must be >= 1, got 0"}

    def test_spectral_explosion_structured_error(self, capsys, tmp_path):
        path = self.write(tmp_path, [[2.0]])
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", path, "--n", "1"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "SpectralExplosionError"
        assert "cutoff" in doc["message"]

    def test_non_convergence_structured_error(self, capsys, tmp_path):
        path = self.write(tmp_path, [[0.0, -1.0], [1.0, 0.0]])
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", path,
            "--n", "1", "--eps", "1e-10",
        )
        assert code == 1
        assert json.loads(out)["error"] == "NonConvergenceError"

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", str(path), "--n", "1"
        )
        assert code == 1
        assert json.loads(out)["error"] == "JSONDecodeError"

    def test_malformed_matrix_rows(self, capsys, tmp_path):
        """Rows that are not a list of lists once leaked a TypeError traceback."""
        path = tmp_path / "bad.json"
        for rows in (5, [[1, 2], 3]):
            path.write_text(json.dumps({"dim": 2, "rows": rows}))
            code, out, _ = run(
                capsys, "operator", "brunel-power", "--matrix", str(path), "--n", "1"
            )
            assert code == 1
            assert json.loads(out) == {"error": "ValueError",
                                       "message": "rows must be a list of lists"}

    def test_non_numeric_matrix_entry(self, capsys, tmp_path):
        """An entry that is neither a number nor a string once leaked a
        TypeError traceback from the float conversion."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[{}, 1], [1, 1]]}))
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", str(path), "--n", "1"
        )
        assert code == 1
        assert json.loads(out) == {"error": "ValueError",
                                   "message": "matrix entries must be numbers"}

    def test_missing_matrix_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "operator", "brunel-power",
            "--matrix", str(tmp_path / "absent.json"), "--n", "1",
        )
        assert code == 1
        assert json.loads(out)["error"] == "FileNotFoundError"

    def test_norm_flag(self, capsys, tmp_path):
        path = self.write(tmp_path, [[0.5]])
        code, out, _ = run(
            capsys, "operator", "brunel-power", "--matrix", path,
            "--n", "1", "--norm", "fro",
        )
        assert code == 0
        assert json.loads(out)["norm"] == "fro"


class TestUsageErrors:
    """Bad usage exits 2 with one stderr line and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["figure", "fig1", "--format", "json"],
        ["verify", "alpha0", "--eps", "0.1"],
        ["coeff", "--n", "1", "--p", "1", "--norm", "fro"],
        ["table", "--seed", "3"],
        ["operator", "random-stochastic", "--eps", "1"],
        ["operator", "check-domination", "--norm", "fro", "--matrix", "M"],
        ["operator", "appendix-demo", "--matrix", "M"],
        ["operator", "check-power-bound", "--matrix", "M", "--n", "3"],
        ["operator", "cesaro", "--matrix", "M", "--N-max", "3"],
    ])
    def test_unread_flag_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, word", [
        (["coeff", "--n", "0", "--p", "1"], "n >= 1"),
        (["figure", "fig1", "--n", "0"], "n >= 1"),
        (["figure", "fig2", "--points", "1"], "points"),
        (["figure", "fig1", "--p-max", "-1"], "p_max"),
        (["table", "--n-max", "-2"], "n_max"),
        (["table", "--p-max", "-1"], "p_max"),
    ])
    def test_bad_value_exit_two(self, capsys, argv, word):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and word in err
        assert err.count("\n") == 1


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_id_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_prog_name(self):
        assert build_parser().prog == "artifact"

    def test_python_dash_m_entry_point(self):
        src = str(Path(artifact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "artifact", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: artifact")

    @pytest.mark.parametrize("argv, first", [
        (["table", "--n-max", "40", "--p-max", "300"], "n,p,value\n"),
        (["operator", "random-stochastic", "--dim", "100"], "{\n")])
    def test_closed_stdout_ends_quietly(self, argv, first):
        """A reader that stops after one line, as `| head -1` does: exit 1 and
        no traceback, also from the operator path that reports errors as JSON."""
        src = str(Path(artifact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "artifact", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        ["verify", "alpha0"],
        ["table", "--n-max", "2", "--p-max", "2"],
        ["coeff", "--n", "1", "--p", "1"],
        ["figure", "fig1", "--n", "1", "--p-max", "2"]])
    def test_unwritable_out_is_one_error_line(self, tmp_path, argv):
        """An --out path in a missing directory: exit 1, one `error:` line on
        stderr naming the path, no traceback and nothing on stdout."""
        src = str(Path(artifact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = str(tmp_path / "missing" / "x.json")
        proc = subprocess.run([sys.executable, "-m", "artifact", *argv, "--out", out],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith("error: ") and out in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
