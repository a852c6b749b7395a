import argparse
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mexp import (
    FamilyReport,
    GeneralisedCertificate,
    InequalityReport,
    MeasuredGraph,
    PoincareEstimate,
    SpectralResult,
    cli,
    dump_graph,
    families,
    generalised_certificate,
)
from mexp.cli import main
from mexp.families import CertificateRow, make_complete, make_cycle, probability_counting_measure, random_regular
from mexp.inequalities import THEOREMS
import random


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(dump_graph(make_cycle(6)), encoding="utf-8")
    return str(path)


@pytest.fixture
def single_vertex_family(tmp_path):
    """A family directory holding C6 and a one-vertex graph."""
    fam = tmp_path / "fam"
    fam.mkdir()
    (fam / "g0.json").write_text(dump_graph(make_cycle(6)), encoding="utf-8")
    (fam / "g1.json").write_text(dump_graph(MeasuredGraph.build(1, [], [1])), encoding="utf-8")
    return str(fam)


def regular_50():
    """A cubic graph on 50 vertices: past the enumeration engine's 48-vertex limit."""
    return random_regular(50, 3, random.Random(1), probability_counting_measure(50))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout):
    return json.loads(stdout)


def mexp_process(*args, **kwargs):
    """Start a Python process with this checkout's mexp importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, *args], env=env, stderr=subprocess.PIPE, **kwargs)


class TestCheegerCommand:
    def test_vertex_flavor(self, capsys, c6_file):
        code, out, _ = run(capsys, "cheeger", "--input", c6_file, "--flavor", "vertex")
        assert code == 0
        report = report_of(out)
        assert report["results"]["value"] == "2/3"
        assert report["results"]["witness"] == [0, 1, 2]
        assert report["version"]

    def test_conductance_flavor_uses_auxiliary_walk(self, capsys, c6_file):
        code, out, _ = run(capsys, "cheeger", "--input", c6_file, "--flavor", "conductance")
        assert code == 0
        assert report_of(out)["results"]["value"] == "1/3"

    def test_file_conductance_respected(self, capsys, tmp_path):
        g = make_cycle(4)
        cond = {e: Fraction(3) for e in g.edges}
        path = tmp_path / "c4.json"
        path.write_text(dump_graph(g, cond), encoding="utf-8")
        code, out, _ = run(capsys, "cheeger", "--input", str(path), "--flavor", "conductance")
        assert code == 0
        assert report_of(out)["results"]["value"] == "1/2"  # cut 6 over mu(A) = 12

    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, out, err = run(capsys, "cheeger", "--input", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_vertex_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices":[{"id":0,"m":"1"},{"id":1,"m":"1"}],"edges":[[0,5]]}',
            encoding="utf-8",
        )
        code, _, err = run(capsys, "cheeger", "--input", str(path))
        assert code == 2 and "unknown vertex" in err

    @pytest.mark.parametrize("section", ["edges", "conductance"])
    @pytest.mark.parametrize("first", [True, [1]], ids=["true", "list"])
    def test_labels_match_by_json_type(self, capsys, tmp_path, section, first):
        # true is not vertex 1, 2.0 is not vertex 2 and a list is no label,
        # in either section
        doc = {"vertices": [{"id": v, "m": "1"} for v in (1, 2, 3)], "edges": [[1, 2], [2, 3]]}
        doc[section] = [[first, 2, "5"], [2.0, 3, "1"]]
        if section == "edges":
            doc[section] = [pair[:2] for pair in doc[section]]
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "cheeger", "--input", str(path), "--flavor", "conductance")
        assert code == 2 and out == ""
        assert f"{section}[0]: unknown vertex {first!r}" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "cheeger", "--input", "/nonexistent.json")
        assert code == 2


class TestSpectrumCommand:
    def test_delta(self, capsys, c6_file):
        code, out, _ = run(capsys, "spectrum", "--input", c6_file, "--operator", "delta")
        assert code == 0
        results = report_of(out)["results"]
        assert results["gap"] == pytest.approx(0.5, abs=1e-9)
        assert results["zero_multiplicity"] == 1
        assert len(results["eigenvalues"]) == 6

    def test_lapack_failure_is_not_a_usage_error(self, capsys, c6_file, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run(capsys, "spectrum", "--input", c6_file)
        assert code == 3 and out == ""
        assert "Traceback" in err and "LinAlgError: Eigenvalues did not converge" in err

    def test_lambda(self, capsys, c6_file):
        code, out, _ = run(capsys, "spectrum", "--input", c6_file, "--operator", "lambda")
        assert code == 0
        assert report_of(out)["results"]["gap"] == pytest.approx(2.0, abs=1e-9)


SCALED_COMMANDS = [
    ["spectrum", "--operator", "delta"],
    ["spectrum", "--operator", "lambda"],
    ["poincare", "--p", "2"],
    ["verify", "--theorem", "lp-poincare"],
    ["verify", "--theorem", "gap-controls"],
]


class TestScaledMasses:
    """C6 with every mass multiplied by one constant has the counting
    measure's spectra, energy ratios and verdicts, also where the masses
    themselves leave the float range."""

    def headline(self, argv, results):
        if argv[0] == "verify":
            return [results["holds"], *(side for check in results["checks"] for side in (check["lhs"], check["rhs"]))]
        return results["gap" if argv[0] == "spectrum" else "estimate"]

    @pytest.mark.parametrize(
        "mass",
        [Fraction(10**310), Fraction(1, 10**400), Fraction(10**200), Fraction(1, 10**200)],
        ids=["1e310", "1e-400", "1e200", "1e-200"],
    )
    @pytest.mark.parametrize("argv", SCALED_COMMANDS, ids=" ".join)
    def test_scaled_masses_give_the_counting_results(self, capsys, tmp_path, c6_file, mass, argv):
        # these used to exit 3 (OverflowError), 2 (a positive mass read as 0.0),
        # 1 (a NaN energy ratio), or 0 with an infinite min_ratio
        path = tmp_path / "scaled.json"
        path.write_text(dump_graph(make_cycle(6).with_measure([mass] * 6)), encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 0, err
        scaled = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-finite {name} in the report"))["results"]
        plain = report_of(run(capsys, argv[0], "--input", c6_file, *argv[1:])[1])["results"]
        assert self.headline(argv, scaled) == pytest.approx(self.headline(argv, plain), rel=1e-12)

    @pytest.mark.parametrize("argv", SCALED_COMMANDS, ids=" ".join)
    def test_masses_beyond_the_float_range_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "span.json"
        path.write_text(dump_graph(make_cycle(6).with_measure([2**1100, 1, 1, 1, 1, 1])), encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "float range" in err and "2^-1000" in err, err


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "theorem",
        [
            "cheeger-sandwich",
            "measured-sandwich",
            "gap-controls",
            "poincare-to-cheeger",
            "coarea",
            "lp-poincare",
            "auxiliary-walk",
        ],
    )
    def test_holds_exits_zero(self, capsys, c6_file, theorem):
        code, out, _ = run(capsys, "verify", "--input", c6_file, "--theorem", theorem)
        assert code == 0
        assert report_of(out)["results"]["holds"] is True

    @pytest.mark.parametrize(
        "theorem", ["measured-sandwich", "gap-controls", "poincare-to-cheeger", "auxiliary-walk"]
    )
    def test_partial_support_exits_two(self, capsys, tmp_path, theorem):
        path = tmp_path / "k2.json"
        path.write_text(dump_graph(MeasuredGraph.build(2, [(0, 1)], [1, 0])), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--input", str(path), "--theorem", theorem)
        assert code == 2 and out == ""
        assert "full support" in err and "Traceback" not in err

    def test_weak_bridge_holds(self, capsys, tmp_path):
        # the bridge mode 1e-11 is the gap, not part of the kernel, so
        # gap <= 2c holds
        path = tmp_path / "bridge.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": v, "m": "1"} for v in "abcd"],
                    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
                    "conductance": [["a", "b", "1"], ["b", "c", "1/100000000000"], ["c", "d", "1"]],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "verify", "--input", str(path), "--theorem", "cheeger-sandwich")
        assert code == 0 and report_of(out)["results"]["holds"] is True
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert report_of(out)["results"]["zero_multiplicity"] == 1

    def test_distance_bound_with_sets(self, capsys, c6_file):
        code, out, _ = run(
            capsys,
            "verify",
            "--input",
            c6_file,
            "--theorem",
            "distance-bound",
            "--set-a",
            "0",
            "--set-b",
            "3",
        )
        assert code == 0
        results = report_of(out)["results"]
        assert results["inputs"]["distance"] == 3

    def test_distance_bound_seeded_sets(self, capsys, c6_file):
        code, out, _ = run(
            capsys, "verify", "--input", c6_file, "--theorem", "distance-bound", "--seed", "4"
        )
        assert code == 0

    def test_overlapping_sets_exit_two(self, capsys, c6_file):
        code, _, err = run(
            capsys,
            "verify",
            "--input",
            c6_file,
            "--theorem",
            "distance-bound",
            "--set-a",
            "0,1",
            "--set-b",
            "1,2",
        )
        assert code == 2 and "disjoint" in err

    @pytest.mark.parametrize(
        "option",
        [("--tolerance", "nan"), ("--tolerance", "-1"), ("--p", "nan")],
        ids=["tolerance-nan", "tolerance-negative", "p-nan"],
    )
    def test_bad_number_exits_two_not_one(self, capsys, c6_file, option):
        code, out, err = run(capsys, "verify", "--input", c6_file, "--theorem", "lp-poincare", "--trials", "5", *option)
        assert code == 2 and out == "" and err

    @pytest.mark.parametrize("theorem", ["coarea", "lp-poincare"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_two(self, capsys, c6_file, theorem, trials):
        # a verifier with no trials tested nothing and used to report holds
        code, out, err = run(capsys, "verify", "--input", c6_file, "--theorem", theorem, "--trials", trials)
        assert code == 2 and out == "" and "at least one trial" in err

    def test_coarea_runs_clean(self, capsys, c6_file):
        code, out, _ = run(capsys, "verify", "--input", c6_file, "--theorem", "coarea", "--trials", "25")
        assert code == 0
        assert report_of(out)["results"]["inputs"]["mismatches"] == 0

    @pytest.mark.parametrize("given", ["--set-a", "--set-b"])
    def test_one_set_alone_exits_two(self, capsys, tmp_path, given):
        # a lone set used to be dropped for a random pair
        path = tmp_path / "c8.json"
        path.write_text(dump_graph(make_cycle(8)), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--input", str(path), "--theorem", "distance-bound", given, "0")
        assert code == 2 and out == ""
        assert "both --set-a and --set-b" in err

    def test_unknown_label_exits_two(self, capsys, c6_file):
        code, _, err = run(
            capsys, "verify", "--input", c6_file, "--theorem", "distance-bound", "--set-a", "0", "--set-b", "x"
        )
        assert code == 2 and "unknown vertex label 'x'" in err

    @pytest.mark.parametrize(
        "token, label",
        [("true", True), ("false", False), ("null", None), ("1", 1), ("2", 2), ("2.0", 2.0), ("0.5", 0.5)],
    )
    def test_labels_read_as_documents_read_them(self, capsys, tmp_path, token, label):
        # a token names a vertex by the JSON type and value it spells, as ids in documents do
        ids = [True, None, 1, 2.0, 2, 0.5, False]
        doc = {"vertices": [{"id": v, "m": "1"} for v in ids], "edges": [[u, v] for u, v in zip(ids, ids[1:])]}
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        other = "true" if token == "false" else "false"
        argv = ["verify", "--input", str(path), "--theorem", "distance-bound", "--set-a", token, "--set-b", other]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        [got] = report_of(out)["results"]["inputs"]["set_a"]
        assert (type(got), got) == (type(label), label)

    @pytest.mark.parametrize("token", ["+1", "01", "1_0", "\u0661", "[" * 5000])
    def test_tokens_no_document_spells_exit_two(self, capsys, tmp_path, token):
        # int() reads the first four as 1, and json.loads recurses out on the last
        path = tmp_path / "c8.json"
        path.write_text(dump_graph(make_cycle(8)), encoding="utf-8")
        argv = ["verify", "--input", str(path), "--theorem", "distance-bound", "--set-a", token, "--set-b", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unknown vertex label {token!r}" in err, err


class TestFamilyCommand:
    def test_directory_report(self, capsys, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        for i, n in enumerate((4, 6, 8)):
            (fam / f"g{i}.json").write_text(dump_graph(make_cycle(n)), encoding="utf-8")
        code, out, _ = run(capsys, "family", "--dir", str(fam), "--threshold", "1/5")
        assert code == 0
        results = report_of(out)["results"]
        assert [row["cheeger"] for row in results["rows"]] == ["1", "2/3", "1/2"]
        assert results["expander_verdict"] is True
        assert results["ghostly"] == "consistent with ghostly"

    def test_empty_directory_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "family", "--dir", str(tmp_path), "--threshold", "1/5")
        assert code == 2

    def test_single_vertex_member_is_partial(self, capsys, single_vertex_family):
        # its gap was asked for and the command exited 2: a single vertex has no positive eigenvalue
        code, out, err = run(capsys, "family", "--dir", single_vertex_family, "--threshold", "1/5")
        assert code == 0, err
        results = report_of(out)["results"]
        assert [row["gap"] is None for row in results["rows"]] == [False, True]
        assert results["rows"][1]["cheeger"] is None
        assert results["partial"] is True and results["expander_verdict"] is None


class TestCertifyCommand:
    def test_small_family(self, capsys, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        rng = random.Random(3)
        for i, n in enumerate((12, 16)):
            g = random_regular(n, 3, rng, probability_counting_measure(n))
            (fam / f"g{i}.json").write_text(dump_graph(g), encoding="utf-8")
        code, out, _ = run(capsys, "certify", "--dir", str(fam), "--p", "2")
        assert code == 0
        results = report_of(out)["results"]
        assert results["kappa"] > 0
        for row in results["rows"]:
            assert row["skipped"] is None
            assert row["symmetric"] and row["probability"]

    def test_single_vertex_member_exits_two(self, capsys, single_vertex_family):
        code, out, err = run(capsys, "certify", "--dir", single_vertex_family, "--p", "2")
        assert code == 2 and out == ""
        assert "member 1 has a single vertex" in err

    def test_member_past_the_engine_limit_uses_the_spectral_bound(self, capsys, tmp_path):
        # the engine refuses n = 50 at any cap; certify used to pass it to the
        # engine whenever n <= --cap and exit 2
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "g0.json").write_text(dump_graph(regular_50()), encoding="utf-8")
        (fam / "g1.json").write_text(dump_graph(make_cycle(16, probability_counting_measure(16))), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(fam), "--p", "2", "--cap", "60")
        assert code == 0, err
        assert report_of(out)["results"]["cheeger_sources"] == ["spectral-bound", "exact"]

    def test_tolerance_decides_borderline_energy(self, capsys, tmp_path, monkeypatch):
        # a tested energy 1e-6 above the bound violates at the default 1e-8
        # slack and holds once --tolerance exceeds the excess
        fam = tmp_path / "fam"
        fam.mkdir()
        g = make_cycle(16, probability_counting_measure(16))
        (fam / "g0.json").write_text(dump_graph(g), encoding="utf-8")

        def borderline(*args, **kwargs):
            cert = generalised_certificate(*args, **kwargs)
            row = dataclasses.replace(cert.rows[0], max_tested_energy=cert.energy_bound + 1e-6)
            return dataclasses.replace(cert, rows=(row,))

        monkeypatch.setattr(cli, "generalised_certificate", borderline)
        code, _, _ = run(capsys, "certify", "--dir", str(fam), "--p", "2")
        assert code == 1
        code, _, _ = run(capsys, "certify", "--dir", str(fam), "--p", "2", "--tolerance", "1e-5")
        assert code == 0

    def c16_family(self, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "g0.json").write_text(dump_graph(make_cycle(16, probability_counting_measure(16))), encoding="utf-8")
        return str(fam)

    def test_asymmetric_pair_measure_violates(self, capsys, tmp_path, monkeypatch):
        def asymmetric(*args, **kwargs):
            cert = generalised_certificate(*args, **kwargs)
            return dataclasses.replace(cert, rows=(dataclasses.replace(cert.rows[0], symmetric=False),))

        fam = self.c16_family(tmp_path)
        assert run(capsys, "certify", "--dir", fam, "--p", "2")[0] == 0
        monkeypatch.setattr(cli, "generalised_certificate", asymmetric)
        assert run(capsys, "certify", "--dir", fam, "--p", "2")[0] == 1

    def test_flags_are_read_off_the_emitted_pair_measure(self, capsys, tmp_path, monkeypatch):
        # one pair weight doubled: nu still sums to 1 on pairs beyond the
        # cutoff, but nu(x, y) != nu(y, x)
        pair_weights = families._pair_weights

        def asymmetric(scaled, beyond):
            far = pair_weights(scaled, beyond)
            x, y = np.argwhere(far)[0]
            far[x, y] *= 2
            return far

        monkeypatch.setattr(families, "_pair_weights", asymmetric)
        code, out, _ = run(capsys, "certify", "--dir", self.c16_family(tmp_path), "--p", "2", "--emit-nu")
        assert code == 1
        row = report_of(out)["results"]["rows"][0]
        assert (row["symmetric"], row["probability"], row["supported_off_cutoff"]) == (False, True, True)

    def test_skipped_row_flags_are_not_violations(self, capsys, tmp_path, monkeypatch):
        # a skipped member has no pair measure, so its flags are None
        def with_skipped(*args, **kwargs):
            cert = generalised_certificate(*args, **kwargs)
            skipped = CertificateRow(index=1, size=4, gamma=Fraction(1, 4), skipped="peak mass 1/4 >= 1/8")
            return dataclasses.replace(cert, rows=(*cert.rows, skipped))

        monkeypatch.setattr(cli, "generalised_certificate", with_skipped)
        code, out, _ = run(capsys, "certify", "--dir", self.c16_family(tmp_path), "--p", "2")
        assert code == 0
        assert report_of(out)["results"]["rows"][1]["symmetric"] is None

    @pytest.mark.parametrize("table", ["[[1]]", '{"0": 1}', "[true]", '["1"]', "[2, 1]", "[0, 1", "[0, NaN]"])
    def test_malformed_rho_exits_two(self, capsys, tmp_path, table):
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "g0.json").write_text(dump_graph(make_cycle(16, probability_counting_measure(16))), encoding="utf-8")
        rho = tmp_path / "rho.json"
        rho.write_text(table, encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(fam), "--p", "1", "--rho", str(rho))
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "Traceback" not in err

    def test_rho_table_file(self, capsys, tmp_path):
        fam = tmp_path / "fam"
        fam.mkdir()
        g = make_cycle(16, probability_counting_measure(16))
        (fam / "g0.json").write_text(dump_graph(g), encoding="utf-8")
        rho = tmp_path / "rho.json"
        rho.write_text("[0, 1, 2, 3, 4, 5, 6, 7, 8]", encoding="utf-8")
        code, out, _ = run(capsys, "certify", "--dir", str(fam), "--p", "1", "--rho", str(rho))
        assert code == 0


    def c16_with_rho(self, tmp_path, table, p="2"):
        rho = tmp_path / "rho.json"
        rho.write_text(table, encoding="utf-8")
        return "--dir", self.c16_family(tmp_path), "--p", p, "--rho", str(rho)

    def test_violating_pairs_are_json_int_pairs(self, capsys, tmp_path):
        # a modulus that vanishes at distance 1 forbids the default maps to
        # move across an edge, so no scale brings them inside it
        code, out, _ = run(capsys, "certify", *self.c16_with_rho(tmp_path, "[0, 0, 1]"))
        assert code == 4  # no map was tested against the energy bound
        results = report_of(out)["results"]
        assert results["untested"] is True and results["rows"][0]["untested"] is True
        maps = results["rows"][0]["test_maps"]
        assert [m["name"] for m in maps] == ["distance-from-12", "distance-from-13", "cone-0", "cone-1"]
        for m in maps:
            assert m["accepted"] is False and m["energy"] is None
            pair = m["violating_pair"]
            assert isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)
        assert maps[0]["violating_pair"] == [10, 11]

    def test_steep_modulus_is_tested(self, capsys, tmp_path):
        # rho(2) - rho(1) = 9 > rho(1): unscaled, the distance maps break this modulus
        code, out, err = run(capsys, "certify", *self.c16_with_rho(tmp_path, "[0, 1, 10]"))
        assert code == 0, err
        results = report_of(out)["results"]
        row = results["rows"][0]
        assert results["untested"] is False and row["untested"] is False
        assert [m["accepted"] for m in row["test_maps"]] == [True] * 4
        assert row["max_tested_energy"] <= results["energy_bound"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p, table",
        [("1.5", "[0, 1, 1e300]"), ("2", "[0, 1, 1e300]"), ("3", "[0, 1, 1e300]"), ("3", "[0, 1, 1e150]")]
        + [(p, "[0, 1, 1.7e308]") for p in ("1.5", "2", "3")],
    )
    def test_huge_modulus_is_tested(self, capsys, tmp_path, p, table):
        # the unscaled maps' gaps reach the modulus' top value, whose p-th power overflows;
        # at 1.7e308 an offset of the same size would overflow the cones themselves
        code, out, err = run(capsys, "certify", *self.c16_with_rho(tmp_path, table, p))
        assert code == 0, err
        results = report_of(out)["results"]
        row = results["rows"][0]
        assert results["untested"] is False
        assert [m["accepted"] for m in row["test_maps"]] == [True] * 4
        assert row["max_tested_energy"] <= results["energy_bound"]


GOLDEN_DOCUMENT = """{
  "vertices": [{"id": "a", "m": "1"}, {"id": "b", "m": "2"}, {"id": "c", "m": "3"}, {"id": "d", "m": "1/2"}],
  "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]],
  "conductance": [["a", "b", "1"], ["b", "c", "1/3"], ["c", "d", "2"], ["d", "a", "5/4"], ["a", "c", "1/7"]]
}"""

# Each theorem of the table on GOLDEN_DOCUMENT: its options, its checks as
# (label, lhs, rhs, slack), all holding, and its inputs.  A rational side
# renders as "p/q", a float side as a JSON number and a count as an int;
# inputs keep their own rendering (gaps as repr strings)
GOLDEN_VERIFY = {
    "cheeger-sandwich": (
        [],
        [
            ("c^2/2 <= gap", "21025/195938", 0.7059414246435105, 0.5986370732670547),
            ("gap <= 2c", 0.7059414246435105, "290/313", 0.22057614724147356),
        ],
        {"n": 4, "cheeger": "145/313", "witness": ["a", "b"], "gap": "0.7059414246435105", "tolerance": 1e-08},
    ),
    "measured-sandwich": (
        [],
        [
            ("c^2 s^3 (1+s) / (2 K^3) <= gap", "343/2519424", 5.378773970295792, 5.378637828066457),
            ("gap <= 2 (1+s) K c / s", 5.378773970295792, "49", 43.62122602970421),
        ],
        {"n": 4, "cheeger": "7/6", "s": "1/6", "K": 3, "gap": "5.378773970295792", "tolerance": 1e-08},
    ),
    "gap-controls": (
        [],
        [
            ("s(1+s)/K * gap' <= gap", 0.06421152871921755, 5.378773970295792, 5.314562441576574),
            ("gap <= K^2(1+s)/s^2 * gap'", 5.378773970295792, 374.4816354904767, 369.1028615201809),
        ],
        {
            "n": 4,
            "s": "1/6",
            "K": 3,
            "gap": "5.378773970295792",
            "aux_gap": "0.9906921573822136",
            "tolerance": 1e-08,
        },
    ),
    "distance-bound": (
        ["--set-a", "a", "--set-b", "c"],
        [
            (
                "gap * d(A,B)^2 <= (1/mu(A)+1/mu(B)) a(E - E_A - E_B)",
                0.7059414246435105,
                "162373/41808",
                3.1778367996197883,
            ),
        ],
        {
            "n": 4,
            "set_a": ["a"],
            "set_b": ["c"],
            "distance": 1,
            "gap": "0.7059414246435105",
            "rhs": "162373/41808",
            "tolerance": 1e-08,
        },
    ),
    "poincare-to-cheeger": (
        [],
        [("s gap / (2(1+s)K) <= cheeger", 0.12806604691180457, "7/6", 1.0386006197548623)],
        {"n": 4, "cheeger": "7/6", "s": "1/6", "K": 3, "gap": "5.378773970295792", "tolerance": 1e-08},
    ),
    "coarea": (
        ["--trials", "5", "--seed", "0"],
        [("level-set identity mismatches == 0", 0, 0, 0)],
        {"n": 4, "trials": 5, "seed": 0, "mismatches": 0},
    ),
    "lp-poincare": (  # min_ratio re-pinned for the trials drawn from one randbytes call
        ["--trials", "5", "--seed", "0"],
        [("c_p <= min energy ratio", 0.0067065219610284894, 0.8997102450902834, 0.8930037231292549)],
        {
            "n": 4,
            "p": 2.0,
            "cheeger": "145/313",
            "c_p": "0.0067065219610284894",
            "min_ratio": "0.8997102450902834",
            "trials": 5,
            "seed": 0,
            "tolerance": 1e-08,
        },
    ),
    "auxiliary-walk": (
        [],
        [
            ("mismatched edge conductances == 0", 0, 0, 0),
            ("support mismatches == 0", 0, 0, 0),
            ("vertices outside the measure sandwich == 0", 0, 0, 0),
            ("c s / K <= conductance cheeger", "7/108", "7/11", "679/1188"),
        ],
        {"n": 4, "cheeger": "7/6", "s": "1/6", "K": 3},
    ),
}

CAP_ERROR = (
    "exact mode infeasible: 8 vertices exceed the enumeration cap 6 (2^8 subsets); "
    "raise the cap only if the runtime is acceptable"
)
SKIPPED_C4 = "peak mass 1/4 >= 1/8: cutoff would be nonpositive"


def assert_same(got, expected, where="results"):
    """Exact key sets, exact strings, ints and flags, floats to 1e-12
    relative (1e-12 absolute for round-off zeros such as kernel eigenvalues)."""
    if isinstance(expected, float):
        assert type(got) is float and got == pytest.approx(expected, rel=1e-12, abs=1e-12), where
    elif isinstance(expected, dict):
        assert type(got) is dict and set(got) == set(expected), where
        for key in expected:
            assert_same(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert type(got) is list and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same(g, e, f"{where}[{i}]")
    else:
        assert type(got) is type(expected) and got == expected, where


class TestGoldenResults:
    """Every rendered result of spectrum, poincare, verify, family and
    certify, pinned value for value."""

    @pytest.fixture
    def document(self, tmp_path):
        path = tmp_path / "k4-minus-edge.json"
        path.write_text(GOLDEN_DOCUMENT, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def cycles(self, tmp_path):
        fam = tmp_path / "cycles"
        fam.mkdir()
        for i, n in enumerate((4, 6, 8)):
            (fam / f"g{i}.json").write_text(dump_graph(make_cycle(n)), encoding="utf-8")
        return str(fam)

    @pytest.fixture
    def certified(self, tmp_path):
        # C4 is skipped (peak mass 1/4); C24 with masses 1, 2, 1, ... has
        # peak 1/18, so neighbours fall inside the cutoff and nu is not uniform
        fam = tmp_path / "certified"
        fam.mkdir()
        (fam / "g0.json").write_text(dump_graph(make_cycle(4)), encoding="utf-8")
        (fam / "g1.json").write_text(dump_graph(make_cycle(24, [1, 2] * 12)), encoding="utf-8")
        return str(fam)

    def results(self, capsys, *argv, code=0):
        got, out, err = run(capsys, *argv)
        assert got == code, err
        return report_of(out)["results"]

    def test_spectrum_delta(self, capsys, document):
        assert_same(
            self.results(capsys, "spectrum", "--input", document, "--operator", "delta"),
            {
                "operator": "delta",
                "eigenvalues": [0.0, 0.7059414246435105, 1.352735588311353, 1.9413229870451367],
                "gap": 0.7059414246435105,
                "zero_multiplicity": 1,
            },
        )

    def test_spectrum_lambda(self, capsys, document):
        assert_same(
            self.results(capsys, "spectrum", "--input", document, "--operator", "lambda"),
            {
                "operator": "lambda",
                "eigenvalues": [0.0, 5.378773970295792, 9.335121055258096, 11.95277164111278],
                "gap": 5.378773970295792,
                "zero_multiplicity": 1,
            },
        )

    @pytest.mark.parametrize("theorem", list(THEOREMS))
    def test_verify(self, capsys, document, theorem):
        options, checks, inputs = GOLDEN_VERIFY[theorem]
        assert_same(
            self.results(capsys, "verify", "--input", document, "--theorem", theorem, *options),
            {
                "name": theorem,
                "holds": True,
                "checks": [
                    {"label": label, "lhs": lhs, "rhs": rhs, "slack": slack, "holds": True}
                    for label, lhs, rhs, slack in checks
                ],
                "inputs": inputs,
            },
        )

    # Re-pinned for the Newton finish and the canonical sign (largest entry
    # positive).  The estimates are the 800-iteration loop's to 1e-12; at
    # p = 2 the delta eigenvector is the optimum and the only row, and takes
    # no step.  At p = 1.5 the ratio is flat to second order at the optimum,
    # so the minimizer (to about 1e-8) and gradient_norm are round-off:
    # re-pinned for the plain least-ratio pick among the polished rows.
    @pytest.mark.parametrize(
        "p, method, estimate, gradient_norm, iterations, minimizer",
        [
            (
                2.0,
                "eigensolve",
                0.7059414246435104,
                7.572906315770594e-16,
                0,
                [0.32441744016323176, 0.6461482234682799, -0.5411708632557857, -0.429394800375726],
            ),
            (
                1.5,
                "optimizer",
                0.7534301401265692,
                3.7273330903418144e-17,
                18,
                [0.4264487700872195, 0.5682402177927598, -0.5137976101962787, -0.4808913776837006],
            ),
        ],
        ids=["p2", "p1.5"],
    )
    def test_poincare(self, capsys, document, p, method, estimate, gradient_norm, iterations, minimizer):
        assert_same(
            self.results(capsys, "poincare", "--input", document, "--p", str(p), "--restarts", "4"),
            {
                "p": p,
                "method": method,
                "estimate": estimate,
                "restarts": 4,
                "converged": True,
                "gradient_norm": gradient_norm,
                "iterations": iterations,
                "minimizer": minimizer,
            },
        )

    def test_family_with_a_member_beyond_the_cap(self, capsys, cycles):
        def row(index, n, cheeger, gap, gamma, error=None):
            return {"index": index, "n": n, "cheeger": cheeger, "gap": gap, "K": 2, "s": "1", "gamma": gamma, "error": error}

        assert_same(
            self.results(capsys, "family", "--dir", cycles, "--threshold", "1/5", "--cap", "6"),
            {
                "rows": [
                    row(0, 4, "1", 4.0, "1/4"),
                    row(1, 6, "2/3", 1.9999999999999982, "1/6"),
                    row(2, 8, None, 1.171572875253808, "1/8", CAP_ERROR),
                ],
                "threshold": "1/5",
                "uniform_valency": 2,
                "ratio_floor": "1",
                "ghostly": "consistent with ghostly",
                "expander_verdict": None,
                "partial": True,
            },
        )

    def certificate(self, nu=None):
        skipped = {
            "index": 0,
            "n": 4,
            "gamma": "1/4",
            "skipped": SKIPPED_C4,
            "untested": True,
            "cutoff": None,
            "off_diagonal_mass": None,
            "symmetric": None,
            "probability": None,
            "supported_off_cutoff": None,
            "max_tested_energy": None,
            "test_maps": [],
        }

        def accepted(name, energy):
            return {"name": name, "accepted": True, "energy": energy, "violating_pair": None}

        member = {
            "index": 1,
            "n": 24,
            "gamma": "1/18",
            "skipped": None,
            "cutoff": 1.1699250014423124,
            "off_diagonal_mass": "95/108",
            "symmetric": True,
            "probability": True,
            "supported_off_cutoff": True,
            "untested": False,
            "max_tested_energy": 27.957894736842107,
            "test_maps": [
                accepted("distance-from-12", 27.2),
                accepted("distance-from-13", 27.957894736842107),
                accepted("cone-0", 19.0388172332788),
                accepted("cone-1", 17.22455517122754),
            ],
        }
        if nu is not None:
            member["nu"] = nu
        return {
            "rows": [skipped, member],
            "p": 2.0,
            "kappa": 1494136.5210741186,
            "energy_bound": 11953092.168592948,
            "K": 2,
            "ratio_floor": "1/2",
            "cheeger_floor": 0.011335886102948629,
            "cheeger_sources": ["exact", "spectral-bound"],
            "untested": False,
        }

    def test_certify_with_every_member_skipped_is_untested(self, capsys, cycles):
        # C4, C6 and C8 have peak masses 1/4, 1/6 and 1/8, none below 1/8
        results = self.results(capsys, "certify", "--dir", cycles, "--p", "1.5", code=4)
        assert results["untested"] is True and results["kappa"] == 32.0
        assert [row["skipped"] is not None and row["untested"] for row in results["rows"]] == [True] * 3

    def test_certify(self, capsys, certified):
        assert_same(
            self.results(capsys, "certify", "--dir", certified, "--p", "2", "--cap", "10"),
            self.certificate(),
        )

    def test_certify_emits_nu_on_certified_rows_only(self, capsys, certified):
        # m(x) m(y) over the pairs at cycle distance 2 or more, renormalised
        m = [1, 2] * 12
        far = {(x, y): m[x] * m[y] for x in range(24) for y in range(24) if min((x - y) % 24, (y - x) % 24) >= 2}
        total = sum(far.values())
        nu = {f"{x},{y}": str(Fraction(w, total)) for (x, y), w in far.items()}
        assert len(nu) == 504 and nu["0,2"] == "1/1140" and nu["0,3"] == "1/570"
        results = self.results(capsys, "certify", "--dir", certified, "--p", "2", "--cap", "10", "--emit-nu")
        assert_same(results, self.certificate(nu))
        assert list(results["rows"][1]["nu"]) == list(nu)  # row-major pair order


def rendered_dataclasses():
    """The result dataclasses that commands return, and those nested in their fields."""
    todo, seen = [SpectralResult, PoincareEstimate, InequalityReport, FamilyReport, GeneralisedCertificate], []
    while todo:
        item = todo.pop()
        todo.extend(typing.get_args(item))  # tuple[FamilyRow, ...] -> FamilyRow
        if dataclasses.is_dataclass(item) and item not in seen:
            seen.append(item)
            todo.extend(typing.get_type_hints(item).values())
    return seen


class TestResultVocabulary:
    def test_every_key_renames_a_rendered_field(self):
        classes = rendered_dataclasses()
        assert {c.__name__ for c in classes} == {
            "SpectralResult",
            "PoincareEstimate",
            "InequalityReport",
            "BoundCheck",
            "FamilyReport",
            "FamilyRow",
            "GeneralisedCertificate",
            "CertificateRow",
            "TestMapResult",
        }
        fields = {f.name for c in classes for f in dataclasses.fields(c)}
        assert set(cli._KEYS) <= fields

    def test_no_two_fields_share_a_key(self):
        for c in rendered_dataclasses():
            keys = [cli._KEYS.get(f.name, f.name) for f in dataclasses.fields(c)]
            assert len(keys) == len(set(keys)), c.__name__


class TestGenerate:
    @pytest.mark.parametrize("n, k, code", [(12, 10, 0), (12, 6, 0), (4, 1, 2)])
    def test_random_regular_exit_codes(self, capsys, n, k, code):
        got, out, err = run(capsys, "generate", "random_regular", "--n", str(n), "--k", str(k))
        assert got == code and "Traceback" not in err
        if code == 0:
            assert len(json.loads(out)["edges"]) == n * k // 2

    def test_writes_loadable_graph(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5

    def test_pipe_into_cheeger(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "random_regular", "--n", "10", "--k", "3", "--seed", "7")
        assert code == 0
        path = tmp_path / "rr.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "cheeger", "--input", str(path))
        assert code == 0

    def test_rational_measure(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--n", "5", "--measure", "rationals", "--seed", "3")
        assert code == 0
        masses = [Fraction(v["m"]) for v in json.loads(out)["vertices"]]
        assert len(masses) == 5 and all(m > 0 for m in masses) and masses != [1] * 5

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "generate", "nonsense")
        assert code == 2

    def test_missing_parameter_exits_two(self, capsys):
        code, out, err = run(capsys, "generate", "random_regular", "--n", "10")
        assert code == 2 and out == ""
        assert "generator 'random_regular' needs parameter k" in err, err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["cycle", "--n", "4", "--k", "7"], "k"),
            (["cycle", "--n", "4", "--k", "7", "--d", "3"], "k"),
            (["hypercube", "--d", "2", "--n", "99"], "n"),
            (["random_regular", "--n", "10", "--k", "3", "--d", "2"], "d"),
        ],
    )
    def test_extra_parameter_exits_two(self, capsys, argv, name):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 2 and out == ""
        assert f"generator {argv[0]!r} takes no parameter {name}" in err, err


class TestDeterminism:
    def test_rational_fields_reproduce_bit_for_bit(self, capsys, c6_file):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "verify", "--input", c6_file, "--theorem", "measured-sandwich"
            )
            assert code == 0
            report = report_of(out)
            report.pop("timing")
            outputs.append(json.dumps(report, sort_keys=True))
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_unexpected_exception_is_an_internal_fault(self, capsys, c6_file, monkeypatch):
        def broken(graph, cap):
            raise RuntimeError("broken invariant")

        monkeypatch.setattr(cli, "cheeger_vertex", broken)
        code, out, err = run(capsys, "cheeger", "--input", c6_file)
        assert code == 3 and out == ""
        assert "Traceback" in err and "RuntimeError: broken invariant" in err

    def test_numpy_value_error_is_an_internal_fault(self, capsys, c6_file, monkeypatch):
        # a plain ValueError from inside numpy is a fault, not bad input
        def fail(matrix):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run(capsys, "spectrum", "--input", c6_file)
        assert code == 3 and out == ""
        assert "Traceback" in err and "ValueError: array must not contain infs or NaNs" in err

    def test_directory_input_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "cheeger", "--input", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["cheeger"], ["verify", "--theorem", "measured-sandwich"]], ids=["cheeger", "verify"]
    )
    def test_graph_beyond_cap_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "c8.json"
        path.write_text(dump_graph(make_cycle(8)), encoding="utf-8")
        code, out, err = run(capsys, *argv, "--input", str(path), "--cap", "5")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "exact mode infeasible" in err and "Traceback" not in err

    def test_engine_limit_is_named_past_any_cap(self, capsys, tmp_path):
        path = tmp_path / "regular50.json"
        path.write_text(dump_graph(regular_50()), encoding="utf-8")
        code, out, err = run(capsys, "cheeger", "--input", str(path), "--cap", "60")
        assert code == 2 and out == ""
        assert "50 vertices exceed the engine's own limit of 48 vertices (2^50 subsets), which no cap raises" in err, err

    @pytest.mark.parametrize("p, message", [("inf", "finite number"), ("1e6", "float range")])
    @pytest.mark.parametrize(
        "argv", [["poincare"], ["verify", "--theorem", "lp-poincare"]], ids=["poincare", "verify"]
    )
    def test_exponent_beyond_floats_exits_two(self, capsys, c6_file, argv, p, message):
        # these used to report a NaN estimate (exit 0), a false violation
        # (exit 1) or an OverflowError (exit 3)
        code, out, err = run(capsys, *argv, "--input", c6_file, "--p", p)
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and message in err, err

    def test_lp_poincare_floor_underflow_exits_two(self, capsys, c6_file):
        # c_p rounds to 0.0 here; the report used to compare 0.0 with a NaN
        # ratio and exit 1
        code, out, err = run(capsys, "verify", "--input", c6_file, "--theorem", "lp-poincare", "--p", "800")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "underflows" in err, err

    def test_certify_floor_underflow_exits_two(self, capsys, tmp_path):
        # kappa used to divide by the c_p that rounded to 0.0 (exit 3)
        for n in (40, 48):
            (tmp_path / f"c{n}.json").write_text(dump_graph(make_cycle(n)), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(tmp_path), "--p", "200")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "underflows" in err, err

    def test_certify_floor_overflow_exits_two(self, capsys, tmp_path):
        # the vertex Cheeger floor of K2 with masses 1 and 10000 is 10000, and
        # base^(p/2) in c_p used to raise OverflowError (exit 3)
        (tmp_path / "k2.json").write_text(dump_graph(make_complete(2).with_measure([1, 10000])), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(tmp_path), "--p", "500")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "float range" in err and "c_p" in err, err

    def test_certify_kappa_overflow_exits_two(self, capsys, tmp_path):
        # a small but representable c_p made kappa infinite, and certify
        # printed "kappa": Infinity with a vacuous bound (exit 0)
        for n in (40, 48):
            graph = make_cycle(n).with_measure([1000 ** (v % 2) for v in range(n)])
            (tmp_path / f"c{n}.json").write_text(dump_graph(graph), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(tmp_path), "--p", "46")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "float range" in err and "kappa" in err, err

    def test_certify_rho_power_overflow_exits_two(self, capsys, tmp_path):
        # rho(1)^p raised OverflowError in kappa (exit 3)
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "g0.json").write_text(dump_graph(make_cycle(16, probability_counting_measure(16))), encoding="utf-8")
        rho = tmp_path / "rho.json"
        rho.write_text("[0, 1e10, 1e10]", encoding="utf-8")
        code, out, err = run(capsys, "certify", "--dir", str(fam), "--rho", str(rho), "--p", "40")
        assert code == 2 and out == ""
        assert err.startswith("mexp: error:") and "float range" in err and "kappa" in err, err

    def test_non_utf8_input_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"vertices": [{"id": "\xe9", "m": "1"}]}')
        code, _, err = run(capsys, "cheeger", "--input", str(path))
        assert code == 2 and "not UTF-8" in err

    def test_lapack_failure_process_exits_three(self, c6_file):
        script = (
            "import sys, numpy\n"
            "def fail(matrix):\n"
            "    raise numpy.linalg.LinAlgError('Eigenvalues did not converge')\n"
            "numpy.linalg.eigh = fail\n"
            "from mexp.cli import main\n"
            f"sys.exit(main(['spectrum', '--input', {c6_file!r}]))\n"
        )
        proc = mexp_process("-c", script, stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 3 and out == b""
        assert b"LinAlgError" in err

    def test_closed_pipe_exits_quietly(self):
        # the document is far larger than a pipe buffer, so the writer meets
        # the closed pipe
        with mexp_process("-m", "mexp.cli", "generate", "cycle", "--n", "3000", stdout=subprocess.PIPE) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert head == b'{\n  "verti' and err == b""


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options_of(subparser):
    """Option dests and flags of a subcommand, without --help."""
    return [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]


class TestOptions:
    def test_parser_declares_34_options_over_7_subcommands(self):
        commands = subparsers()
        assert sorted(commands) == ["certify", "cheeger", "family", "generate", "poincare", "spectrum", "verify"]
        assert sum(len(options_of(p)) for p in commands.values()) == 34

    def test_every_option_is_read_by_its_handler(self):
        for name, p in subparsers().items():
            source = inspect.getsource(p.get_default("handler"))
            unread = [a.dest for a in options_of(p) if f"args.{a.dest}" not in source]
            assert not unread, f"{name}: {unread}"

    def test_theorem_choices_are_the_table(self):
        theorem = next(a for a in options_of(subparsers()["verify"]) if a.dest == "theorem")
        assert list(theorem.choices) == list(THEOREMS)

    @pytest.mark.parametrize(
        "argv",
        [
            ("cheeger", "--tolerance", "1e-3"),
            ("cheeger", "--seed", "1"),
            ("spectrum", "--cap", "5"),
            ("spectrum", "--tolerance", "1e-3"),
            ("spectrum", "--seed", "1"),
            ("poincare", "--p", "2", "--cap", "5"),
            ("poincare", "--p", "2", "--tolerance", "1e-3"),
            ("family", "--threshold", "1/5", "--tolerance", "1e-3"),
            ("family", "--threshold", "1/5", "--seed", "1"),
        ],
        ids=lambda argv: argv[0] + argv[-2],
    )
    def test_retired_option_is_rejected(self, capsys, c6_file, argv):
        command, *rest = argv
        where = ["--dir", os.path.dirname(c6_file)] if command == "family" else ["--input", c6_file]
        code, out, err = run(capsys, command, *where, *rest)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {rest[-2]} {rest[-1]}" in err

    def test_coarea_is_a_theorem_not_a_command(self, capsys, c6_file):
        code, _, err = run(capsys, "coarea", "--input", c6_file)
        assert code == 2 and "invalid choice: 'coarea'" in err

    def test_seed_is_null_for_commands_without_randomness(self, capsys, c6_file):
        code, out, _ = run(capsys, "spectrum", "--input", c6_file)
        assert code == 0 and report_of(out)["seed"] is None
        code, out, _ = run(capsys, "verify", "--input", c6_file, "--theorem", "coarea", "--seed", "5")
        assert code == 0 and report_of(out)["seed"] == 5


class TestParserCache:
    def test_one_parser_serves_calls_as_fresh_parsers_do(self, capsys, monkeypatch, c6_file):
        calls = [
            ("verify", "--input", c6_file, "--theorem", "coarea", "--trials", "7", "--seed", "3"),
            ("verify", "--input", c6_file, "--theorem", "no-such-theorem"),
            ("--help",),
            ("cheeger", "--input", c6_file),
        ]

        def outputs():
            results = []
            for argv in calls:
                code, out, err = run(capsys, *argv)
                if code == 0 and argv[0] != "--help":
                    out = report_of(out)
                    out.pop("timing")
                results.append((code, out, err))
            return results

        cached = outputs()
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert [code for code, _, _ in cached] == [0, 2, 0, 0]
        assert cached == outputs()


class TestReadme:
    def block(self, heading, language=""):
        text = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
        return re.search(rf"## {heading}\n\n```{language}\n(.*?)```", text, re.S).group(1)

    def cli_block(self):
        block = self.block("CLI")
        commands = {}
        for line in block.splitlines():
            head = re.match(r"mexp (\w+)", line)
            if head:
                current = commands.setdefault(head.group(1), set())
            current.update(re.findall(r"--[a-z][a-z-]*", line))
        return commands

    def test_cli_block_matches_the_parser(self):
        declared = {
            name: {flag for a in options_of(p) for flag in a.option_strings}
            for name, p in subparsers().items()
        }
        assert self.cli_block() == declared

    def test_library_example_gives_the_values_its_comments_state(self):
        scope = {}
        exec(self.block("Library", "python"), scope)
        assert scope["cert"].value == Fraction(2, 3) and scope["cert"].witness.indices() == [0, 1, 2]
        assert scope["walk"].mu == (4,) * 6
        assert scope["gap"] == pytest.approx(0.5, abs=1e-12)
        assert scope["report"].holds
        est = scope["est"]
        assert est.estimate == pytest.approx(0.5, abs=1e-12) and est.method == "eigensolve" and est.iterations == 0
