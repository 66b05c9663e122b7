import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gfourier as gf
from gfourier.checks import SUITES
from gfourier.cli import main
from gfourier.fileio import (
    FileFormatError,
    arrow_function_from_dict,
    arrow_function_to_dict,
    groupoid_from_dict,
    groupoid_to_dict,
    read_groupoid,
    write_arrow_function,
    write_groupoid,
)
from conftest import (
    forced_arrow_structure,
    no_bisection_structure,
    random_pd,
    s3_on_three_points,
    z12_on_16_points,
)
from reference import compose_triples_oracle


class TestFileRoundtrip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: gf.pair_groupoid(3),
            lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)],
                                    unit_weights=[2.0, 0.5]),
            lambda: gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1], [1, 0]]),
        ],
    )
    def test_groupoid_dict_roundtrip(self, build):
        g = build()
        g2 = groupoid_from_dict(groupoid_to_dict(g))
        assert np.array_equal(g.range_of, g2.range_of)
        assert np.array_equal(g.source_of, g2.source_of)
        assert np.array_equal(g.inverse_of, g2.inverse_of)
        assert np.array_equal(g.compose_table, g2.compose_table)
        assert np.array_equal(g.unit_arrows, g2.unit_arrows)
        assert np.allclose(g.weights, g2.weights)

    @pytest.mark.parametrize("name", ["pair2", "pair3", "pair4", "pair5", "pair6", "g2", "g3",
                                      "g4", "z2", "z3", "bundle23", "weighted_bundle", "transf",
                                      "z12_on_16", "no_bisection", "forced_arrow"])
    def test_file_bytes_match_the_pairwise_triples(self, name, request, tmp_path):
        g = {
            **{f"pair{n}": lambda n=n: gf.pair_groupoid(n) for n in range(2, 7)},
            "z12_on_16": z12_on_16_points,
            "no_bisection": no_bisection_structure,
            "forced_arrow": forced_arrow_structure,
        }.get(name, lambda: request.getfixturevalue(name))()
        path = tmp_path / "g.json"
        write_groupoid(str(path), g)
        want = {**groupoid_to_dict(g), "compose": compose_triples_oracle(g)}
        assert path.read_text(encoding="utf-8") == json.dumps(want, indent=1) + "\n"

    def test_unit_arrows_derived_when_absent(self, g3):
        data = groupoid_to_dict(g3)
        del data["unit_arrows"]
        g2 = groupoid_from_dict(data)
        assert np.array_equal(g2.unit_arrows, g3.unit_arrows)

    def test_function_roundtrip(self, g3, rng):
        phi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        back = arrow_function_from_dict(arrow_function_to_dict(phi), g3)
        assert np.allclose(back, phi)

    def test_sparse_function_defaults_to_zero(self, g3):
        f = arrow_function_from_dict({"values": {"4": [1.5, -2.0]}}, g3)
        assert f[4] == 1.5 - 2.0j and np.abs(np.delete(f, 4)).max() == 0.0

    def test_malformed_documents_rejected(self, g3):
        with pytest.raises(FileFormatError):
            groupoid_from_dict({"units": 1})
        with pytest.raises(FileFormatError):
            groupoid_from_dict({"units": 0, "arrows": []})
        bad = groupoid_to_dict(g3)
        bad["arrows"][0]["inv"] = 99
        with pytest.raises(FileFormatError):
            groupoid_from_dict(bad)
        with pytest.raises(FileFormatError):
            arrow_function_from_dict({"values": {"99": [0.0, 0.0]}}, g3)
        with pytest.raises(FileFormatError):
            arrow_function_from_dict({"values": {"1": [0.0]}}, g3)

    def test_first_malformed_compose_entry_named(self, g3):
        data = groupoid_to_dict(g3)
        data["compose"][2:2] = [[0, 1], "x"]
        with pytest.raises(FileFormatError, match=r"^malformed compose \(entries are \[x, y, xy\]\) "
                                                  r"entry \[0, 1\]$"):
            groupoid_from_dict(data)

    def test_first_compose_entry_out_of_range_named(self, g3):
        data = groupoid_to_dict(g3)
        data["compose"][3:3] = [[0, 9, 0], [-1, 0, 0]]
        with pytest.raises(FileFormatError, match=r"^composition entry \[0, 9, 0\] out of range$"):
            groupoid_from_dict(data)

    def test_first_conflicting_composition_in_file_order_named(self, g3):
        # the pair of entry 0 conflicts too, but after the pair of entry 5 does
        data = groupoid_to_dict(g3)
        (x0, y0, _), (x5, y5, _) = data["compose"][0], data["compose"][5]
        data["compose"] += [[x5, y5, 4], [x5, y5, 4], [x0, y0, 4]]
        assert (x0, y0) < (x5, y5)
        with pytest.raises(FileFormatError, match=rf"^conflicting compositions declared for \({x5}, {y5}\)$"):
            groupoid_from_dict(data)


class TestBuildCommand:
    def test_build_pair_three(self, tmp_path):
        out = tmp_path / "g3.json"
        assert main(["build", "pair", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["arrows"]) == 9

    def test_product_quadruples_arrows(self, tmp_path):
        base = tmp_path / "g2.json"
        prod = tmp_path / "g2i2.json"
        main(["build", "pair", "2", "--out", str(base)])
        assert main(["build", "product-i2", "--from", str(base), "--out", str(prod)]) == 0
        g = read_groupoid(str(prod))
        assert g.n_arrows == 16 and g.n_units == 4

    def test_invalid_group_table_exits_2(self, tmp_path):
        out = tmp_path / "bad.json"
        assert main(["build", "group", "--table", "[[0,1],[0,1]]", "--out", str(out)]) == 2

    def test_bundle_and_transformation(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["build", "bundle", "--cyclic", "2", "--cyclic", "3",
                     "--out", str(out)]) == 0
        assert read_groupoid(str(out)).n_arrows == 5
        out2 = tmp_path / "t.json"
        assert main(["build", "transformation", "--cyclic", "2",
                     "--action", "[[0,1],[1,0]]", "--out", str(out2)]) == 0
        assert read_groupoid(str(out2)).n_units == 2


class TestCheckCommand:
    def test_axiom_suite_passes_on_pair_groupoid(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        main(["build", "pair", "3", "--out", str(f)])
        capsys.readouterr()
        assert main(["check", str(f), "--suite", "axioms", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert "axioms/validate" in text and "fail" not in text

    def test_corrupted_file_exits_2(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        assert main(["check", str(f), "--suite", "axioms"]) == 2

    def test_axiom_violation_exits_1(self, tmp_path, g3):
        data = groupoid_to_dict(g3)
        # corrupt one composition entry: breaks associativity/endpoint laws
        for triple in data["compose"]:
            if triple[0] == 1 and triple[1] == 3:
                triple[2] = 8
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--suite", "axioms", "--out", "/dev/null"]) == 1

    def test_regular_suite_on_a_non_groupoid_exits_1(self, tmp_path):
        # 3 . 0 is undefined although arrow 3 is its own claimed inverse, so the
        # right translations do not exist: the suite fails naming that product
        # instead of raising a traceback
        f = tmp_path / "forced.json"
        write_groupoid(str(f), forced_arrow_structure())
        out = tmp_path / "r.json"
        args = ["check", str(f), "--suite", "regular-rep", "--format", "machine", "--out", str(out)]
        assert main(args) == 1
        (rec,) = json.loads(out.read_text())["records"]
        assert rec["name"] == "regular/composable-pairs" and rec["status"] == "fail"
        assert rec["witness"] == "arrows 3 = inverse(3) and 0 do not compose"

    @pytest.mark.parametrize("second, counting", [(1 + 1e-9, False), (1 + 1e-13, True), (1.0, True)])
    def test_header_and_records_agree_on_the_counting_measure(self, second, counting, tmp_path, capsys):
        # one predicate, at 1e-12 from 1, decides the header's "counting", the
        # square-root reconstruction record and whether pd_to_section answers
        f = tmp_path / "g.json"
        write_groupoid(str(f), gf.pair_groupoid(2, unit_weights=[1.0, second]))
        assert main(["check", str(f), "--suite", "positivity"]) == 0
        text = capsys.readouterr().out
        assert ("groupoid: 4 arrows, 2 units, counting\n" in text) == counting
        if not counting:  # the header names both weights, however close
            header = next(ln for ln in text.splitlines() if ln.startswith("groupoid: "))
            assert [float(x) for x in header.split("[")[1].rstrip("]").split(", ")] == [1.0, second]
        assert ("positivity/sqrt-reconstruction" in text) == counting
        g = read_groupoid(str(f))
        phi = random_pd(g, np.random.default_rng(0))
        if counting:
            assert np.allclose(gf.regular_coefficient(g, *[gf.pd_to_section(g, phi)] * 2), phi, atol=1e-10)
        else:
            with pytest.raises(ValueError, match="needs all Haar weights equal to 1"):
                gf.pd_to_section(g, phi)

    def test_reports_byte_stable_and_mirrored(self, tmp_path):
        f = tmp_path / "g.json"
        main(["build", "pair", "2", "--out", str(f)])
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        args = ["check", str(f), "--suite", "axioms", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        machine = tmp_path / "m.json"
        assert main(args + ["--format", "machine", "--out", str(machine)]) == 0
        payload = json.loads(machine.read_text())
        human_lines = out1.read_text().splitlines()
        names_in_human = [ln.split()[0] for ln in human_lines if ln.startswith("axioms/")]
        assert [r["name"] for r in payload["records"]] == names_in_human
        for rec in payload["records"]:
            matching = [ln for ln in human_lines if ln.startswith(rec["name"] + " ")]
            assert len(matching) == 1
            assert rec["value"] in matching[0]


def _pair3_missing_a_product(tmp_path):
    """pair(3)'s file without the triple [1, 3, 0]; validate reports (1, 3) undefined."""
    data = groupoid_to_dict(gf.pair_groupoid(3))
    data["compose"] = [t for t in data["compose"] if t != [1, 3, 0]]
    f = tmp_path / "missing.json"
    f.write_text(json.dumps(data))
    return f


class TestInvalidGroupoidFiles:
    @pytest.mark.parametrize("units", [10**15, 2])
    def test_more_units_than_arrows_exits_2(self, tmp_path, capsys, units):
        # each unit needs its own unit arrow; the count is refused before any allocation
        data = {"units": units, "arrows": [{"id": 0, "r": 0, "s": 0, "inv": 0}],
                "compose": [[0, 0, 0]]}
        f = tmp_path / "g.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--suite", "axioms"]) == 2
        assert f"more units ({units}) than arrows (1)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("arrows", 5), ("compose", 5), ("compose", [0]), ("unit_arrows", 5),
        ("unit_arrows", [None]), ("weights", 5),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, value):
        # a field of the wrong shape is a malformed file, not a failed check
        data = groupoid_to_dict(gf.pair_groupoid(2))
        data[field] = value
        f = tmp_path / "g.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--suite", "axioms"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("document", [{"values": {"0": {"re": 1}}}, []])
    def test_malformed_function_file_exits_2(self, tmp_path, capsys, document):
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), gf.pair_groupoid(2))
        ffile.write_text(json.dumps(document))
        assert main(["norm", str(gfile), str(ffile), "--which", "stieltjes"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad_weight", [float("nan"), float("inf")])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, bad_weight):
        data = groupoid_to_dict(gf.pair_groupoid(2))
        data["weights"][1]["w"] = bad_weight
        with pytest.raises(FileFormatError, match="positive and finite"):
            groupoid_from_dict(data)
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        gfile.write_text(json.dumps(data))
        write_arrow_function(str(ffile), np.arange(4) + 1.0)
        assert main(["check", str(gfile), "--suite", "axioms"]) == 2
        for which in ("i", "stieltjes"):
            assert main(["norm", str(gfile), str(ffile), "--which", which]) == 2
        assert "positive and finite" in capsys.readouterr().err


    @pytest.mark.parametrize("which", ["stieltjes", "reduced"])
    def test_norm_exits_2_with_first_violation(self, tmp_path, capsys, which):
        gfile = _pair3_missing_a_product(tmp_path)
        ffile = tmp_path / "f.json"
        write_arrow_function(str(ffile), np.arange(9) + 1.0)
        assert main(["norm", str(gfile), str(ffile), "--which", which]) == 2
        captured = capsys.readouterr()
        assert "composition of (1, 3) defined=False" in captured.err and captured.out == ""

    def test_duality_exits_2_with_first_violation(self, tmp_path, capsys):
        gfile = _pair3_missing_a_product(tmp_path)
        assert main(["duality", str(gfile)]) == 2
        assert "composition of (1, 3) defined=False" in capsys.readouterr().err

    def test_product_exits_2_with_first_violation(self, tmp_path, capsys):
        gfile = _pair3_missing_a_product(tmp_path)
        out = tmp_path / "product.json"
        assert main(["build", "product-i2", "--from", str(gfile), "--out", str(out)]) == 2
        assert "composition of (1, 3) defined=False" in capsys.readouterr().err
        assert not out.exists()


class TestNormCommand:
    def test_stieltjes_of_pd_function_reports_max_unit_value(self, tmp_path, capsys, rng):
        g = gf.pair_groupoid(2)
        gfile = tmp_path / "g.json"
        write_groupoid(str(gfile), g)
        phi = random_pd(g, rng, mixture=False)
        ffile = tmp_path / "phi.json"
        write_arrow_function(str(ffile), phi)
        capsys.readouterr()
        assert main(["norm", str(gfile), str(ffile), "--which", "stieltjes"]) == 0
        text = capsys.readouterr().out
        expect = float(np.max(phi[g.unit_arrows].real))
        line = next(ln for ln in text.splitlines() if "norm/stieltjes" in ln)
        assert abs(float(line.split()[2]) - expect) < 1e-6

    def test_cb_rejected_off_pair_groupoids(self, tmp_path):
        g = gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)])
        gfile = tmp_path / "b.json"
        write_groupoid(str(gfile), g)
        ffile = tmp_path / "f.json"
        write_arrow_function(str(ffile), np.ones(5))
        assert main(["norm", str(gfile), str(ffile), "--which", "cb"]) == 2

    def test_tol_is_for_check_and_report_only(self, tmp_path, capsys):
        # norm and duality never read a tolerance, so they take none
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), gf.pair_groupoid(2))
        write_arrow_function(str(ffile), np.ones(4))
        assert main(["norm", str(gfile), str(ffile), "--tol", "1e-6"]) == 2
        assert main(["duality", str(gfile), "--tol", "1e-6"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert main(["check", str(gfile), "--suite", "axioms", "--tol", "1e-6"]) == 0
        assert main(["report", str(gfile), "--tol", "1e-6", "--out", str(tmp_path / "r.json")]) == 0

    def test_reduced_norm_of_identity(self, tmp_path, capsys, g3):
        gfile = tmp_path / "g.json"
        write_groupoid(str(gfile), g3)
        ffile = tmp_path / "e.json"
        write_arrow_function(str(ffile), gf.convolution_identity(g3))
        capsys.readouterr()
        assert main(["norm", str(gfile), str(ffile), "--which", "reduced"]) == 0
        text = capsys.readouterr().out
        line = next(ln for ln in text.splitlines() if "norm/reduced" in ln)
        assert float(line.split()[2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("which", ["stieltjes", "decomp"])
    def test_norm_above_the_largest_float_exits_2(self, tmp_path, capsys, rng, which):
        g = s3_on_three_points()
        phi = rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)
        phi /= np.abs(phi).max()
        top = 1.5e308
        assert gf.fourier_stieltjes_norm(g, phi).value > np.finfo(float).max / top
        gfile, ffile = tmp_path / "g.json", tmp_path / "phi.json"
        write_groupoid(str(gfile), g)
        write_arrow_function(str(ffile), top * phi)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norm", str(gfile), str(ffile), "--which", which]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the norm overflows") and captured.out == ""

    @pytest.mark.parametrize("weights", [None, [1.0, 4.0, 0.5]])
    def test_i_and_reduced_norms_that_overflow_raise(self, weights):
        g = gf.pair_groupoid(3, unit_weights=weights)
        f = np.full(g.n_arrows, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (gf.i_norm_range, gf.i_norm_source, gf.i_norm, gf.reduced_norm):
                with pytest.raises(ValueError, match="^the norm overflows"):
                    norm(g, f)
        # one entry near the top of the range has finite norms
        w = max(g.weights[1], g.weights[g.inverse_of[1]])
        assert gf.i_norm(g, 1e307 * gf.delta(g, 1)) == pytest.approx(1e307 * w)
        assert gf.reduced_norm(gf.pair_groupoid(3), 1e308 * gf.delta(g, 1)) == pytest.approx(1e308)

    @pytest.mark.parametrize("which", ["i", "reduced"])
    def test_i_and_reduced_norms_above_the_largest_float_exit_2(self, tmp_path, capsys, which):
        g = gf.pair_groupoid(3)
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), g)
        write_arrow_function(str(ffile), np.full(g.n_arrows, 1e308))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norm", str(gfile), str(ffile), "--which", which]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the norm overflows") and captured.out == ""

    def test_dimension_mismatch_exits_2(self, tmp_path, g3):
        gfile = tmp_path / "g.json"
        write_groupoid(str(gfile), g3)
        ffile = tmp_path / "f.json"
        write_arrow_function(str(ffile), np.ones(4))
        assert main(["norm", str(gfile), str(ffile), "--which", "i"]) == 2


class TestDualityCommand:
    def test_pair_three(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        main(["build", "pair", "3", "--out", str(gfile)])
        capsys.readouterr()
        assert main(["duality", str(gfile)]) == 0
        text = capsys.readouterr().out
        assert "duality/count" in text and " 6 " in text.replace("  ", " ")

    def test_bundle_count(self, tmp_path, capsys):
        gfile = tmp_path / "b.json"
        main(["build", "bundle", "--cyclic", "2", "--cyclic", "3", "--out", str(gfile)])
        capsys.readouterr()
        assert main(["duality", str(gfile)]) == 0
        line = next(
            ln for ln in capsys.readouterr().out.splitlines() if "duality/count" in ln
        )
        assert line.split()[2] == "6"

    def test_no_bisections_warns_but_succeeds(self, tmp_path, capsys):
        gfile = tmp_path / "none.json"
        write_groupoid(str(gfile), no_bisection_structure())
        capsys.readouterr()
        assert main(["duality", str(gfile)]) == 0
        text = capsys.readouterr().out
        assert "warn" in text and "no bisections exist" in text


class TestReportCommand:
    def test_machine_report_runs_every_suite(self, tmp_path):
        gfile = tmp_path / "g.json"
        main(["build", "pair", "2", "--out", str(gfile)])
        out = tmp_path / "report.json"
        assert main(["report", str(gfile), "--seed", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        prefixes = {r["name"].split("/")[0] for r in payload["records"]}
        assert prefixes == {"axioms", "algebra", "regular", "positivity", "norms", "duality"}
        assert payload["exit"] == 0


class TestUsageErrors:
    def test_unknown_verb(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_argument(self):
        assert main(["build", "pair", "3"]) == 2

    def test_usage_error_then_valid_command_in_one_process(self, tmp_path):
        """The parser is built once per process; a usage error leaves it unchanged."""
        gfile = tmp_path / "g.json"
        write_groupoid(str(gfile), gf.pair_groupoid(2))
        valid = ["check", str(gfile), "--suite", "axioms", "--seed", "3"]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gf.__file__))}

        def run(*argvs):
            # exit status 10 a + b for the statuses a, b of two commands
            code = f"import sys, gfourier.cli as c; s = [c.main(a) for a in {list(argvs)!r}]; " \
                "sys.exit(int(''.join(map(str, s))))"
            return subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120,
                                  env=env)

        both, alone = run(["check", str(gfile), "--suite", "nope"], valid), run(valid)
        assert both.returncode == 20 and alone.returncode == 0
        assert both.stdout == alone.stdout and b"axioms/validate" in alone.stdout


class TestTimings:
    @pytest.mark.parametrize("verb", ["check", "report"])
    def test_timings_go_to_stderr_only(self, tmp_path, capsys, verb):
        gfile = tmp_path / "g.json"
        write_groupoid(str(gfile), gf.pair_groupoid(2))
        capsys.readouterr()
        outputs = {}
        for flag in ([], ["--timings"]):
            out = tmp_path / f"out{len(flag)}.txt"
            assert main([verb, str(gfile), *flag]) == 0
            stdout, stderr = capsys.readouterr()
            assert main([verb, str(gfile), "--out", str(out), *flag]) == 0
            outputs[bool(flag)] = stdout, out.read_bytes(), stderr, capsys.readouterr().err
        assert outputs[True][:2] == outputs[False][:2]
        assert outputs[False][2:] == ("", "")
        for stderr in outputs[True][2:]:
            lines = stderr.splitlines()
            assert [ln.split()[:2] for ln in lines] == [["timing", name] for name in SUITES]
            assert all(float(ln.split()[2]) >= 0 and ln.endswith(" s") for ln in lines)
            # CPU seconds, then wall seconds
            assert all(ln.split()[3:5] == ["s", "wall"] and float(ln.split()[5]) >= 0
                       for ln in lines)


class TestNormStats:
    @pytest.mark.parametrize("fallback", [False, True], ids=["scaled", "active-set"])
    @pytest.mark.parametrize("which", ["stieltjes", "cb", "decomp", "reduced"])
    def test_stats_go_to_stderr_only(self, tmp_path, capsys, rng, monkeypatch, which, fallback):
        # a generic input closes by the diagonal scaling, or, with a stall
        # window of one evaluation, by the stall-closing step
        if fallback:
            monkeypatch.setattr(gf.norms, "_STALL", 1)
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), gf.pair_groupoid(3))
        write_arrow_function(str(ffile), rng.standard_normal(9) + 1j * rng.standard_normal(9))
        capsys.readouterr()
        outputs = {}
        for flag in ([], ["--stats"]):
            assert main(["norm", str(gfile), str(ffile), "--which", which, *flag]) == 0
            outputs[bool(flag)] = capsys.readouterr()
        assert outputs[True].out == outputs[False].out
        assert outputs[False].err == ""
        lines = [ln.split() for ln in outputs[True].err.splitlines()]
        keys = [ln[1] for ln in lines]
        if which == "reduced":
            assert keys == ["cpu"]
        else:
            assert keys == ["scaling-steps", "newton-steps", "status", "bracket", "sdp-blocks", "cpu"]
            stats = dict((ln[1], ln[2:]) for ln in lines)
            scaling, newton = int(stats["scaling-steps"][0]), int(stats["newton-steps"][0])
            if fallback:
                assert scaling > 0 and newton > 0 and stats["status"] == ["active-set"]
            else:
                assert scaling > 0 and newton == 0 and stats["status"] == ["scaled"]
            value, lower = map(float, stats["bracket"])
            assert 0 < lower <= value <= lower * (1 + 1e-6)
            assert stats["sdp-blocks"] == ["1"]  # pair(3) is one orbit
        assert all(ln[0] == "stats" for ln in lines)
        assert float(lines[-1][2]) >= 0 and lines[-1][3] == "s"
        assert lines[-1][4] == "wall" and float(lines[-1][5]) >= 0 and lines[-1][6] == "s"

    @pytest.mark.parametrize("which", ["stieltjes", "cb", "decomp"])
    def test_an_open_bracket_warns(self, tmp_path, capsys, rng, monkeypatch, which):
        # with no scaling step a generic input keeps its bracket open: its
        # record warns, and the command still succeeds
        monkeypatch.setattr(gf.norms, "_MAX_ITER", 0)
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), gf.pair_groupoid(3))
        write_arrow_function(str(ffile), rng.standard_normal(9) + 1j * rng.standard_normal(9))
        out = tmp_path / "out.json"
        assert main(["norm", str(gfile), str(ffile), "--which", which, "--format", "machine", "--out", str(out)]) == 0
        records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
        name = {"stieltjes": "norm/stieltjes", "cb": "norm/cb", "decomp": "norm/decomp-lower"}[which]
        assert records[name]["status"] == "warn"
        assert float(records[name]["tolerance"].split()[1]) > 1e-7
        assert all(r["status"] in ("info", "pass") for r in records.values() if r["name"] != name)

    @pytest.mark.parametrize("which", ["stieltjes", "cb", "decomp"])
    def test_rank_one_takes_no_newton_step(self, tmp_path, capsys, rng, which):
        # the cb norm of x y* is |x|_inf |y|_inf, the sup norm: the seed is optimal
        gfile, ffile = tmp_path / "g.json", tmp_path / "f.json"
        write_groupoid(str(gfile), gf.pair_groupoid(3))
        x, y = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        write_arrow_function(str(ffile), np.outer(x, y.conj()).ravel())
        capsys.readouterr()
        outputs = {}
        for flag in ([], ["--stats"]):
            assert main(["norm", str(gfile), str(ffile), "--which", which, *flag]) == 0
            outputs[bool(flag)] = capsys.readouterr()
        assert outputs[True].out == outputs[False].out
        stats = {ln.split()[1]: ln.split()[2:] for ln in outputs[True].err.splitlines()}
        assert stats["newton-steps"] == ["0"] and stats["status"] == ["seeded"]
        assert stats["scaling-steps"] == ["0"]


class TestStartup:
    def test_import_loads_no_scipy(self, tmp_path):
        """scipy is a test-only dependency: norms and check suites run without loading it."""
        gfile, report = tmp_path / "g.json", tmp_path / "report.txt"
        write_groupoid(str(gfile), gf.pair_groupoid(3))
        code = (
            "import sys, numpy as np, gfourier, gfourier.cli; "
            "gfourier.fourier_norm_bounds(gfourier.pair_groupoid(3), np.arange(9) + 1j); "
            f"args = ['check', {str(gfile)!r}, '--suite', 'positivity', '--out', {str(report)!r}]; "
            "assert gfourier.cli.main(args) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        # a fresh interpreter that imports the same copy of the package as this one
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gf.__file__))}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=120, env=env,
        )
        assert out.stdout.strip() == "[]"
