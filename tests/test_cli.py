import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from lpq2.cli import (
    EXIT_MARGIN,
    RunConfig,
    fmt_float,
    load_config,
    main,
    render_json,
)
from lpq2.classify import classify
from lpq2.core import LpVector
from lpq2.inequality import solve_matched_pair
from lpq2.opnorm import Operator2x2
from lpq2.segment import pinned_segment


@pytest.fixture
def runner():
    return CliRunner()


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tol_attain == 1e-9
        assert cfg.sphere_scan == 4096
        assert cfg.output_format == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(tol_attain=0.0)
        with pytest.raises(ValueError):
            RunConfig(sphere_scan=8)
        with pytest.raises(ValueError):
            RunConfig(output_format="xml")

    def test_seed_is_unsigned_64(self):
        assert RunConfig(seed=-1).seed == 2 ** 64 - 1

    def test_precedence(self, tmp_path, monkeypatch):
        cfile = tmp_path / "conf"
        cfile.write_text("eps_min=0.01\nmargin_grid=500\n# comment\n")
        monkeypatch.setenv("CLAB_MARGIN_GRID", "700")
        cfg = load_config(str(cfile), {"seed": 5})
        assert cfg.eps_min == 0.01          # file
        assert cfg.margin_grid == 700       # env beats file
        assert cfg.seed == 5                # flag beats all

    def test_unknown_config_key(self, runner, tmp_path):
        cfile = tmp_path / "conf"
        cfile.write_text("sphere_scna=8\n")
        res = runner.invoke(
            main,
            ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1", "--config", str(cfile)],
        )
        assert res.exit_code == 2
        assert "sphere_scna" in res.output

    def test_unknown_env_variable(self, runner, monkeypatch):
        monkeypatch.setenv("CLAB_SPHERE_SCNA", "8")
        res = runner.invoke(main, ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1"])
        assert res.exit_code == 2
        assert "CLAB_SPHERE_SCNA" in res.output

    def test_bad_config_value(self, runner, tmp_path):
        cfile = tmp_path / "conf"
        cfile.write_text("eps_min=abc\n")
        res = runner.invoke(
            main,
            ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1", "--config", str(cfile)],
        )
        assert res.exit_code == 2
        assert "eps_min" in res.output

    def test_bad_env_value(self, runner, monkeypatch):
        for bad in ("abc", "nan"):
            monkeypatch.setenv("CLAB_EPS_MIN", bad)
            res = runner.invoke(main, ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1"])
            assert res.exit_code == 2
            assert "eps_min" in res.output


class TestRendering:
    def test_float_formats(self):
        assert fmt_float(1.0) == "1"
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(float("inf")) == '"inf"'

    def test_json_round_trip_bytes(self):
        report = {
            "a": 0.1, "b": [1.0, 2.5, float("inf")],
            "c": {"x": -1.2345678901234567e-8, "ok": True, "s": "t"},
        }
        text = render_json(report)
        parsed = json.loads(text)
        assert render_json(parsed) == text


class TestCommands:
    def test_norm_identity(self, runner):
        res = runner.invoke(main, ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["norm"] == pytest.approx(1.0, abs=1e-9)
        assert rep["independent_pair"] is True

    def test_norm_single_maximizer(self, runner):
        res = runner.invoke(main, ["norm", "--p", "3", "--q", "3", "--m", "1,0,0,0.5"])
        rep = json.loads(res.output)
        assert rep["norm"] == pytest.approx(1.0, abs=1e-9)
        assert len(rep["maximizers"]) == 1

    def test_malformed_matrix(self, runner):
        res = runner.invoke(main, ["norm", "--p", "2", "--q", "2", "--m", "1,0,0"])
        assert res.exit_code == 2

    def test_bad_exponent(self, runner):
        res = runner.invoke(main, ["norm", "--p", "1.0", "--q", "2", "--m", "1,0,0,1"])
        assert res.exit_code == 2

    def test_classify_isometry(self, runner):
        res = runner.invoke(
            main, ["classify", "--p", "2", "--q", "2", "--m", "1,0,0,1"]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "ExtremeIsometry"

    def test_classify_with_oracle_consistent(self, runner):
        res = runner.invoke(
            main,
            ["classify", "--p", "3", "--q", "3", "--m", "1,0,0,0.5", "--oracle"],
        )
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["verdict"] == "NotExtreme"
        assert rep["oracle"]["verdict"] == "NotExtreme"
        assert rep["consistent"] is True

    def test_classify_open_region_solves_each_endpoint_once(self, runner, endpoint_solves):
        # A norm-one open-region (1.5, 3) operator whose endpoints classify
        # already solves: the command must reuse them, not solve again.
        entries = (0.1955889223501423, -0.20550546737021783,
                   0.9962567070949452, 0.1631851172291053)
        res = runner.invoke(main, ["classify", "--p", "1.5", "--q", "3",
                                   "--m", ",".join(map(repr, entries))])
        assert res.exit_code == 0
        assert len(endpoint_solves) == 2
        rep = json.loads(res.output)
        assert rep["region"] == "open_d"
        assert rep["verdict"] in ("NotExtreme", "Unknown")
        x, y = classify(Operator2x2(*entries, 1.5, 3.0)).norm_pair
        seg = pinned_segment(x, y)
        assert (rep["endpoint_plus"], rep["endpoint_minus"]) == (
            seg.endpoint_plus, seg.endpoint_minus)

    def test_sstar_hilbert(self, runner):
        res = runner.invoke(
            main, ["sstar", "--p", "2", "--q", "2", "--x", "1,0", "--y", "0,1"]
        )
        rep = json.loads(res.output)
        assert rep["endpoint_plus"] == pytest.approx(1.0, abs=1e-8)
        assert rep["endpoint_minus"] == pytest.approx(-1.0, abs=1e-8)

    def test_sstar_infinite_witness(self, runner):
        res = runner.invoke(
            main, ["sstar", "--p", "1.5", "--q", "3", "--x", "1,0", "--y", "1,0"]
        )
        rep = json.loads(res.output)
        assert rep["witness_plus"] == "inf"

    def test_ineq_csv(self, runner):
        res = runner.invoke(
            main,
            ["ineq", "lemma1", "--p", "2", "--q", "4", "--r-max", "10",
             "--format", "csv"],
        )
        assert res.exit_code == 0
        lines = res.output.split("\n")
        assert lines[0] == "r,margin"
        vals = [float(line.split(",")[1]) for line in lines[1:] if line]
        assert min(vals) >= -1e-12

    def test_ineq_violation_exit_code(self, runner):
        p, q = 3.0, 1.5
        x = LpVector.from_mass(0.7, p)
        y = solve_matched_pair(p, q, x)
        res = runner.invoke(
            main,
            ["ineq", "e18", "--p", "3", "--q", "1.5",
             "--x", f"{x.x1},{x.x2}", "--y", f"{y.x1},{y.x2}",
             "--r-max", "10"],
        )
        assert res.exit_code == EXIT_MARGIN

    def test_mip_small(self, runner):
        res = runner.invoke(
            main,
            ["mip", "--p", "3", "--q", "1.5", "--x", "0.7", "--y", "0.6",
             "--samples", "24", "--net-points", "40"],
        )
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["mip_verdict"] == "FailsMIP"
        assert rep["verdict"] == "GapEvidence"

    def test_mip_domain_with_conjugate_below_range(self, runner):
        # The conjugate of 30 is below 1.05; the dual coordinates need none.
        res = runner.invoke(
            main,
            ["mip", "--p", "30", "--q", "3", "--x", "0.7", "--y", "0.6",
             "--samples", "4", "--net-points", "30"],
        )
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["mip_verdict"] == "FailsMIP"
        assert rep["net_points"] == 30

    def test_mip_out_of_scope(self, runner):
        res = runner.invoke(
            main, ["mip", "--p", "1.5", "--q", "1.8", "--x", "0.7", "--y", "0.6"]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["mip_verdict"] == "OutOfScope"

    def test_closure(self, runner):
        res = runner.invoke(
            main, ["closure", "--p", "3", "--s", "1,0.5", "--samples", "16"]
        )
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert len(rep["rows"]) == 2

    def test_closure_top_of_range(self, runner):
        res = runner.invoke(
            main, ["closure", "--p", "64", "--s", "1,0.5", "--samples", "4"]
        )
        assert res.exit_code == 0
        rows = json.loads(res.output)["rows"]
        assert [row["verdict_of_target"] for row in rows] == ["ExtremeIsometry", "NotExtreme"]

    def test_closedness(self, runner):
        res = runner.invoke(
            main, ["closedness", "--p", "2", "--q", "3", "--sequences", "4"]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["non_extreme_limits"] == 0

    @pytest.mark.parametrize(
        "args,option,least",
        [
            (["closure", "--p", "3", "--s", "1,0.5", "--samples", "0"], "--samples", 1),
            (["closedness", "--p", "3", "--q", "1.5", "--sequences", "-2"], "--sequences", 1),
            (["mip", "--p", "3", "--q", "1.5", "--x", "0.7", "--y", "0.6",
              "--samples", "-1", "--net-points", "10"], "--samples", 0),
            (["mip", "--p", "3", "--q", "1.5", "--x", "0.7", "--y", "0.6",
              "--samples", "4", "--net-points", "-5"], "--net-points", 0),
        ],
        ids=["closure-samples", "closedness-sequences", "mip-samples", "mip-net-points"],
    )
    def test_rejects_counts_below_range(self, runner, args, option, least):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert f"Invalid value for '{option}'" in res.output
        assert f"x>={least}" in res.output

    def test_output_file(self, runner, tmp_path):
        path = tmp_path / "out.json"
        res = runner.invoke(
            main,
            ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1",
             "--output", str(path)],
        )
        assert res.exit_code == 0
        assert json.loads(path.read_text())["norm"] == pytest.approx(1.0, abs=1e-9)

    def test_env_config(self, runner, monkeypatch):
        monkeypatch.setenv("CLAB_SPHERE_SCAN", "8")
        res = runner.invoke(main, ["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1"])
        assert res.exit_code == 2  # grid below the floor is a usage error


class TestInProcess:
    def test_stdout_buffers_are_released(self):
        # Repeated in-process invocations must not keep the stdout buffer of
        # each one alive after the caller drops it.
        refs = []
        for _ in range(3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main.main(
                    args=["norm", "--p", "2", "--q", "2", "--m", "1,0,0,1"],
                    prog_name="lpq2",
                    standalone_mode=False,
                )
            assert json.loads(buf.getvalue())["norm"] == pytest.approx(1.0, abs=1e-9)
            refs.append(weakref.ref(buf))
            del buf
        gc.collect()
        assert [r() for r in refs] == [None, None, None]


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, runner):
        args = ["mip", "--p", "2", "--q", "4", "--x", "0.8", "--y", "0.84",
                "--samples", "16", "--net-points", "30", "--seed", "42"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
