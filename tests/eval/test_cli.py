"""Tests for the python -m repro CLI."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "table2" in out

    def test_run_quick_experiment(self, capsys, tmp_path):
        code = main(["run", "fig2", "--quick", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tub multiplier" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_out_artifact_placement(self, capsys, tmp_path):
        """--out directs experiment artifacts into the given directory."""
        out_dir = tmp_path / "nested" / "artifacts"
        assert main(
            ["run", "fig7", "--quick", "--out", str(out_dir)]
        ) == 0
        capsys.readouterr()
        written = sorted(p.name for p in out_dir.glob("*.csv"))
        assert written, "fig7 must write its CSV series under --out"
        assert all(name.startswith("fig7") for name in written)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBench:
    def test_unknown_spec_fails_cleanly(self, capsys, tmp_path):
        assert main(["bench", "pareto", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark spec 'pareto'" in err
        for name in ("networks", "serving", "faults", "precision",
                     "backends", "llm"):
            assert name in err
        assert not list(tmp_path.iterdir())

    def test_networks_quick_writes_only_its_artifact(
        self, capsys, tmp_path
    ):
        assert main(
            ["bench", "networks", "--quick", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v2" in out and "resnet18" in out
        assert [path.name for path in tmp_path.iterdir()] == [
            "BENCH_networks.json"
        ]
        assert main(["check-results", str(tmp_path)]) == 0
        assert "BENCH_networks.json: 4 records ok" in (
            capsys.readouterr().out
        )

    def test_only_quick_and_out_options(self, capsys):
        for option in ("--workers", "--models", "--batch"):
            with pytest.raises(SystemExit):
                main(["bench", "networks", option, "2"])
        capsys.readouterr()


class TestCheckResults:
    def test_repo_results_validate(self, capsys):
        assert main(["check-results"]) == 0
        out = capsys.readouterr().out
        assert "records ok" in out

    def test_missing_directory_fails_cleanly(self, capsys, tmp_path):
        code = main(["check-results", str(tmp_path / "nope")])
        assert code == 2
        assert "check-results failed" in capsys.readouterr().err


class TestListSweepSpecs:
    def test_list_enumerates_registered_sweeps(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sweep specs (bench):" in out
        assert "sweep specs (tune):" in out
        bench = out[out.index("sweep specs (bench):"):
                    out.index("sweep specs (tune):")]
        for name in ("networks", "serving", "faults", "precision",
                     "backends", "llm"):
            assert f"\n{name} " in bench
        assert "pareto" not in bench
        # Axes are shown so the grid is readable without opening code.
        assert "geometries=8x8,16x4,16x16,32x32" in out


class TestTune:
    def test_quick_tune_writes_artifact(self, capsys, tmp_path):
        code = main(
            [
                "tune",
                "--net",
                "mobilenet_v2",
                "--quick",
                "--backends",
                "binary",
                "tempus",
                "--precisions",
                "int8",
                "--geometries",
                "8x8",
                "16x16",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "design-space Pareto frontier for mobilenet_v2" in out
        assert "wrote" in out
        import json

        payload = json.loads(
            (tmp_path / "BENCH_pareto.json").read_text()
        )
        assert payload["benchmark"] == "pareto_tune"
        assert payload["explored"] == 4
        assert payload["frontier"]

    def test_bad_geometry_fails_cleanly(self, capsys, tmp_path):
        code = main(
            [
                "tune",
                "--quick",
                "--geometries",
                "0x16",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "tune failed" in err
        assert "k must be >= 1" in err

    def test_infeasible_slo_fails_cleanly(self, capsys, tmp_path):
        code = main(
            [
                "tune",
                "--quick",
                "--backends",
                "tempus",
                "--precisions",
                "int8",
                "--geometries",
                "8x8",
                "--slo-cycles",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "tightest achievable" in err
