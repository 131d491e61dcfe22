"""Tests for the python -m repro CLI."""

import json

import pytest

from repro.__main__ import main
from repro.runtime.bench import BENCHMARKS
from repro.tune.spec import registered_sweeps


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "\npaper " in out
        assert "BENCH_paper.json" in out

    def test_run_quick_experiment(self, paper_quick):
        """``bench paper --quick`` prints every experiment's report and
        writes an artifact that check-results accepts."""
        assert paper_quick.code == 0
        assert "tub multiplier" in paper_quick.stdout
        assert "[table2] Single PE cell" in paper_quick.stdout
        assert main(["check-results", str(paper_quick.out_dir)]) == 0

    def test_run_command_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--quick"])
        capsys.readouterr()

    def test_out_artifact_placement(self, paper_quick):
        """--out directs the paper artifact, and nothing else, into the
        given (created) directory."""
        assert paper_quick.out_dir.parts[-2:] == ("nested", "artifacts")
        written = sorted(p.name for p in paper_quick.out_dir.iterdir())
        assert written == ["BENCH_paper.json"]
        assert f"wrote {paper_quick.out_dir / 'BENCH_paper.json'}" in (
            paper_quick.stdout
        )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBench:
    def test_unknown_spec_fails_cleanly(self, capsys, tmp_path):
        assert main(["bench", "networks", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark spec 'networks'" in err
        for name in ("serving", "backends", "llm", "pareto", "paper"):
            assert name in err
        assert not list(tmp_path.iterdir())

    def test_every_registered_spec_is_a_benchmark(self):
        assert set(BENCHMARKS) == {
            spec.name for spec in registered_sweeps()
        }
        assert list(BENCHMARKS) == [
            "serving", "backends", "llm", "pareto", "paper",
        ]

    def test_only_quick_and_out_options(self, capsys):
        for option in ("--workers", "--models", "--batch", "--slo-pj"):
            with pytest.raises(SystemExit):
                main(["bench", "backends", option, "2"])
        capsys.readouterr()

    def test_tune_command_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--quick"])
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
        assert out.count("sweep specs") == 1
        bench = out[out.index("sweep specs (bench):"):]
        for name in ("serving", "backends", "llm", "pareto", "paper"):
            assert f"\n{name} " in bench
        # Axes are shown so the grid is readable without opening code.
        assert "precisions=int8,int4,int2,mixed" in bench
        assert "geometries=8x8,16x4,16x16,32x32" in bench

    def test_paper_lists_only_the_axis_its_driver_reads(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        axes = lines[lines.index(
            next(line for line in lines if line.startswith("paper "))
        ) + 1].split()
        assert [axis.split("=")[0] for axis in axes] == ["nets"]


class TestTune:
    def test_quick_tune_writes_artifact(self, capsys, tmp_path):
        """The autotuner runs as the ``pareto`` bench spec and writes
        only its artifact, which check-results accepts."""
        assert main(
            ["bench", "pareto", "--quick", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "design-space Pareto frontier for mobilenet_v2" in out
        assert "SLO: unconstrained" in out
        assert [path.name for path in tmp_path.iterdir()] == [
            "BENCH_pareto.json"
        ]
        payload = json.loads((tmp_path / "BENCH_pareto.json").read_text())
        assert payload["benchmark"] == "pareto_tune"
        assert payload["explored"] == 48
        assert main(["check-results", str(tmp_path)]) == 0
        assert "BENCH_pareto.json: 48 records ok" in (
            capsys.readouterr().out
        )
