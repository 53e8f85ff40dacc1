"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dse import batch
from repro.dse.space import GPU_AXIS_KEYS, MAX_SPACE_POINTS
from repro.gpu.devices import TITAN_XP
from repro.networks.registry import registry_generation


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "alexnet" in output
        assert "fig16" in output
        assert "V100" in output

    def test_fast_experiment_command(self, capsys):
        assert main(["experiment", "tab01"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "TITAN Xp" in output

    def test_validate_command(self, capsys, tmp_path):
        assert main(["validate", "--gpu", "titanxp", "--batch", "2",
                     "--max-ctas", "30", "--layers-per-network", "1",
                     "--sim-cache", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "model-vs-simulator validation on TITAN Xp" in output
        assert "dram traffic GMAE" in output
        assert list(tmp_path.glob("delta-sim-*.json"))

    def test_validate_parser_accepts_jobs(self):
        args = build_parser().parse_args(["validate", "--jobs", "3"])
        assert args.jobs == 3

    def test_estimate_command(self, capsys):
        assert main(["estimate", "--network", "alexnet", "--gpu", "v100",
                     "--batch", "32", "--unique"]) == 0
        output = capsys.readouterr().out
        assert "AlexNet on V100" in output
        assert "total conv time" in output
        assert "conv5" in output

    def test_estimate_paper_subset(self, capsys):
        assert main(["estimate", "--network", "googlenet", "--gpu", "titanxp",
                     "--batch", "16", "--unique", "--paper-subset"]) == 0
        output = capsys.readouterr().out
        assert "GoogLeNet on TITAN Xp" in output

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--networks", "alexnet", "--gpus", "titanxp",
                     "v100", "--batches", "16"]) == 0
        output = capsys.readouterr().out
        assert "model sweep" in output
        assert "AlexNet" in output and "V100" in output

    def test_sweep_paper_subset_is_toggleable(self):
        args = build_parser().parse_args(["sweep", "--no-paper-subset"])
        assert args.paper_subset is False
        assert build_parser().parse_args(["sweep"]).paper_subset is True

    def test_bad_network_name_is_isolated_error(self, capsys):
        assert main(["estimate", "--network", "nonesuch"]) == 1
        assert "EstimateRequest failed" in capsys.readouterr().out

    def test_bad_network_name_json_error_report(self, capsys):
        """The CI fault-injection smoke: a bad network under --format json
        exits nonzero and still prints a machine-readable error report."""
        assert main(["estimate", "--network", "nonesuch",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error"
        assert "nonesuch" in payload["summary"]["message"]
        assert payload["meta"]["request"] == "EstimateRequest"
        assert payload["meta"]["traceback"]

    def test_timeout_and_retries_flags_configure_session(self):
        args = build_parser().parse_args(
            ["validate", "--timeout", "2.5", "--retries", "0"])
        assert args.timeout == 2.5
        assert args.retries == 0
        with pytest.raises(SystemExit):  # argparse usage error stays exit 2
            build_parser().parse_args(["validate", "--timeout", "soon"])

    def test_non_positive_timeout_rejected(self, capsys):
        assert main(["validate", "--timeout", "-1"]) == 1
        assert "timeout" in capsys.readouterr().out

    def test_non_positive_jobs_rejected(self, capsys):
        # default mode isolates the error into a kind="error" report + exit 1
        assert main(["experiment", "tab01", "--jobs", "0"]) == 1
        assert "jobs must be positive" in capsys.readouterr().out
        # --strict re-raises instead
        with pytest.raises(ValueError):
            main(["experiment", "tab01", "--jobs", "0", "--strict"])


class TestJsonOutput:
    def test_list_format_json(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "alexnet" in payload["networks"]
        # the paper-subset variants are listed explicitly.
        assert set(payload["paper_subset_variants"]) == {"alexnet", "vgg16",
                                                         "googlenet",
                                                         "resnet152"}
        gpu_names = {gpu["name"] for gpu in payload["gpus"]}
        assert gpu_names == {"TITAN Xp", "P100", "V100"}
        ids = {exp["id"] for exp in payload["experiments"]}
        assert {"tab01", "fig11", "fig20"} <= ids

    def test_experiment_format_json(self, capsys):
        assert main(["experiment", "tab01", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report_id"] == "tab01"
        assert len(payload["rows"]) == 3

    def test_estimate_format_json(self, capsys):
        assert main(["estimate", "--network", "alexnet", "--gpu", "v100",
                     "--batch", "8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "estimate"
        assert payload["summary"]["total conv time (ms)"] > 0

    def test_validate_format_json(self, capsys, tmp_path):
        assert main(["validate", "--gpu", "titanxp", "--batch", "2",
                     "--max-ctas", "30", "--layers-per-network", "1",
                     "--networks", "alexnet", "--sim-cache", str(tmp_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "validation"
        assert payload["meta"]["networks"] == ["alexnet"]
        assert len(payload["rows"]) == 1

    def test_experiment_override_flags(self, capsys):
        assert main(["experiment", "fig13", "--gpus", "v100", "--networks",
                     "alexnet", "--batch", "4", "--max-ctas", "40",
                     "--layers-per-network", "1"]) == 0
        output = capsys.readouterr().out
        assert "V100" in output
        assert "AlexNet" in output


class TestPassFlag:
    def test_estimate_training_pass(self, capsys):
        assert main(["estimate", "--network", "alexnet", "--batch", "32",
                     "--unique", "--pass", "training"]) == 0
        output = capsys.readouterr().out
        assert "training step" in output
        assert "wgrad" in output
        assert "total step time" in output

    def test_estimate_training_json(self, capsys):
        assert main(["estimate", "--network", "alexnet", "--batch", "32",
                     "--pass", "training", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["passes"] == "training"
        passes = {row["pass"] for row in payload["rows"]}
        assert passes == {"forward", "dgrad", "wgrad"}

    def test_estimate_single_backward_pass(self, capsys):
        assert main(["estimate", "--network", "alexnet", "--batch", "32",
                     "--unique", "--pass", "dgrad"]) == 0
        assert "dgrad pass" in capsys.readouterr().out

    def test_sweep_accepts_pass(self, capsys):
        assert main(["sweep", "--networks", "alexnet", "--gpus", "titanxp",
                     "--batches", "32", "--pass", "training"]) == 0
        assert "training" in capsys.readouterr().out

    def test_invalid_pass_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--network", "alexnet",
                                       "--pass", "sideways"])

    def test_training_experiment_via_cli(self, capsys):
        assert main(["experiment", "training", "--batch", "32",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report_id"] == "training"
        assert payload["rows"]


class TestDseCommand:
    def test_dse_with_explicit_axes(self, capsys):
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", "num_sm=1,2", "--axis", "dram_bw=1,1.5"]) == 0
        output = capsys.readouterr().out
        assert "design-space exploration on TITAN Xp" in output
        assert "what to scale next" in output

    @pytest.mark.parametrize("axis", ["num_sm=1,nan", "dram_bw=inf",
                                      "cta_tile=inf"])
    def test_dse_non_finite_axis_is_an_error_report(self, capsys, axis):
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", axis, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error"

    def test_dse_format_json(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", "num_sm=1,2", "--axis", "mac_bw=1,4",
                     "--store", store, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "dse"
        assert payload["summary"]["frontier size"] >= 1
        assert payload["meta"]["store_path"] == store
        assert payload["rows"]
        for row in payload["rows"]:
            assert {"design", "speedup", "cost"} <= set(row)

    def test_dse_random_driver_with_budget(self, capsys):
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--driver", "random", "--budget", "6", "--seed", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["points planned"] == 6
        assert payload["meta"]["driver"] == "random"
        assert payload["meta"]["seed"] == 3

    def test_dse_store_resume_via_cli(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        args = ["dse", "--networks", "alexnet", "--batches", "16",
                "--axis", "num_sm=1,2,4", "--store", store,
                "--format", "json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["summary"]["points evaluated"] > 0
        assert second["summary"]["points evaluated"] == 0
        assert second["rows"] == first["rows"]

    def test_dse_old_format_store_is_an_error_report(self, capsys, tmp_path):
        store = tmp_path / "old.jsonl"
        store.write_text('{"key": "abc", "metrics": {"time_s": 1.0}, '
                         '"point": {}}\n')
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", "num_sm=1,2", "--store", str(store),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error"
        assert payload["meta"]["error_type"] == "StaleStoreError"
        assert str(store) in payload["summary"]["message"]

    def test_dse_rejects_unknown_objective(self, capsys):
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", "num_sm=1,2", "--objectives", "speed"]) == 1
        assert "unknown objective" in capsys.readouterr().out
        with pytest.raises(ValueError, match="unknown objective"):
            main(["dse", "--networks", "alexnet", "--batches", "16",
                  "--axis", "num_sm=1,2", "--objectives", "speed",
                  "--strict"])

    def test_dse_trace_shows_grid_and_assemble_spans(self, capsys,
                                                     tmp_path):
        path = tmp_path / "trace.json"
        assert main(["dse", "--networks", "alexnet", "--batches", "16",
                     "--axis", "num_sm=1,2", "--axis", "mac_bw=1,4",
                     "--pass", "training", "--format", "json",
                     "--trace", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"][
            "points evaluated"] == 4
        spans = [event for event in json.loads(path.read_text())[
            "traceEvents"] if event["ph"] == "X"]
        grids = [span["args"] for span in spans if span["name"] == "dse.grid"]
        assembles = [span for span in spans if span["name"] == "dse.assemble"]
        assert grids and len(assembles) == len(grids)
        stacks, _ = batch._fused_plan(
            TITAN_XP, (("alexnet", 16, "training", 4),), True, 1,
            registry_generation())
        rows = len(stacks[128].flops)
        assert sum(grid["designs"] for grid in grids) == 4
        assert sum(grid["cells"] for grid in grids) == 4 * rows
        assert all(grid["cells"] == grid["rows"] * grid["designs"]
                   for grid in grids)

    def test_dse_over_the_space_bound_is_an_error_report(self, capsys):
        axes = []
        for key in GPU_AXIS_KEYS:
            axes += ["--axis", f"{key}=" + ",".join(map(str, range(1, 13)))]
        assert main(["dse", *axes, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["error_type"] == "ValueError"
        assert (f"{12 ** 8} design points, more than the bound of "
                f"{MAX_SPACE_POINTS}") in payload["meta"]["error_message"]

    def test_dse_rejects_malformed_axis(self, capsys):
        assert main(["dse", "--networks", "alexnet",
                     "--axis", "num_sm"]) == 1
        assert "malformed axis" in capsys.readouterr().out
        with pytest.raises(ValueError, match="malformed axis"):
            main(["dse", "--networks", "alexnet", "--axis", "num_sm",
                  "--strict"])
