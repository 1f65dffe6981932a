"""Tests for repro.cli (the top-level command line)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, load_update_file, main
from repro.exceptions import GraphError
from repro.graph.io import save_edge_list
from repro.serving import ServiceConfig


@pytest.fixture
def edges_file(tmp_path, citation_graph):
    path = str(tmp_path / "graph.txt")
    save_edge_list(citation_graph, path)
    return path


@pytest.fixture
def updates_file(tmp_path, citation_graph):
    path = tmp_path / "updates.txt"
    existing = sorted(citation_graph.edge_set())
    source, target = existing[0]
    lines = [
        "# a comment",
        f"- {source} {target}",
        "+ 0 55",
        "+ 1 55",
        "+ 2 55",  # repeated target: exercises consolidation
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadUpdateFile:
    def test_parses_signs(self, updates_file):
        batch = load_update_file(updates_file)
        assert len(batch) == 4
        assert batch.num_deletions == 1
        assert batch.num_insertions == 3

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("* 0 1\n")
        with pytest.raises(GraphError):
            load_update_file(str(path))

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ 0\n")
        with pytest.raises(GraphError):
            load_update_file(str(path))


class TestCommands:
    def test_info(self, edges_file, capsys):
        assert main(["info", edges_file]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out
        assert "in_degree_gini" in out

    def test_compute_with_output(self, edges_file, tmp_path, capsys):
        out_path = str(tmp_path / "scores.npy")
        code = main(
            ["--iterations", "5", "compute", edges_file, "-o", out_path, "-k", "3"]
        )
        assert code == 0
        scores = np.load(out_path)
        assert scores.shape[0] == scores.shape[1]
        assert "top-3 similar pairs" in capsys.readouterr().out

    def test_update_unit_path(self, edges_file, updates_file, capsys):
        code = main(
            ["--iterations", "5", "update", edges_file, updates_file, "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applied 4 unit updates" in out
        assert "pruned" in out

    def test_update_consolidated_path(self, edges_file, updates_file, capsys):
        code = main(
            [
                "--iterations",
                "5",
                "update",
                edges_file,
                updates_file,
                "--consolidate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # 4 updates but at most 2 distinct target rows.
        assert "consolidated row updates" in out
        assert "as 2 consolidated" in out

    def test_consolidated_and_unit_agree(
        self, edges_file, updates_file, tmp_path, capsys
    ):
        unit_out = str(tmp_path / "unit.npy")
        cons_out = str(tmp_path / "cons.npy")
        main(["update", edges_file, updates_file, "-o", unit_out])
        main(["update", edges_file, updates_file, "--consolidate", "-o", cons_out])
        unit_scores = np.load(unit_out)
        cons_scores = np.load(cons_out)
        np.testing.assert_allclose(unit_scores, cons_scores, atol=1e-3)

    def test_similar(self, edges_file, capsys):
        assert main(["similar", edges_file, "5", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "similar to 5" in out

    def test_serve(self, edges_file, updates_file, capsys):
        assert main(["serve", edges_file, updates_file, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "consolidated row updates" in out
        assert "still serves the frozen version: yes" in out
        assert "fresh snapshot v1 top pairs" in out

    def test_bad_update_prints_one_error_line(
        self, edges_file, tmp_path, capsys
    ):
        path = tmp_path / "missing-node.txt"
        path.write_text("+ 0 999\n")  # node 999 is not in the graph
        assert main(["serve", edges_file, str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "999" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [("executor", "process"), ("workers", 2), ("start_method", "spawn")],
    )
    def test_serve_config_with_removed_key_fails(
        self, edges_file, updates_file, tmp_path, capsys, key, value
    ):
        config = tmp_path / "service.json"
        config.write_text(json.dumps({key: value}))
        assert (
            main(["serve", edges_file, updates_file, "--config", str(config)])
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("error: unknown service config keys")
        assert repr(key) in err

    def test_serve_flag_conflicting_with_config_fails(
        self, edges_file, updates_file, tmp_path, capsys
    ):
        config = tmp_path / "service.json"
        ServiceConfig(writer="sync").save(str(config))
        argv = ["serve", edges_file, updates_file, "--config", str(config)]
        assert main(argv + ["--writer", "background"]) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "conflicts" in lines[0] and "writer" in lines[0]
        # A flag that agrees with the file is not a conflict.
        assert main(argv + ["--writer", "sync"]) == 0

    def test_serve_precision_choices(self, edges_file, updates_file, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", edges_file, updates_file, "--precision", "auto"]
            )
        argv = ["serve", edges_file, updates_file, "--precision", "float32"]
        assert main(argv) == 0
        assert "score store dtype float32" in capsys.readouterr().out

    def test_removed_pool_flags_are_unknown(self, edges_file, updates_file):
        for flag in (["--workers", "2"], ["--degraded-policy", "reject"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["serve", edges_file, updates_file, *flag]
                )

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
