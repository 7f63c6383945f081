"""The top-level ``python -m repro`` CLI."""

import pytest

from repro.cli import EXIT_ERROR, main


def assert_one_line_error(capsys, error_type):
    """The CLI reported ``error_type`` as a single stderr line."""
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro: {error_type}: "), lines[0]
    assert "Traceback" not in captured.err


class TestCurvesCommand:
    def test_lists_curves(self, capsys):
        assert main(["curves"]) == 0
        out = capsys.readouterr().out
        for name in ("onion", "hilbert", "peano", "zorder"):
            assert name in out


class TestKeyAndCell:
    def test_key(self, capsys):
        assert main(["key", "--curve", "onion", "--side", "4", "3", "0"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_cell(self, capsys):
        assert main(["cell", "--curve", "onion", "--side", "4", "3"]) == 0
        assert capsys.readouterr().out.strip() == "3,0"

    def test_roundtrip_3d(self, capsys):
        assert main(["key", "--curve", "onion", "--side", "4", "--dim", "3",
                     "1", "2", "3"]) == 0
        key = capsys.readouterr().out.strip()
        assert main(["cell", "--curve", "onion", "--side", "4", "--dim", "3",
                     key]) == 0
        assert capsys.readouterr().out.strip() == "1,2,3"


class TestClusterCommand:
    def test_cluster_count(self, capsys):
        assert main(["cluster", "--curve", "hilbert", "--side", "8",
                     "--lo", "0,1", "--hi", "6,7"]) == 0
        assert "clusters: 5" in capsys.readouterr().out

    def test_cluster_runs_and_draw(self, capsys):
        assert main(["cluster", "--curve", "onion", "--side", "8",
                     "--lo", "0,1", "--hi", "6,7", "--runs", "--draw"]) == 0
        out = capsys.readouterr().out
        assert "run [" in out
        assert "1 cluster(s) under onion" in out


class TestExplainCommand:
    def test_explain_prints_plan_and_execution(self, capsys):
        assert main(["explain", "--curve", "onion", "--side", "16",
                     "--lo", "2,3", "--hi", "10,11", "--points", "400"]) == 0
        out = capsys.readouterr().out
        assert "QueryPlan" in out
        assert "estimated seeks" in out
        assert "executed:" in out

    def test_explain_with_gap_tolerance(self, capsys):
        assert main(["explain", "--curve", "hilbert", "--side", "16",
                     "--lo", "1,1", "--hi", "12,13", "--gap", "32",
                     "--points", "400"]) == 0
        out = capsys.readouterr().out
        assert "gap_tolerance=32" in out

    def test_rect_outside_universe_exits_with_one_line_error(self, capsys):
        # default --side 8: the rect does not fit the universe
        assert main(["explain", "--lo", "10,10", "--hi", "40,30"]) == EXIT_ERROR
        assert_one_line_error(capsys, "InvalidQueryError")


class TestQueryCommand:
    def test_single_rect(self, capsys):
        assert main(["query", "--curve", "onion", "--side", "16",
                     "--rect", "2,3:10,11", "--points", "400"]) == 0
        out = capsys.readouterr().out
        assert "executed:" in out
        assert "seeks" in out

    def test_multi_rect_union_with_limit(self, capsys):
        assert main(["query", "--curve", "onion", "--side", "16",
                     "--rect", "0,0:6,6", "--rect", "4,4:12,12",
                     "--limit", "10", "--points", "400"]) == 0
        out = capsys.readouterr().out
        assert "10 rows" in out
        assert "[truncated by limit]" in out

    def test_stream_reports_peak_residency(self, capsys):
        assert main(["query", "--curve", "hilbert", "--side", "16",
                     "--rect", "0,0:15,15", "--stream",
                     "--points", "400", "--page-capacity", "8"]) == 0
        out = capsys.readouterr().out
        assert "streamed:" in out
        assert "peak page residency" in out

    def test_sharded_service(self, capsys):
        assert main(["query", "--curve", "onion", "--side", "16",
                     "--rect", "1,1:9,9", "--shards", "3",
                     "--points", "400"]) == 0
        assert "executed:" in capsys.readouterr().out

    def test_knn(self, capsys):
        assert main(["query", "--curve", "onion", "--side", "16",
                     "--knn", "5,5", "--k", "3", "--points", "400"]) == 0
        out = capsys.readouterr().out
        assert "nearest" in out
        assert "distance" in out

    def test_rect_required_without_knn(self, capsys):
        assert main(["query", "--curve", "onion", "--side", "16",
                     "--points", "100"]) == EXIT_ERROR
        assert_one_line_error(capsys, "InvalidQueryError")

    def test_malformed_rect_rejected(self):
        import pytest

        # argparse turns the InvalidQueryError (a ValueError) from
        # _parse_rect into a usage error
        with pytest.raises(SystemExit):
            main(["query", "--curve", "onion", "--side", "16",
                  "--rect", "2,3", "--points", "100"])


class TestBatchCommand:
    def test_batch_reports_seek_comparison(self, capsys):
        assert main(["batch", "--curve", "hilbert", "--side", "16",
                     "--count", "40", "--points", "300"]) == 0
        out = capsys.readouterr().out
        assert "query-at-a-time:" in out
        assert "batched:" in out
        assert "plan cache:" in out

    def test_batch_with_shards_reports_fanout(self, capsys):
        assert main(["batch", "--curve", "onion", "--side", "16",
                     "--count", "40", "--points", "300", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded:" in out
        assert "4 shards" in out
        assert "avg fan-out" in out

    def test_explain_with_shards_is_shard_aware(self, capsys):
        assert main(["explain", "--curve", "onion", "--side", "16",
                     "--lo", "2,3", "--hi", "10,11", "--points", "400",
                     "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "ShardedPlan" in out
        assert "touched of 4" in out
        assert "executed:" in out


class TestAdviseCommand:
    def test_row_workload_ranks_rowmajor_first(self, capsys):
        assert main(["advise", "--side", "32", "--shapes", "32x1"]) == 0
        out = capsys.readouterr().out
        assert "winner: rowmajor" in out
        assert "expected seeks" in out

    def test_cube_workload_ranks_onion_first(self, capsys):
        assert main(["advise", "--side", "32", "--shapes", "20x20"]) == 0
        assert "winner: onion" in capsys.readouterr().out

    def test_weighted_mixed_workload_table(self, capsys):
        assert main(["advise", "--side", "32", "--curves", "onion,rowmajor",
                     "--shapes", "32x1:100,20x20:1"]) == 0
        out = capsys.readouterr().out
        assert "winner: rowmajor" in out  # row-heavy mix
        assert "32x1" in out and "20x20" in out

    def test_restricted_candidate_list(self, capsys):
        assert main(["advise", "--side", "16", "--curves", "hilbert,zorder",
                     "--shapes", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "onion" not in out


class TestMigrateCommand:
    def test_explicit_target_reduces_row_seeks(self, capsys):
        assert main(["migrate", "--curve", "hilbert", "--to", "rowmajor",
                     "--side", "16", "--points", "256", "--shapes", "16x1",
                     "--queries", "20"]) == 0
        out = capsys.readouterr().out
        assert "before migration:" in out
        assert "migrated 256 records" in out
        assert "after migration:" in out
        assert "seek reduction:" in out

    def test_auto_target_prints_drift_report(self, capsys):
        assert main(["migrate", "--curve", "rowmajor", "--to", "auto",
                     "--side", "32", "--points", "1024", "--page-capacity", "4",
                     "--shapes", "20x20", "--queries", "20"]) == 0
        out = capsys.readouterr().out
        assert "DriftReport" in out
        assert "onion" in out
        assert "after migration:" in out

    def test_bad_shape_or_weight_exits_with_typed_error(self, capsys):
        assert main(["migrate", "--curve", "rowmajor", "--to", "onion",
                     "--side", "16", "--shapes", "20x1", "--queries", "5"]) == EXIT_ERROR
        assert_one_line_error(capsys, "InvalidQueryError")
        assert main(["migrate", "--curve", "rowmajor", "--to", "onion",
                     "--side", "16", "--shapes", "8x8:0", "--queries", "5"]) == EXIT_ERROR
        assert_one_line_error(capsys, "InvalidQueryError")
        assert main(["advise", "--side", "16", "--shapes", "8x8:-1,4x4:2"]) == EXIT_ERROR
        assert_one_line_error(capsys, "InvalidQueryError")

    def test_sharded_migration(self, capsys):
        assert main(["migrate", "--curve", "hilbert", "--to", "rowmajor",
                     "--side", "16", "--points", "300", "--shards", "4",
                     "--shapes", "16x1", "--queries", "15"]) == 0
        out = capsys.readouterr().out
        assert "4 shards" in out
        assert "migrated" in out


class TestRenderCommand:
    def test_render_keys(self, capsys):
        assert main(["render", "--curve", "onion", "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert "15" in out

    def test_render_path(self, capsys):
        assert main(["render", "--curve", "hilbert", "--side", "4",
                     "--mode", "path"]) == 0
        out = capsys.readouterr().out
        assert "o" in out


class TestDurabilityCommands:
    def _seed(self, tmp_path, *extra):
        root = tmp_path / "store"
        assert main(["query", "--side", "8", "--points", "50",
                     "--rect", "1,1:6,6", "--durable", str(root), *extra]) == 0
        return root

    def test_recover_replays_a_durable_query_run(self, tmp_path, capsys):
        root = self._seed(tmp_path)
        assert main(["recover", "--path", str(root), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered SFCIndex: 50 record(s)" in out
        assert "WAL frame(s) replayed" in out
        assert "verify: OK" in out

    def test_recover_sharded_store_reports_shards(self, tmp_path, capsys):
        root = self._seed(tmp_path, "--shards", "3")
        assert main(["recover", "--path", str(root)]) == 0
        out = capsys.readouterr().out
        assert "recovered ShardedSFCIndex" in out
        assert "3 shards" in out

    def test_checkpoint_then_recover_replays_no_frames(self, tmp_path, capsys):
        root = self._seed(tmp_path)
        assert main(["checkpoint", "--path", str(root), "--compact"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint generation 1" in out
        assert "WAL rotated" in out
        assert main(["recover", "--path", str(root), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out
        assert "0 WAL frame(s) replayed" in out
        assert "verify: OK" in out

    def test_recover_missing_store_exits_with_one_line_error(self, tmp_path, capsys):
        assert main(["recover", "--path", str(tmp_path / "nothing")]) == EXIT_ERROR
        assert_one_line_error(capsys, "RecoveryError")


class TestExperimentsDelegation:
    def test_experiments_subcommand(self, capsys):
        assert main(["experiments", "fig2"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])
