"""Command-line interface tests (invoked in-process via main())."""

import pytest

from repro.__main__ import _parse_size, main
from repro.hw.config import ASCEND_910B4
from repro.tune import TuneStore, WorkloadKey, warm_tune_store


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64K", 65536),
            ("1M", 1 << 20),
            ("2m", 2 << 20),
            ("0.5M", 1 << 19),
            ("1G", 1 << 30),
        ],
    )
    def test_sizes(self, text, expected):
        assert _parse_size(text) == expected


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ascend-910b4" in out
        assert "800 GB/s" in out

    def test_scan(self, capsys):
        assert main(["scan", "--algorithm", "mcscan", "-n", "64K"]) == 0
        out = capsys.readouterr().out
        assert "mcscan(s=128)" in out
        assert "GB/s" in out

    def test_scan_strategy(self, capsys):
        assert main(["scan", "--algorithm", "lookback", "-n", "64K"]) == 0
        assert "lookback" in capsys.readouterr().out

    def test_scan_timeline(self, capsys):
        assert main(
            ["scan", "-n", "64K", "--timeline", "--width", "40"]
        ) == 0
        assert "legend:" in capsys.readouterr().out

    def test_scan_int8_exclusive(self, capsys):
        assert main(
            ["scan", "-n", "64K", "--dtype", "int8", "--exclusive"]
        ) == 0

    def test_experiment(self, capsys):
        assert main(["experiment", "fig09"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "int8" in out

    def test_experiment_markdown_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "fig09.md"
        assert main(
            ["experiment", "fig09", "--markdown", "--out", str(out_file)]
        ) == 0
        assert "### fig09" in out_file.read_text()

    def test_tune_entries_do_not_depend_on_order(self, tmp_path, capsys):
        # each workload is tuned on a fresh context, as warm-up tunes it,
        # so the CLI's store equals warm-up's for the reversed list
        path = tmp_path / "tuned.json"
        assert main(["tune", "--shapes", "4K,64K", "--store", str(path)]) == 0
        assert "wrote 2 tuned entries" in capsys.readouterr().out
        ref = TuneStore(ASCEND_910B4)
        warm_tune_store(
            [WorkloadKey("1d", 1 << 16, "fp16"), WorkloadKey("1d", 1 << 12, "fp16")],
            ref,
        )
        assert TuneStore.load(path, ASCEND_910B4).entries == ref.entries

    def test_shard(self, capsys):
        assert main(["shard", "-n", "256K", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "dev0" in out and "dev1" in out
        # D=2 mcscan folds the device carry into phase II
        assert "phase I" in out and "phase II" in out
        assert "carry stage" not in out
        assert "speedup at D=2" in out

    def test_shard_rejects_vector(self):
        # the sharded scan is MCScan only: there is no --algorithm flag
        with pytest.raises(SystemExit):
            main(["shard", "--algorithm", "vector"])

    def test_chaos(self, capsys):
        assert main(
            ["chaos", "--devices", "2", "--requests", "4",
             "--kill", "1", "--kill-at", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "served          : 4/4 requests, 4 bit-identical" in out
        assert "DEAD" in out

    def test_traffic(self, capsys):
        assert main(
            ["traffic", "--devices", "2", "--requests", "16", "--sizes", "1K"]
        ) == 0
        assert "continuous vs naive: p99" in capsys.readouterr().out

    def test_graph(self, capsys):
        assert main(
            ["graph", "--devices", "2", "--requests", "3", "--vocab", "64",
             "--k", "8", "--fusion", "aggressive"]
        ) == 0
        out = capsys.readouterr().out
        assert "served          : 3/3 graph requests (3 bit-identical" in out

    def test_graph_fusion_choices_are_the_fusion_modes(self):
        from repro.__main__ import build_parser
        from repro.graph import FUSION_MODES

        sub = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices["graph"]
        (fusion,) = [a for a in sub._actions if a.dest == "fusion"]
        assert tuple(fusion.choices) == FUSION_MODES

    def test_smoke_mode_is_gone(self):
        # the self-checks live in the test suite; the CLI only demos
        with pytest.raises(SystemExit):
            main(["chaos", "--smoke"])

    def test_sort(self, capsys):
        assert main(["sort", "-n", "64K"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_compress(self, capsys):
        assert main(["compress", "-n", "64K", "--skip-baseline"]) == 0
        assert "compress" in capsys.readouterr().out

    def test_topp(self, capsys):
        assert main(["topp", "-n", "8K"]) == 0
        out = capsys.readouterr().out
        assert "cube" in out and "baseline" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_algorithm(self):
        with pytest.raises(SystemExit):
            main(["scan", "--algorithm", "bogosort"])
