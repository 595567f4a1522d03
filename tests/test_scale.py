"""The multi-queue scaling study: sweep grid, tables, CLI."""

import pytest

from repro.cli import main
from repro.core.metrics import run_size_sweep
from repro.core.report import render_scale_table
from repro.core.scale import run_scale_sweep, scaling_efficiency

CPUS = (2, 4)
SIZES = (16384,)
MODES = ("rss", "flow-director")


@pytest.fixture(scope="module")
def sweep():
    # The same cells the CLI smoke below hits, kept tiny: 2x1x2 grid,
    # 2ms/3ms windows (cache-shared with the golden suite's settings).
    return run_scale_sweep(
        "rx", cpus=CPUS, sizes=SIZES, modes=MODES,
        n_queues=4, connections=(8,),
        warmup_ms=2, measure_ms=3, seed=7,
    )


class TestSweep:
    def test_grid_is_complete(self, sweep):
        assert sorted(sweep) == sorted(
            (c, s, m, 8) for c in CPUS for s in SIZES for m in MODES
        )
        assert all(r is not None for r in sweep.values())

    def test_throughput_grows_with_cpus(self, sweep):
        for mode in MODES:
            small = sweep[(2, 16384, mode, 8)].throughput_gbps
            big = sweep[(4, 16384, mode, 8)].throughput_gbps
            assert big > small > 0

    def test_cells_carry_steering_metrics(self, sweep):
        for (_, _, mode, _), result in sweep.items():
            steering = result.to_dict()["steering"]
            assert steering["n_queues"] == 4
            assert steering["flow_director"] == (mode == "flow-director")
            assert sum(steering["rx_steered"]) > 0


class TestEfficiency:
    def test_baseline_is_one(self, sweep):
        eff = scaling_efficiency(sweep, SIZES, CPUS, "rss", 8)
        assert eff[16384][0] == pytest.approx(1.0)
        assert 0.0 < eff[16384][1] <= 1.5

    def test_missing_cells_are_none(self):
        partial = {(2, 16384, "rss", 8): None}
        eff = scaling_efficiency(partial, SIZES, (2, 4), "rss", 8)
        assert eff[16384] == [None, None]

    def test_unsorted_cpus_normalize_against_smallest(self, sweep):
        # --cpus 4 2 must still use the 2-CPU machine as the baseline
        # (min(cpus)), not whichever size was listed first.
        eff = scaling_efficiency(sweep, SIZES, (4, 2), "rss", 8)
        assert eff[16384][1] == pytest.approx(1.0)
        assert eff[16384][0] == pytest.approx(
            scaling_efficiency(sweep, SIZES, CPUS, "rss", 8)[16384][1]
        )


class TestDedupe:
    SMALL = dict(warmup_ms=1, measure_ms=2, seed=7)

    def test_scale_sweep_collapses_duplicate_cells(self):
        with pytest.warns(RuntimeWarning, match="duplicate sweep cells"):
            sweep = run_scale_sweep(
                "rx", cpus=(2, 2), sizes=(16384,), modes=("rss",),
                n_queues=2, connections=(2,), **self.SMALL
            )
        assert list(sweep) == [(2, 16384, "rss", 2)]
        assert sweep[(2, 16384, "rss", 2)] is not None

    def test_size_sweep_collapses_duplicate_cells(self):
        with pytest.warns(RuntimeWarning, match="duplicate sweep cells"):
            sweep = run_size_sweep(
                "rx", sizes=(4096, 4096), modes=("none",),
                n_connections=2, **self.SMALL
            )
        assert list(sweep) == [(4096, "none")]
        assert sweep[(4096, "none")] is not None


class TestRender:
    def test_table_mentions_every_cell(self, sweep):
        text = render_scale_table(sweep, CPUS, SIZES, MODES, "rx", 4, (8,))
        assert "rss" in text and "flow-director" in text
        assert "GHz/Gbps" in text
        assert "reorder" in text

    def test_failed_cells_render_as_fail(self, sweep):
        broken = dict(sweep)
        broken[(4, 16384, "rss", 8)] = None
        text = render_scale_table(broken, CPUS, SIZES, MODES, "rx", 4, (8,))
        assert "FAIL" in text or "--" in text


class TestCli:
    def test_scale_smoke(self, capsys):
        rc = main([
            "scale", "--cpus", "2", "--sizes", "16384",
            "--modes", "rss", "--queues", "4", "--connections", "8",
            "--warmup-ms", "2", "--measure-ms", "3", "--seed", "7",
            "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput Mb/s" in out
        assert "scaling efficiency" in out

    def test_scale_rejects_unknown_mode(self, capsys):
        rc = main(["scale", "--modes", "bogus"])
        assert rc == 2
        assert "unknown steering mode" in capsys.readouterr().err

    def test_scale_rejects_connections_below_queues(self, capsys):
        rc = main([
            "scale", "--queues", "8", "--connections", "4",
        ])
        assert rc == 2
        assert "below --queues" in capsys.readouterr().err

    def test_scale_connections_axis_smoke(self, capsys):
        rc = main([
            "scale", "--cpus", "2", "--sizes", "16384",
            "--modes", "rss", "--queues", "4",
            "--connections", "8", "1000",
            "--warmup-ms", "1", "--measure-ms", "2", "--seed", "7",
            "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cpus x flows" in out
        assert "2 x 1000" in out
        assert "simulation resources per cell" in out
        # The large population ran class-aggregated (auto).
        assert "4/1000" in out
        assert "1000 flows" in out  # per-population efficiency lines
