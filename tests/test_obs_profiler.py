"""Simulation profiler: activation counts, hotspot ranking, report."""

import json

import pytest

from repro.kernel import SimContext, ns
from repro.obs import SimProfiler
from repro.obs.report import main as report_main


def _two_process_fixture():
    """Two threads with known activation counts.

    ``heavy`` performs 10 timed waits, ``light`` 3 — each thread is
    dispatched once per wait plus once for its initial run and final
    return, so heavy activates 11 times and light 4 (the dispatch that
    runs to StopIteration follows the last wait).
    """
    ctx = SimContext()

    def heavy():
        for _ in range(10):
            yield ns(10)
            sum(range(200))      # measurable work

    def light():
        for _ in range(3):
            yield ns(10)

    ctx.register_thread(heavy, "heavy")
    ctx.register_thread(light, "light")
    return ctx


class TestProfiler:
    def test_activation_counts(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        per = profiler.per_process
        assert per["heavy"].activations == 11
        assert per["light"].activations == 4
        assert profiler.total_activations == 15

    def test_start_stop_brackets_wall_clock(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        assert profiler.wall_s > 0
        assert 0 < profiler.dispatch_wall_s <= profiler.wall_s
        # stop() detached: further runs are not observed
        assert ctx.observer is None

    def test_hotspot_ranking_and_shares(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        rows = profiler.hotspots(10)
        assert len(rows) == 2
        assert rows[0]["wall_s"] >= rows[1]["wall_s"]
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_hotspots_truncates(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        assert len(profiler.hotspots(1)) == 1

    def test_kernel_phase_totals(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        assert profiler.delta_cycles == ctx.delta_count
        assert profiler.timesteps > 0
        # no user Events; only each thread's terminated-event fires
        assert profiler.events_fired == 2
        assert profiler.update_phases == 0  # no channels in this design

    def test_format_table_contents(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        table = profiler.format_table(5)
        assert "heavy" in table
        assert "light" in table
        assert "share" in table
        assert "delta cycles" in table

    def test_report_is_json_able(self):
        ctx = _two_process_fixture()
        profiler = SimProfiler().start(ctx)
        ctx.run()
        profiler.stop()
        report = json.loads(json.dumps(profiler.report()))
        assert report["activations"] == 15
        assert len(report["processes"]) == 2
        assert report["processes"][0]["kind"] == "thread"

    def test_empty_profiler(self):
        profiler = SimProfiler()
        assert profiler.hotspots() == []
        assert profiler.dispatch_wall_s == 0.0
        assert "total: 0 activations" in profiler.format_table()


class TestReportCli:
    def test_json_report_counts_both_masters(self, capsys):
        assert report_main(["--transactions", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metrics"]["bus.top.plb.transactions"]["value"] == 4

    def test_text_report_prints_last_activity_time(self, capsys):
        """The demo runs to a generous bound (150 us at 3 transactions);
        the report prints when the workload's last activity happened."""
        assert report_main(["--transactions", "3"]) == 0
        assert capsys.readouterr().out.startswith("simulated 720 ns ")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_transactions_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            report_main(["--transactions", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
