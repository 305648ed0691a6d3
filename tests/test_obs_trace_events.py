"""Chrome trace-event export: schema validity, pairing, counter tracks."""

import collections
import json

from repro.kernel import Fifo, SimContext, ns
from repro.obs import MetricsRegistry, TraceEventCollector, watch_fifo
from repro.obs.report import run_demo


def _run_workload(collector):
    """Two threads, one reporting a transfer to the context's observer
    after each wait, as a bus does."""
    ctx = SimContext()

    def busy():
        for i in range(5):
            begin_fs = ctx.now.femtoseconds
            yield ns(20)
            ctx.observer.on_transaction("bus", "read", "cpu", "mem",
                                        begin_fs, ctx.now.femtoseconds, 4,
                                        None)

    def idle():
        for _ in range(5):
            yield ns(30)

    ctx.register_thread(busy, "busy")
    ctx.register_thread(idle, "idle")
    ctx.attach_observer(collector)
    ctx.run()
    return ctx


class TestTraceSchema:
    def test_round_trips_through_json(self, tmp_path):
        collector = TraceEventCollector()
        _run_workload(collector)
        path = tmp_path / "t.trace.json"
        collector.write(str(path))
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"]
        assert data["displayTimeUnit"] == "ns"
        for event in data["traceEvents"]:
            assert "ph" in event
            assert "ts" in event
            assert event["ts"] >= 0

    def test_timestamps_sorted(self):
        collector = TraceEventCollector()
        _run_workload(collector)
        events = [e for e in collector.to_dict()["traceEvents"]
                  if e["ph"] != "M"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_begin_end_pairs_matched(self):
        collector = TraceEventCollector()
        _run_workload(collector)
        depth = collections.Counter()
        for event in collector.to_dict()["traceEvents"]:
            key = (event.get("pid"), event.get("tid"))
            if event["ph"] == "B":
                depth[key] += 1
            elif event["ph"] == "E":
                depth[key] -= 1
                assert depth[key] >= 0, "E without matching B"
        assert all(v == 0 for v in depth.values())

    def test_transaction_span_carries_args(self):
        collector = TraceEventCollector()
        _run_workload(collector)
        begins = [e for e in collector.to_dict()["traceEvents"]
                  if e["ph"] == "B"]
        assert len(begins) == 5
        assert begins[0]["args"]["initiator"] == "cpu"
        assert begins[0]["args"]["nbytes"] == 4
        # 1 trace us == 1 simulated ns: first read begins at t=0,
        # second at 20ns.
        assert begins[1]["ts"] == 20.0

    def test_process_slices_have_nonnegative_duration(self):
        collector = TraceEventCollector()
        _run_workload(collector)
        slices = [e for e in collector.to_dict()["traceEvents"]
                  if e["ph"] == "X"]
        assert slices, "kernel hooks produced no activation slices"
        assert all(s["dur"] >= 0 for s in slices)
        names = {s["name"] for s in slices}
        assert {"busy", "idle"} <= names

    def test_metadata_names_tracks(self):
        collector = TraceEventCollector()
        _run_workload(collector)
        meta = [e for e in collector.to_dict()["traceEvents"]
                if e["ph"] == "M"]
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert {"busy", "idle", "bus"} <= thread_names
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert "kernel processes" in process_names

    def test_process_tracks_can_be_disabled(self):
        collector = TraceEventCollector(process_tracks=False)
        _run_workload(collector)
        phases = {e["ph"] for e in collector.to_dict()["traceEvents"]}
        assert "X" not in phases
        assert "B" in phases      # channel spans still present


class TestCounterTracks:
    def test_watched_gauge_emits_counter_events(self, ctx, top):
        collector = TraceEventCollector()
        registry = MetricsRegistry()
        fifo = Fifo("f", top, capacity=4)
        gauge = watch_fifo(fifo, registry)
        collector.watch_gauge(gauge)

        def producer():
            for i in range(3):
                yield from fifo.write(i)
                yield ns(10)

        top.add_thread(producer, "p")
        ctx.run()
        counters = [e for e in collector.to_dict()["traceEvents"]
                    if e["ph"] == "C"]
        assert counters
        name = f"fifo.{fifo.full_name}.occupancy"
        assert counters[0]["name"] == name
        values = [e["args"][name] for e in counters]
        assert max(values) >= 1

    def test_manual_span_and_counter(self):
        collector = TraceEventCollector()
        collector.add_span("chan", "xfer", 0, int(ns(5).femtoseconds),
                           nbytes=8)
        collector.add_counter("depth", 3, 0)
        assert len(collector) == 3
        json.dumps(collector.to_dict())


class TestNamedProcessTracks:
    """Explicit track-group naming — the sweep-stitcher contract."""

    def test_name_process_emits_single_metadata_record(self):
        collector = TraceEventCollector(process_tracks=False)
        collector.name_process(10, "worker 0 (pid 123, gen 1)")
        collector.name_process(10, "worker 0 (pid 123, gen 2)")
        meta = [e for e in collector.to_dict()["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"
                and e["pid"] == 10]
        assert len(meta) == 1
        # rename updated the record in place instead of duplicating
        assert meta[0]["args"]["name"] == "worker 0 (pid 123, gen 2)"

    def test_pre_named_pid_keeps_its_label_on_first_span(self):
        collector = TraceEventCollector(process_tracks=False)
        collector.name_process(11, "worker 1 (pid 99, gen 1)")
        collector.add_span("points", "simulate", 0, 1000, pid=11)
        meta = [e for e in collector.to_dict()["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"
                and e["pid"] == 11]
        assert [m["args"]["name"] for m in meta] == [
            "worker 1 (pid 99, gen 1)"]

    def test_pid_reuse_across_generations_gets_distinct_tracks(self):
        # Two pool generations whose workers landed on the same OS pid
        # must still stitch to *different* trace tracks: the stitcher
        # keys synthetic pids on (generation, worker_id, os_pid), so
        # the collector sees distinct pids with distinct labels.
        collector = TraceEventCollector(process_tracks=False)
        os_pid = 4242  # reused by both generations
        collector.name_process(10, f"worker 0 (pid {os_pid}, gen 1)")
        collector.name_process(11, f"worker 0 (pid {os_pid}, gen 2)")
        collector.add_span("points", "simulate", 0, 500, pid=10)
        collector.add_span("points", "simulate", 1000, 1500, pid=11)
        data = collector.to_dict()
        names = {e["args"]["name"]
                 for e in data["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert f"worker 0 (pid {os_pid}, gen 1)" in names
        assert f"worker 0 (pid {os_pid}, gen 2)" in names
        span_pids = {e["pid"] for e in data["traceEvents"]
                     if e["ph"] in ("B", "E")}
        assert span_pids == {10, 11}

    def test_time_note_overrides_time_mapping(self):
        note = "1 trace us == 1 host us since telemetry start"
        collector = TraceEventCollector(process_tracks=False,
                                        time_note=note)
        assert collector.to_dict()["otherData"]["time_mapping"] == note


def _slices(trace):
    """Read spans back by the format's pairing rule: each ``E`` closes
    the most recent open ``B`` of its (pid, tid) thread.  Returns
    ``(thread name, span name, begin, end, B args)`` tuples and the
    deepest nesting seen on any thread."""
    threads = {(e["pid"], e["tid"]): e["args"]["name"]
               for e in trace["traceEvents"]
               if e["ph"] == "M" and e["name"] == "thread_name"}
    open_spans = collections.defaultdict(list)
    slices, depth = [], 0
    for event in trace["traceEvents"]:
        key = (event.get("pid"), event.get("tid"))
        if event["ph"] == "B":
            open_spans[key].append(event)
            depth = max(depth, len(open_spans[key]))
        elif event["ph"] == "E":
            begin = open_spans[key].pop()
            slices.append((threads[key], begin["name"], begin["ts"],
                           event["ts"], begin["args"]))
    assert not any(open_spans.values()), "B without matching E"
    return slices, depth


class TestOverlappingSpans:
    """Spans that overlap on one track each read back their own extent."""

    #: (name, begin ns, end ns), in arrival order: partial overlaps,
    #: a span arriving after one it contains, zero-length and touching
    #: spans
    SPANS = [
        ("m0", 210, 320), ("m1", 300, 410), ("m2", 100, 500),
        ("m3", 320, 320), ("m4", 320, 330), ("m5", 405, 406),
        ("m6", 0, 50), ("m7", 50, 100),
    ]

    def test_each_span_reads_back_its_own_begin_and_end(self):
        collector = TraceEventCollector(process_tracks=False)
        for name, begin, end in self.SPANS:
            collector.add_span("plb", name, int(ns(begin).femtoseconds),
                               int(ns(end).femtoseconds), n=name)
        slices, depth = _slices(collector.to_dict())
        assert sorted((name, begin, end) for _, name, begin, end, _
                      in slices) == sorted(
            (name, float(begin), float(end))
            for name, begin, end in self.SPANS)
        assert all(args == {"n": name} for _, name, _, _, args in slices)
        # one open slice per thread at a time; lanes share the track
        # name, and m6, arriving after spans that end later than it
        # begins, opens a fourth
        assert depth == 1
        assert {thread for thread, *_ in slices} == {
            "plb", "plb (2)", "plb (3)", "plb (4)"}

    def test_overlapping_transactions_keep_their_initiator(self):
        collector = TraceEventCollector(process_tracks=False)
        collector.on_transaction("plb", "wr", "m0", "mem",
                                 ns(210).femtoseconds,
                                 ns(320).femtoseconds, 32, 8)
        collector.on_transaction("plb", "rd", "m1", "mem",
                                 ns(300).femtoseconds,
                                 ns(410).femtoseconds, 32, 8)
        slices, _ = _slices(collector.to_dict())
        assert sorted((args["initiator"], begin, end)
                      for _, _, begin, end, args in slices) == [
            ("m0", 210.0, 320.0), ("m1", 300.0, 410.0)]
        # a bus transfer's burst is a span argument
        assert all(args["burst"] == 8 for *_, args in slices)

    def test_instrumented_plb_run_has_one_open_slice_per_thread(self):
        # python -m repro.obs.report's workload: two masters contend
        # for the PLB, so their transactions overlap on its track
        _, _, collector, _ = run_demo(transactions=20)
        slices, depth = _slices(collector.to_dict())
        assert depth == 1
        plb = [s for s in slices if s[0].startswith("top.plb")]
        assert len(plb) == 40
        assert len({thread for thread, *_ in plb}) > 1
