"""Integration tests: multiple RTOS instances (multi-CPU partitions).

The eSW methodology generalizes to several processors: each CPU gets
its own :class:`Rtos`, and PEs assigned to different CPUs keep talking
SHIP.  These tests check the properties that make multi-CPU partitions
meaningful: per-CPU serialization with cross-CPU parallelism, and
generation of one pipeline across two CPUs.
"""


from repro.kernel import ns, us
from repro.apps import build_pv, reference_output
from repro.esw import ExecuteFor, PartitionSpec, generate_esw
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import ShipChannel, ShipInt, ShipMasterPort, ShipSlavePort


class Client(ProcessingElement):
    """Requests 0, 1, 2 and keeps the replies' values."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.got = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for i in range(3):
            reply = yield from self.port.request(ShipInt(i))
            self.got.append(reply.value)


class Tripler(ProcessingElement):
    """Answers each request with three times its value after 1 us of
    computing."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            yield ExecuteFor(us(1))
            yield from self.port.reply(ShipInt(req.value * 3))


class TestTwoCpus:
    def test_cpus_compute_in_parallel(self, ctx, top):
        """Two 5-us jobs on two CPUs finish together; on one CPU they
        serialize."""
        cpu0 = Rtos("cpu0", top)
        cpu1 = Rtos("cpu1", top)
        done = {}

        def job(os, tag):
            def body():
                yield from os.execute(us(5))
                done[tag] = ctx.now
            return body

        cpu0.create_task(job(cpu0, "a"), "a", priority=5)
        cpu1.create_task(job(cpu1, "b"), "b", priority=5)
        ctx.run(us(1000))
        assert done["a"] == us(5)
        assert done["b"] == us(5)

    def test_cross_cpu_ship_channel(self, ctx, top):
        cpu0 = Rtos("cpu0", top)
        cpu1 = Rtos("cpu1", top)
        chan = ShipChannel("chan", top)
        client = Client("client", top, chan)
        server = Tripler("server", top, chan)
        generate_esw(PartitionSpec(software=[client]), cpu0)
        image1 = generate_esw(PartitionSpec(software=[server]), cpu1)
        ctx.run(us(1000))
        assert client.got == [0, 3, 6]
        # the server's compute ran on cpu1
        assert image1.tasks[0].task.cpu_time == us(3)

    def test_pipeline_split_across_two_cpus(self):
        """source+sink on cpu0, transform on cpu1: outputs unchanged,
        and each CPU only accounts for its own tasks' time."""
        blocks = 5
        system = build_pv(blocks)
        cpu0 = Rtos("cpu0", system.top)
        cpu1 = Rtos("cpu1", system.top)
        image0 = generate_esw(
            PartitionSpec(software=[system.source, system.sink]), cpu0
        )
        image1 = generate_esw(
            PartitionSpec(software=[system.transform]), cpu1
        )
        system.ctx.run(us(100_000))
        assert system.outputs() == reference_output(blocks)
        assert len(image0.tasks) == 2
        assert len(image1.tasks) == 1
        # transform's 500ns x 5 blocks landed on cpu1 only
        transform_task = image1.tasks[0].task
        assert transform_task.cpu_time == ns(500) * blocks
        source_sink_time = sum(
            (t.task.cpu_time for t in image0.tasks),
            start=ns(0),
        )
        assert source_sink_time == ns(200) * blocks + ns(100) * blocks

    def test_two_cpu_split_faster_than_single_cpu(self):
        """The parallelism argument for partitioning: a two-CPU split
        completes the pipeline sooner than everything on one CPU."""
        blocks = 8

        def build(two_cpus):
            system = build_pv(blocks)
            cpu0 = Rtos("cpu0", system.top)
            if two_cpus:
                cpu1 = Rtos("cpu1", system.top)
                generate_esw(PartitionSpec(
                    software=[system.source, system.sink]), cpu0)
                generate_esw(PartitionSpec(
                    software=[system.transform]), cpu1)
            else:
                generate_esw(PartitionSpec(software=system.pes), cpu0)
            system.ctx.run(us(100_000))
            assert system.outputs() == reference_output(blocks)
            return system.ctx.last_activity_time

        single = build(False)
        dual = build(True)
        assert dual < single
