"""E5 — the generic SHIP-based HW/SW interface (§4).

The paper specifies HW/SW communication through shared memory plus
sideband signals, with the SW adapter split into device driver and
communication library.  This benchmark characterizes the interface the
way an interface paper's evaluation table would:

* end-to-end SHIP request latency across the HW/SW boundary as a
  function of message size (words), with the bus-transfer component
  growing linearly and the fixed driver/IRQ overhead dominating small
  messages;
* interrupt-driven vs polling handshake: polling trades PIO bus reads
  (and bus load) against notification latency — with a fast poll
  period, polling approaches IRQ latency at higher bus cost.
"""


from repro.kernel import Module, SimContext, ns, us
from repro.cam import PlbBus
from repro.flow import SystemMapper
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import ShipIntArray, ShipSlavePort

from _util import print_table

SIZES = (4, 16, 64, 256)  # message payload in words
ROUNDS = 6


class EchoPE(ProcessingElement):
    """HW slave: replies with the same array after ``compute_time``."""

    def __init__(self, name, parent, chan, compute_time=ns(0)):
        super().__init__(name, parent)
        self.compute_time = compute_time
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            msg = yield from self.port.recv()
            if self.compute_time > ns(0):
                yield self.compute_time
            yield from self.port.reply(msg)


def run_latency(words: int, use_irq: bool, poll_interval=ns(200),
                hw_compute=ns(0)):
    """Mean round-trip latency (ns) for `ROUNDS` requests of `words`."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = SystemMapper(
        top, plb, rtos=os, mailbox_base=0x80000,
        capacity_words=64,
        use_irq=use_irq,
        poll_interval=poll_interval,
        driver_overhead=ns(100),
    ).connect("acc", master="sw")
    EchoPE("hw", top, link.slave_attach, compute_time=hw_compute)
    latencies = []

    def main():
        payload = ShipIntArray(list(range(words)))
        for _ in range(ROUNDS):
            start = ctx.now
            reply = yield from link.master_attach.request(payload)
            latencies.append((ctx.now - start).to("ns"))
            assert reply.values == payload.values

    os.create_task(main, "main", priority=5)
    ctx.run(us(1_000_000))
    assert len(latencies) == ROUNDS
    mean = sum(latencies) / len(latencies)
    return mean, link.bus_side.pio_reads, link.bus_side.pio_writes


def test_e5_latency_vs_message_size(benchmark):
    def sweep():
        return {
            words: run_latency(words, use_irq=True) for words in SIZES
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "payload_words": words,
            "mean_latency_ns": round(results[words][0], 1),
            "ns_per_word": round(results[words][0] / words, 1),
        }
        for words in SIZES
    ]
    print_table("E5a: HW/SW round-trip latency vs message size", rows)

    latencies = [results[w][0] for w in SIZES]
    # latency grows with message size...
    assert latencies == sorted(latencies)
    # ...sub-linearly at the small end (fixed driver+IRQ overhead
    # dominates): 4x the payload must cost well under 4x the latency
    assert latencies[1] < latencies[0] * 4
    # and the large-message regime is bus-transfer dominated: per-word
    # cost falls monotonically with size
    per_word = [results[w][0] / w for w in SIZES]
    assert per_word == sorted(per_word, reverse=True)


def test_e5_irq_vs_polling(benchmark):
    def compare():
        # the accelerator computes for 5 us, so the handshake's
        # notification latency is actually exposed
        hw = us(5)
        irq = run_latency(16, use_irq=True, hw_compute=hw)
        poll_fast = run_latency(16, use_irq=False,
                                poll_interval=ns(100), hw_compute=hw)
        poll_slow = run_latency(16, use_irq=False,
                                poll_interval=us(2), hw_compute=hw)
        return irq, poll_fast, poll_slow

    irq, poll_fast, poll_slow = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    rows = [
        {"handshake": "irq", "mean_latency_ns": round(irq[0], 1),
         "pio_reads": irq[1]},
        {"handshake": "poll/100ns", "mean_latency_ns":
         round(poll_fast[0], 1), "pio_reads": poll_fast[1]},
        {"handshake": "poll/2us", "mean_latency_ns":
         round(poll_slow[0], 1), "pio_reads": poll_slow[1]},
    ]
    print_table("E5b: IRQ vs polling handshake", rows)

    # polling always costs more status reads than the sideband IRQ
    assert poll_fast[1] > irq[1]
    assert poll_slow[1] > irq[1]
    # slow polling pays for it in latency
    assert poll_slow[0] > irq[0]
    # the crossover: fast polling buys latency back at bus-traffic cost
    assert poll_fast[0] < poll_slow[0]
    assert poll_fast[1] >= poll_slow[1]


def test_e5_single_roundtrip_benchmark(benchmark):
    benchmark(lambda: run_latency(16, use_irq=True))
