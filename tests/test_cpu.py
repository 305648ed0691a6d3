"""Unit tests for the ISA, assembler, and the bus-mastering CPU core."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel import SimulationError, ns, us
from repro.cam import GenericBus, MemorySlave, PlbBus
import repro.cpu.core as cpu_core
from repro.cpu import Op, SimpleCpu, assemble, decode, disassemble, encode


class TestIsa:
    def test_encode_decode_round_trip(self):
        word = encode(Op.LOAD, 0x1234)
        assert decode(word) == (Op.LOAD, 0x1234)

    def test_signed_immediates(self):
        assert decode(encode(Op.LDI, -5)) == (Op.LDI, -5)
        assert decode(encode(Op.ADDI, -1)) == (Op.ADDI, -1)
        assert decode(encode(Op.INCX, -4)) == (Op.INCX, -4)

    def test_unsigned_op_rejects_negative(self):
        with pytest.raises(ValueError):
            encode(Op.LOAD, -4)

    def test_operand_width_checked(self):
        with pytest.raises(ValueError):
            encode(Op.JMP, 1 << 24)

    def test_illegal_opcode_rejected(self):
        with pytest.raises(ValueError, match="illegal opcode"):
            decode(0xFF000000)

    @given(
        op=st.sampled_from([Op.LOAD, Op.STORE, Op.JMP, Op.ADD]),
        operand=st.integers(0, (1 << 24) - 1),
    )
    def test_round_trip_property(self, op, operand):
        assert decode(encode(op, operand)) == (op, operand)


class TestAssembler:
    def test_labels_resolve_to_addresses(self):
        words = assemble([
            ("LDI", 1),
            "loop:",
            ("ADDI", 1),
            ("JMP", "loop"),
        ])
        assert decode(words[2]) == (Op.JMP, 4)

    def test_base_offsets_labels(self):
        words = assemble([
            "start:",
            ("JMP", "start"),
        ], base=0x100)
        assert decode(words[0]) == (Op.JMP, 0x100)

    def test_bare_mnemonics(self):
        words = assemble(["NOP", "HALT"])
        assert [decode(w)[0] for w in words] == [Op.NOP, Op.HALT]

    def test_undefined_label_rejected(self):
        with pytest.raises(ValueError, match="undefined label"):
            assemble([("JMP", "nowhere")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            assemble(["a:", "a:", "HALT"])

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="unknown mnemonic"):
            assemble([("FLY", 1)])

    def test_disassemble_listing(self):
        words = assemble([("LDI", 5), "HALT"])
        listing = disassemble(words)
        assert "LDI 0x5" in listing[0]
        assert "HALT" in listing[1]


def build_system(ctx, top, program, data=None, fabric="plb"):
    bus = (PlbBus("bus", top) if fabric == "plb"
           else GenericBus("bus", top, clock_period=ns(10)))
    mem = MemorySlave("mem", top, size=1 << 16, read_wait=1,
                      write_wait=1)
    bus.attach_slave(mem, 0, 1 << 16)
    mem.load_words(0, assemble(program))
    for addr, values in (data or {}).items():
        mem.load_words(addr, values)
    cpu = SimpleCpu("cpu", top, socket=bus.master_socket("cpu"))
    return bus, mem, cpu


SUM_PROGRAM = [
    ("LDI", 0),
    ("STORE", 0x2000),
    ("LDI", 0),
    "SETX",
    ("LDI", 8),
    ("STORE", 0x2004),
    "loop:",
    ("LOADX", 0x1000),
    ("ADD", 0x2000),
    ("STORE", 0x2000),
    ("INCX", 4),
    ("LOAD", 0x2004),
    ("ADDI", -1),
    ("STORE", 0x2004),
    ("BNEZ", "loop"),
    "HALT",
]


class TestCpuCore:
    def test_sum_firmware(self, ctx, top):
        data = [3, 1, 4, 1, 5, 9, 2, 6]
        bus, mem, cpu = build_system(ctx, top, SUM_PROGRAM,
                                     {0x1000: data})
        ctx.run(us(10_000))
        assert cpu.halted and cpu.fault is None
        assert mem.peek_word(0x2000) == sum(data)
        assert cpu.instructions_retired > len(data) * 8

    def test_branching_and_arithmetic(self, ctx, top):
        # compute 10 - 3 - 3 - 3 = 1, then store how many subtractions
        program = [
            ("LDI", 10),
            ("STORE", 0x100),   # value
            ("LDI", 0),
            ("STORE", 0x104),   # counter
            "loop:",
            ("LOAD", 0x100),
            ("ADDI", -3),
            ("STORE", 0x100),
            ("LOAD", 0x104),
            ("ADDI", 1),
            ("STORE", 0x104),
            ("LOAD", 0x100),
            ("ADDI", -1),       # loop while value-1 != 0  (stops at 1)
            ("BNEZ", "loop"),
            "HALT",
        ]
        bus, mem, cpu = build_system(ctx, top, program)
        ctx.run(us(10_000))
        assert mem.peek_word(0x100) == 1
        assert mem.peek_word(0x104) == 3

    def test_negative_accumulator_wraps_signed(self, ctx, top):
        program = [
            ("LDI", 0),
            ("ADDI", -7),
            ("STORE", 0x100),
            "HALT",
        ]
        bus, mem, cpu = build_system(ctx, top, program)
        ctx.run(us(1000))
        # stored as two's-complement 32-bit
        assert mem.peek_word(0x100) == (1 << 32) - 7
        assert cpu.acc == -7

    def test_icache_reduces_bus_fetches(self, ctx, top):
        data = {0x1000: list(range(8))}
        bus, mem, cpu = build_system(ctx, top, SUM_PROGRAM, data)
        ctx.run(us(10_000))
        assert cpu.icache_hit_rate > 0.5
        assert mem.peek_word(0x2000) == sum(range(8))
        # only the misses reach the bus
        misses = cpu.fetches - cpu.icache_hits
        assert bus.stats.transactions == misses + cpu.loads + cpu.stores

    def test_bus_fault_recorded(self, ctx, top):
        program = [("LOAD", 0xFFFF0), "HALT"]  # beyond the memory
        bus, mem, cpu = build_system(ctx, top, program)
        with pytest.raises(SimulationError, match="fault"):
            ctx.run(us(1000))
        assert cpu.fault is not None
        assert cpu.halted

    def test_runaway_guard(self, ctx, top, monkeypatch):
        program = ["loop:", ("JMP", "loop")]
        bus, mem, cpu = build_system(ctx, top, program)
        monkeypatch.setattr(cpu_core, "MAX_INSTRUCTIONS", 500)
        with pytest.raises(SimulationError, match="runaway"):
            ctx.run(us(100_000))

    def test_wait_halted_helper(self, ctx, top):
        bus, mem, cpu = build_system(ctx, top, ["NOP", "NOP", "HALT"])
        seen = []

        def watcher():
            while not cpu.halted:
                yield cpu.halted_event
            seen.append(str(ctx.now))

        ctx.register_thread(watcher, "w")
        ctx.run(us(1000))
        assert seen and cpu.instructions_retired == 3

    def test_requires_socket(self, ctx, top):
        with pytest.raises(SimulationError):
            SimpleCpu("cpu", top)


class Window:
    """A bus socket seen through an address offset."""

    def __init__(self, socket, offset):
        self.socket = socket
        self.offset = offset

    def transport(self, request):
        return (yield from self.socket.transport(
            request.rebased(request.addr + self.offset)))


class TestCpuOnBus:
    def test_two_cpus_share_a_bus(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("mem", top, size=1 << 16, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, 0, 1 << 16)
        # cpu1 sees the bus through a window at 0x800, so both cores
        # start at their own address 0
        progs = {
            0x0: assemble([("LDI", 11), ("STORE", 0x3000), "HALT"]),
            0x800: assemble([("LDI", 22), ("STORE", 0x3004 - 0x800),
                             "HALT"]),
        }
        for base, words in progs.items():
            mem.load_words(base, words)
        cpu0 = SimpleCpu("cpu0", top, socket=bus.master_socket("c0"))
        cpu1 = SimpleCpu("cpu1", top,
                         socket=Window(bus.master_socket("c1"), 0x800))
        ctx.run(us(1000))
        assert cpu0.halted and cpu1.halted
        assert mem.peek_word(0x3000) == 11
        assert mem.peek_word(0x3004) == 22
