"""Property-based invariants of the DRAM substrate."""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.dram.control_plane import MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry, decompose_address
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

REQUEST = st.tuples(
    st.integers(min_value=1, max_value=2),        # ds_id (1 low, 2 high)
    st.integers(min_value=0, max_value=1 << 22),  # address
    st.booleans(),                                # is_write
    st.integers(min_value=0, max_value=2000),     # arrival gap (cycles)
)


def run_requests(requests, with_control=True):
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    control = None
    if with_control:
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, priority=0)
        control.allocate_ldom(2, priority=1)
    controller = MemoryController(engine, clock, control=control)
    done = []
    time_ps = 0
    for ds_id, addr, is_write, gap in requests:
        time_ps += gap * DRAM_CLOCK_PS
        pkt = MemoryPacket(
            ds_id=ds_id, addr=addr,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        engine.post_at(
            time_ps, lambda p=pkt: controller.handle_request(p, done.append)
        )
    engine.run()
    return controller, done


@settings(max_examples=30, deadline=None)
@given(st.lists(REQUEST, min_size=1, max_size=80))
def test_every_request_completes(requests):
    controller, done = run_requests(requests)
    assert len(done) == len(requests)
    assert controller.served_requests == len(requests)


@settings(max_examples=30, deadline=None)
@given(st.lists(REQUEST, min_size=1, max_size=80))
def test_queue_delays_are_non_negative_and_recorded(requests):
    controller, _ = run_requests(requests)
    recorded = sum(r.count for r in controller.queue_delay)
    assert recorded == len(requests)
    for recorder in controller.queue_delay:
        assert all(sample >= 0 for sample in recorder.samples)


@settings(max_examples=30, deadline=None)
@given(st.lists(REQUEST, min_size=1, max_size=80))
def test_bandwidth_accounting_conserved(requests):
    controller, _ = run_requests(requests)
    assert controller.served_bytes == 64 * len(requests)


BURST = st.tuples(
    st.integers(min_value=1, max_value=2),   # ds_id (1 low, 2 high)
    st.integers(min_value=0, max_value=15),  # row, over every bank
    st.booleans(),                           # is_write
    st.integers(min_value=0, max_value=10),  # arrival gap (cycles)
)


@settings(max_examples=20, deadline=None)
@given(st.lists(BURST, min_size=2, max_size=60))
def test_fifo_order_within_priority_class(requests):
    """Within one priority class, requests dispatch in arrival order
    (strict FIFO queues; the control plane only reorders *across*
    classes), whichever banks they map to. Arrivals come faster than
    the banks drain, so both queues back up."""
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    control = MemoryControlPlane(engine)
    control.allocate_ldom(1, priority=0)
    control.allocate_ldom(2, priority=1)
    controller = MemoryController(engine, clock, control=control)
    waiting = {}  # packet id -> (ds_id, arrival order)
    dispatched = {1: [], 2: []}  # ds_id (one per class) -> arrival orders

    def hook(issue):
        def dispatch(*args):
            # As in test_arbiter_dispatches_in_pifo_order: the dispatched
            # request is the one arrived but no longer queued.
            queued = {entry[0].packet_id for queue in controller.queues for entry in queue}
            (packet_id,) = set(waiting) - queued
            ds_id, order = waiting.pop(packet_id)
            dispatched[ds_id].append(order)
            return issue(*args)
        return dispatch

    for bank in controller.banks:
        bank.issue = hook(bank.issue)

    def arrive(order, packet):
        waiting[packet.packet_id] = (packet.ds_id, order)
        controller.handle_request(packet, lambda _p: None)

    time_ps = 0
    row_bytes = controller.geometry.row_bytes
    for order, (ds_id, row, is_write, gap) in enumerate(requests):
        time_ps += gap * DRAM_CLOCK_PS
        packet = MemoryPacket(
            ds_id=ds_id, addr=row * row_bytes,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        engine.post_at(time_ps, partial(arrive, order, packet))
    engine.run()
    assert not waiting
    for orders in dispatched.values():
        assert orders == sorted(orders)


ARRIVAL = st.tuples(
    st.integers(min_value=1, max_value=2),   # ds_id (1 low, 2 high)
    st.integers(min_value=0, max_value=40),  # arrival gap (cycles)
    st.integers(min_value=0, max_value=3),   # row
)


@settings(max_examples=50, deadline=None)
@given(st.lists(ARRIVAL, min_size=1, max_size=60))
def test_arbiter_dispatches_in_pifo_order(arrivals):
    """Strict priority is a PIFO with rank (-priority, arrival order), as
    in Programmable Packet Scheduling: on a single bank, every dispatch
    takes the lowest-rank request waiting at that moment."""
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    control = MemoryControlPlane(engine)
    control.allocate_ldom(1, priority=0)
    control.allocate_ldom(2, priority=1)
    geometry = DramGeometry(ranks=1, banks_per_rank=1)
    controller = MemoryController(
        engine, clock, geometry=geometry, control=control,
        hp_row_buffer=False,
    )
    waiting = {}  # packet id -> PIFO rank
    dispatched = []
    (bank,) = controller.banks
    issue = bank.issue

    def dispatch(*args):
        # The arbiter pops a request off its queue, then issues it to the
        # bank: the dispatched request is the one arrived but no longer
        # queued (a queue entry's packet is its first field).
        queued = {entry[0].packet_id for queue in controller.queues for entry in queue}
        (packet_id,) = set(waiting) - queued
        rank = waiting.pop(packet_id)
        assert all(rank < other for other in waiting.values())
        dispatched.append(rank)
        return issue(*args)

    bank.issue = dispatch

    def arrive(order, packet):
        rank = (-control.parameters.get_default(packet.ds_id, "priority", 0), order)
        waiting[packet.packet_id] = rank
        controller.handle_request(packet, lambda _p: None)

    time_ps = 0
    for order, (ds_id, gap, row) in enumerate(arrivals):
        time_ps += gap * DRAM_CLOCK_PS
        packet = MemoryPacket(ds_id=ds_id, addr=row * geometry.row_bytes)
        engine.post_at(time_ps, partial(arrive, order, packet))
    engine.run()
    assert not waiting
    assert len(dispatched) == len(arrivals)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 33))
def test_address_decomposition_total(addr):
    geometry = DramGeometry()
    bank, row, col = decompose_address(addr, geometry)
    assert 0 <= bank < geometry.total_banks
    assert 0 <= col < geometry.row_bytes
    assert row >= 0


@settings(max_examples=20, deadline=None)
@given(st.lists(REQUEST, min_size=1, max_size=60))
def test_stats_window_totals_match_service(requests):
    controller, _ = run_requests(requests)
    control = controller.control
    control.roll_window()
    total_bytes = sum(
        control.statistics.get(d, "bandwidth") for d in (1, 2)
    )
    assert total_bytes == 64 * len(requests)
    total_served = sum(
        control.statistics.get(d, "serv_cnt") for d in (1, 2)
    )
    assert total_served == len(requests)
