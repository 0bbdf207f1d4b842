"""Tests for the server model and the capped allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.resources import ResourceVector
from repro.platform_.server import CapacityError, GPUDevice, Server


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class TestServer:
    def test_default_has_two_gpus(self):
        assert Server("s").n_gpus == 2

    def test_place_and_available(self):
        s = Server("s", gpus=[GPUDevice()])
        s.place("a", 0, rv(cpu=30, gpu=40))
        avail = s.available(0)
        assert avail.cpu == 70 and avail.gpu == 60

    def test_cpu_shared_across_gpus(self):
        s = Server("s")
        s.place("a", 0, rv(cpu=60))
        assert s.available(1).cpu == 40  # host CPU is shared

    def test_gpu_is_per_device(self):
        s = Server("s")
        s.place("a", 0, rv(gpu=80))
        assert s.available(1).gpu == 100

    def test_place_rejects_overflow(self):
        s = Server("s", gpus=[GPUDevice()])
        s.place("a", 0, rv(gpu=70))
        with pytest.raises(CapacityError):
            s.place("b", 0, rv(gpu=40))

    def test_duplicate_session(self):
        s = Server("s")
        s.place("a", 0, rv(cpu=1))
        with pytest.raises(ValueError):
            s.place("a", 1, rv(cpu=1))

    def test_negative_allocation_rejected(self):
        s = Server("s")
        with pytest.raises(ValueError):
            s.place("a", 0, ResourceVector.from_array([-1, 0, 0, 0]))

    def test_set_allocation_checks_capacity(self):
        s = Server("s", gpus=[GPUDevice()])
        s.place("a", 0, rv(gpu=50))
        s.place("b", 0, rv(gpu=40))
        with pytest.raises(CapacityError):
            s.set_allocation("a", rv(gpu=70))
        # failed retune must not corrupt state
        assert s.placements["a"].allocation.gpu == 50

    def test_remove_frees(self):
        s = Server("s", gpus=[GPUDevice()])
        s.place("a", 0, rv(gpu=90))
        s.remove("a")
        assert s.available(0).gpu == 100

    def test_remove_unknown(self):
        with pytest.raises(KeyError):
            Server("s").remove("ghost")

    def test_bad_gpu_index(self):
        with pytest.raises(IndexError):
            Server("s").available(5)

    def test_headroom_fraction(self):
        s = Server("s", gpus=[GPUDevice()])
        s.place("a", 0, rv(cpu=50))
        assert s.headroom_fraction() == pytest.approx(0.5)

    def test_needs_a_gpu(self):
        with pytest.raises(ValueError):
            Server("s", gpus=[])


class TestAllocator:
    def make(self, cap=0.95):
        server = Server("s", gpus=[GPUDevice()])
        return Allocator(server, utilization_cap=cap)

    def test_cap_enforced_on_place(self):
        a = self.make()
        a.place("x", rv(gpu=90))
        with pytest.raises(AllocationError):
            a.place("y", rv(gpu=10))  # 100 > 95 budget

    def test_cap_enforced_on_retune(self):
        a = self.make()
        a.place("x", rv(gpu=50))
        a.place("y", rv(gpu=40))
        with pytest.raises(AllocationError):
            a.retune("x", rv(gpu=60))

    def test_retune_clamped_never_fails(self):
        a = self.make()
        a.place("x", rv(gpu=50))
        a.place("y", rv(gpu=40))
        granted = a.retune_clamped("x", rv(gpu=80))
        assert granted.gpu == pytest.approx(55)  # 95 - 40

    def test_release_frees_budget(self):
        a = self.make()
        a.place("x", rv(gpu=90))
        a.release("x")
        a.place("y", rv(gpu=90))

    def test_events_audit_trail(self):
        a = self.make()
        a.place("x", rv(gpu=10), time=1.0)
        a.retune("x", rv(gpu=20), time=2.0)
        a.release("x", time=3.0)
        actions = [e.action for e in a.events]
        assert actions == ["place", "retune", "release"]

    def test_multi_gpu_spreads(self):
        server = Server("s")
        a = Allocator(server)
        a.place("x", rv(gpu=80))
        a.place("y", rv(gpu=80))
        gpus = {p.gpu_index for p in server.placements.values()}
        assert gpus == {0, 1}

    def test_unknown_session(self):
        a = self.make()
        with pytest.raises(KeyError):
            a.retune("ghost", rv())
        with pytest.raises(KeyError):
            a.allocation_of("ghost")

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            Allocator(Server("s"), utilization_cap=1.0)


@settings(max_examples=40, deadline=None)
@given(
    allocs=st.lists(
        st.tuples(st.floats(0, 60), st.floats(0, 60)), min_size=1, max_size=6
    ),
    retunes=st.lists(st.floats(0, 120), min_size=0, max_size=6),
)
def test_conservation_property(allocs, retunes):
    """Property: whatever sequence of places/clamped retunes happens, the
    summed allocations never exceed the cap on any dimension."""
    server = Server("s", gpus=[GPUDevice()])
    a = Allocator(server, utilization_cap=0.95)
    placed = []
    for i, (cpu, gpu) in enumerate(allocs):
        try:
            a.place(f"s{i}", rv(cpu=cpu, gpu=gpu))
            placed.append(f"s{i}")
        except AllocationError:
            pass
    for j, target in enumerate(retunes):
        if placed:
            a.retune_clamped(placed[j % len(placed)], rv(cpu=target, gpu=target))
    host = server.allocated_host()
    dev = server.allocated_gpu(0)
    assert host[0] <= 95 + 1e-6
    assert dev[0] <= 95 + 1e-6
    assert dev[1] <= 95 + 1e-6
