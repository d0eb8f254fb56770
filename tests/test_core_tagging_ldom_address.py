"""Unit tests for tag registers, LDoms and address mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.core.address import AddressMapping, AddressTranslationError
from repro.core.ldom import LDom, LDomLifecycleError, LDomState
from repro.core.tagging import TagRegister
from repro.sim.packet import MemoryPacket


class TestTagRegister:
    def test_defaults_to_dsid_zero(self):
        assert TagRegister("core0").ds_id == 0

    def test_write_and_tag(self):
        reg = TagRegister("core0")
        reg.write(3)
        pkt = reg.tag(MemoryPacket(addr=0x100))
        assert pkt.ds_id == 3

    def test_range_checked(self):
        reg = TagRegister("core0")
        with pytest.raises(ValueError):
            reg.write(0x1_0000)
        with pytest.raises(ValueError):
            TagRegister("x", ds_id=-1)

    def test_on_change_callback(self):
        changes = []
        reg = TagRegister("core0", on_change=lambda old, new: changes.append((old, new)))
        reg.write(2)
        reg.write(2)  # no-op, no callback
        reg.write(5)
        assert changes == [(0, 2), (2, 5)]


class TestAddressMapping:
    def test_translate_basic(self):
        mapping = AddressMapping(base=0x1000, size=0x1000)
        assert mapping.translate(0) == 0x1000
        assert mapping.translate(0xFFF) == 0x1FFF

    def test_translate_out_of_bounds(self):
        mapping = AddressMapping(base=0x1000, size=0x1000)
        with pytest.raises(AddressTranslationError):
            mapping.translate(0x1000)
        with pytest.raises(AddressTranslationError):
            mapping.translate(-1)

    def test_reverse(self):
        mapping = AddressMapping(base=0x1000, size=0x1000)
        assert mapping.reverse(0x1800) == 0x800
        with pytest.raises(AddressTranslationError):
            mapping.reverse(0x2000)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AddressMapping(base=-1, size=10)
        with pytest.raises(ValueError):
            AddressMapping(base=0, size=0)

    def test_overlap_detection(self):
        a = AddressMapping(0, 100)
        b = AddressMapping(100, 100)
        c = AddressMapping(50, 100)
        assert not a.overlaps(b)
        assert a.overlaps(c)
        assert c.overlaps(b)

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=2**30))
    def test_property_translate_reverse_roundtrip(self, base, size):
        mapping = AddressMapping(base, size)
        for ldom_addr in (0, size // 2, size - 1):
            assert mapping.reverse(mapping.translate(ldom_addr)) == ldom_addr

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=1, max_value=2**20),
        st.integers(min_value=0, max_value=2**21),
    )
    def test_property_translation_stays_in_window(self, base, size, addr):
        mapping = AddressMapping(base, size)
        if addr < size:
            dram = mapping.translate(addr)
            assert mapping.base <= dram < mapping.limit
        else:
            with pytest.raises(AddressTranslationError):
                mapping.translate(addr)


def make_ldom(**kwargs):
    defaults = dict(
        ds_id=1,
        name="ldom1",
        core_ids=(0,),
        memory=AddressMapping(0, 1 << 20),
    )
    defaults.update(kwargs)
    return LDom(**defaults)


class TestLDom:
    def test_initial_state(self):
        assert make_ldom().state is LDomState.CREATED

    def test_launch_then_destroy(self):
        ldom = make_ldom()
        ldom.launch()
        assert ldom.state is LDomState.RUNNING
        with pytest.raises(LDomLifecycleError):
            ldom.launch()
        ldom.destroy()
        assert ldom.state is LDomState.DESTROYED

    def test_destroy_is_terminal(self):
        ldom = make_ldom()
        ldom.destroy()
        with pytest.raises(LDomLifecycleError):
            ldom.launch()

    def test_needs_cores(self):
        with pytest.raises(ValueError):
            make_ldom(core_ids=())

    def test_negative_dsid_rejected(self):
        with pytest.raises(ValueError):
            make_ldom(ds_id=-1)
