"""Unit tests for abstract packets."""

import pytest

from repro.netsim import Packet, PacketFormatError


def test_fields_round_trip():
    p = Packet(size_bits=424, fields={"VPI": 1, "VCI": 2})
    assert p["VPI"] == 1
    p["VCI"] = 99
    assert p["VCI"] == 99


def test_missing_field_raises_packet_format_error():
    p = Packet()
    with pytest.raises(PacketFormatError):
        p["nope"]


def test_contains_and_get():
    p = Packet(fields={"a": 1})
    assert "a" in p
    assert "b" not in p
    assert p.get("b", 7) == 7


def test_ids_are_unique():
    ids = {Packet().id for _ in range(100)}
    assert len(ids) == 100


def test_creation_time_recorded():
    p = Packet(creation_time=1.25)
    assert p.creation_time == 1.25
