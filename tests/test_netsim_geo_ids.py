"""Unit tests for repro.netsim.geo and repro.netsim.ids."""

import pytest

from repro.errors import SimulationError
from repro.netsim import (
    City,
    CityCatalog,
    Prefix,
    PrefixAllocator,
    AsnAllocator,
    default_catalog,
    haversine_km,
    int_to_ip,
    ip_to_int,
    propagation_delay_ms,
)


class TestGeo:
    def test_haversine_jnb_cpt(self):
        cat = default_catalog()
        d = haversine_km(cat.get("Johannesburg"), cat.get("Cape Town"))
        assert 1200 < d < 1350  # real distance ~1270 km

    def test_haversine_zero_for_same_city(self):
        cat = default_catalog()
        jnb = cat.get("Johannesburg")
        assert haversine_km(jnb, jnb) == 0.0

    def test_propagation_delay_scale(self):
        cat = default_catalog()
        # JNB <-> London one-way: ~9000 km * 1.6 / 200 km/ms = ~72 ms.
        delay = propagation_delay_ms(cat.get("Johannesburg"), cat.get("London"))
        assert 55 < delay < 90

    def test_inflation_must_be_physical(self):
        cat = default_catalog()
        with pytest.raises(SimulationError):
            propagation_delay_ms(
                cat.get("Johannesburg"), cat.get("London"), inflation=0.5
            )

    def test_bad_latitude(self):
        with pytest.raises(SimulationError):
            City("nowhere", "XX", 91.0, 0.0)

    def test_catalog_lookup_and_membership(self):
        cat = default_catalog()
        assert "Polokwane" in cat
        assert cat.get("Polokwane").country == "ZA"
        with pytest.raises(SimulationError):
            cat.get("Atlantis")

    def test_catalog_duplicates_rejected(self):
        cat = CityCatalog([City("a", "XX", 0, 0)])
        with pytest.raises(SimulationError):
            cat.add(City("a", "YY", 1, 1))

    def test_in_country(self):
        cat = default_catalog()
        za = cat.in_country("ZA")
        assert len(za) >= 10
        assert all(c.country == "ZA" for c in za)

    def test_table1_cities_present(self):
        cat = default_catalog()
        for name in (
            "East London",
            "Johannesburg",
            "Cape Town",
            "Edenvale",
            "Durban",
            "Polokwane",
            "eMuziwezinto",
        ):
            assert name in cat


class TestIpAddresses:
    def test_round_trip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "196.60.8.1"):
            assert int_to_ip(ip_to_int(text)) == text

    def test_malformed(self):
        for bad in ("1.2.3", "a.b.c.d", "1.2.3.4.5", "300.0.0.1", "1.2.3.²", "*"):
            with pytest.raises(SimulationError):
                ip_to_int(bad)

    def test_int_range(self):
        with pytest.raises(SimulationError):
            int_to_ip(-1)


class TestPrefix:
    def test_parse_and_str(self):
        p = Prefix.parse("196.60.8.0/24")
        assert str(p) == "196.60.8.0/24"
        assert p.num_addresses == 256

    def test_contains(self):
        p = Prefix.parse("196.60.8.0/24")
        assert p.contains("196.60.8.1")
        assert p.contains("196.60.8.255")
        assert not p.contains("196.60.9.0")

    def test_host_bits_rejected(self):
        with pytest.raises(SimulationError):
            Prefix.parse("196.60.8.1/24")

    def test_address_offsets(self):
        p = Prefix.parse("10.0.0.0/30")
        assert p.address(1) == "10.0.0.1"
        with pytest.raises(SimulationError):
            p.address(4)

    def test_malformed(self):
        with pytest.raises(SimulationError):
            Prefix.parse("10.0.0.0")


class TestAllocators:
    def test_prefixes_disjoint(self):
        alloc = PrefixAllocator("10.0.0.0/8")
        a = alloc.allocate()
        b = alloc.allocate()
        assert not a.contains(b.address(0))
        assert a.length == 24

    def test_exhaustion(self):
        alloc = PrefixAllocator("10.0.0.0/23")
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(SimulationError):
            alloc.allocate()

    def test_supernet_too_small(self):
        with pytest.raises(SimulationError):
            PrefixAllocator("10.0.0.0/25")

    def test_asn_sequence(self):
        alloc = AsnAllocator(start=100)
        assert alloc.allocate() == 100
        assert alloc.allocate() == 101

    def test_asn_positive(self):
        with pytest.raises(SimulationError):
            AsnAllocator(start=0)
