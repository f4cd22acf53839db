"""The region catalog: Oahu as a first-class entry, plus the geo shim."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.hazards.base import Hazard
from repro.scenarios import get_region


class TestOahuRegion:
    def test_registered_accessors_match_the_builders(self, oahu_catalog):
        region = get_region("oahu")
        assert region.name == "oahu"
        assert region.catalog().names == oahu_catalog.names
        assert region.coastal() is not None
        assert region.terrain() is not None
        assert region.grid() is not None

    def test_builds_are_memoized(self):
        region = get_region("oahu")
        assert region.catalog() is region.catalog()
        assert region.hazard("flood") is region.hazard("flood")

    def test_all_three_hazard_families(self):
        region = get_region("oahu")
        assert region.available_hazards() == ["earthquake", "flood", "hurricane"]
        for family in region.available_hazards():
            assert isinstance(region.hazard(family), Hazard)

    def test_hurricane_override_is_the_shared_standard_generator(self):
        from repro.hazards.hurricane.standard import shared_standard_generator

        assert get_region("oahu").hazard("hurricane") is shared_standard_generator()

    def test_unknown_hazard_lists_available(self):
        with pytest.raises(ConfigurationError) as err:
            get_region("oahu").hazard_spec("tsunami")
        assert "tsunami" in str(err.value)
        assert "earthquake" in str(err.value)

    def test_geo_key_is_stable(self):
        assert get_region("oahu").geo_key() == get_region("oahu").geo_key()


class TestHazardProtocol:
    def test_generators_satisfy_the_protocol(self, oahu_catalog):
        from repro.hazards.earthquake import EarthquakeGenerator, standard_oahu_fault
        from repro.hazards.flood import FloodGenerator, standard_oahu_flood
        from repro.hazards.hurricane.standard import standard_oahu_generator

        generators = [
            standard_oahu_generator(),
            EarthquakeGenerator(oahu_catalog, standard_oahu_fault()),
            FloodGenerator(oahu_catalog, standard_oahu_flood()),
        ]
        for generator in generators:
            assert isinstance(generator, Hazard)
            assert generator.deterministic is True
            key = generator.cache_key(count=10, seed=1)
            assert key == generator.cache_key(count=10, seed=1)
            assert key != generator.cache_key(count=11, seed=1)

    def test_cache_keys_distinguish_hazards(self, oahu_catalog):
        from repro.hazards.earthquake import EarthquakeGenerator, standard_oahu_fault
        from repro.hazards.flood import FloodGenerator, standard_oahu_flood
        from repro.hazards.hurricane.standard import standard_oahu_generator

        keys = {
            g.cache_key(count=10, seed=1)
            for g in (
                standard_oahu_generator(),
                EarthquakeGenerator(oahu_catalog, standard_oahu_fault()),
                FloodGenerator(oahu_catalog, standard_oahu_flood()),
            )
        }
        assert len(keys) == 3


class TestGeoOahuDeprecationShim:
    """The ``repro.geo.oahu`` shim was removed in 2.0.0; its names live
    on in :mod:`repro.geo` and the scenario catalog."""

    def test_every_forwarded_name_resolves(self):
        """Every name the shim forwarded imports from :mod:`repro.geo`."""
        import repro.geo as geo
        from repro.geo import _oahu_data

        for name in (
            "HONOLULU_CC",
            "WAIAU_CC",
            "KAHE_CC",
            "DRFORTRESS",
            "ALOHANAP",
            "OahuCaseStudy",
            "build_oahu_region",
            "build_oahu_terrain",
            "build_oahu_catalog",
            "oahu_case_study",
        ):
            assert name in geo.__all__
            assert getattr(geo, name) is getattr(_oahu_data, name)

    def test_package_surface_stays_warning_free(self):
        """`from repro.geo import ...` imports warning-free (chaos CI
        runs with -W error)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.geo import HONOLULU_CC, build_oahu_catalog  # noqa: F401
