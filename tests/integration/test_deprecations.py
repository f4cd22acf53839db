"""The 2.0.0 deprecation runway: one registry, every warning names it.

Every public deprecation must be registered in :mod:`repro._deprecation`
with a concrete removal release, and the deprecated surfaces must emit
the registry's message -- so nothing can be deprecated "informally" and
then break users without ever telling them when.
"""

from __future__ import annotations

import re
import subprocess
import sys
import warnings

import pytest

from repro._deprecation import (
    Deprecation,
    deprecation_message,
    get_deprecation,
    public_deprecations,
    warn_deprecated,
)

RELEASE = re.compile(r"^\d+\.\d+\.\d+$")


class TestRegistry:
    def test_every_public_deprecation_names_its_removal_release(self):
        runway = public_deprecations()
        assert runway, "the registry should list the active deprecations"
        for record in runway:
            assert RELEASE.match(record.removal_release), (
                f"{record.name} must pin an X.Y.Z removal release, got "
                f"{record.removal_release!r}"
            )
            assert record.replacement, f"{record.name} must name a replacement"
            assert record.removal_release in record.message()

    def test_the_known_runway_entries_exist(self):
        names = {record.name for record in public_deprecations()}
        assert "repro.geo.oahu" in names
        assert "compound-threats analyze" in names
        assert "repro.core.batch.attack_batch_fallback" in names
        assert "EnsembleGenerator.generate(transport=...)" in names

    def test_message_renders_subject_replacement_and_release(self):
        record = Deprecation("old.thing", "new.thing", "9.0.0")
        message = record.message("attr")
        assert message.startswith("old.thing.attr is deprecated")
        assert "9.0.0" in message
        assert "new.thing" in message

    def test_warn_deprecated_emits_the_registry_message(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_deprecated("repro.geo.oahu", detail="oahu_case_study")
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert str(caught[0].message) == deprecation_message(
            "repro.geo.oahu", "oahu_case_study"
        )


class TestDeprecatedSurfaces:
    def test_geo_oahu_attribute_access_warns_with_the_release(self):
        import repro.geo.oahu as oahu

        record = get_deprecation("repro.geo.oahu")
        with pytest.warns(DeprecationWarning, match=record.removal_release):
            oahu.oahu_case_study

    def test_attack_batch_fallback_warns_and_still_delegates(self, monkeypatch):
        from repro.core import batch as batch_mod

        record = get_deprecation("repro.core.batch.attack_batch_fallback")
        sentinel = (object(), object())
        monkeypatch.setattr(
            batch_mod, "_replay_attack_batch", lambda *args: sentinel
        )
        with pytest.warns(DeprecationWarning, match=record.removal_release):
            result = batch_mod.attack_batch_fallback(None, None, None)
        assert result is sentinel

    def test_generate_transport_warns_and_has_no_effect(self):
        import numpy as np

        from repro.errors import RuntimeControlError
        from repro.hazards.hurricane.standard import standard_oahu_generator

        generator = standard_oahu_generator()
        record = get_deprecation("EnsembleGenerator.generate(transport=...)")
        plain = generator.generate(count=6, seed=5)
        with pytest.warns(DeprecationWarning) as caught:
            legacy = generator.generate(count=6, seed=5, transport="pickle")
        assert str(caught[0].message) == record.message()
        assert record.removal_release in str(caught[0].message)
        assert np.array_equal(legacy.depth_view(), plain.depth_view())
        with pytest.raises(RuntimeControlError, match="transport"):
            generator.generate(count=6, seed=5, transport="carrier-pigeon")

    def test_analyze_alias_prints_the_registry_message(self):
        record = get_deprecation("compound-threats analyze")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "analyze",
                "--realizations",
                "10",
                "--config",
                "2",
                "--scenario",
                "hurricane",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "deprecated alias" in proc.stderr
        assert record.removal_release in proc.stderr
        assert "compound-threats run" in proc.stderr
