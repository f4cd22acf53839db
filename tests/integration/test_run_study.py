"""The ``run_study()`` facade: bit-identical results plus telemetry.

The facade must be a pure repackaging: the matrix it returns is
bit-identical to driving ``standard_oahu_ensemble`` +
``CompoundThreatAnalysis`` by hand (including the seed goldens'
93/1000 green/red split), while the run manifest it assembles carries
populated per-stage spans and runtime/cache counters.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro import NULL_OBSERVER, StudyConfig, run_study
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import PAPER_SCENARIOS
from repro.errors import ConfigurationError
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.obs import (
    MANIFEST_REQUIRED_KEYS,
    Observability,
    ObservabilityWriteWarning,
    activate,
)
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU

FLOOD_COUNT = 93
N = 1000


@pytest.fixture(scope="module")
def golden_result(standard_ensemble):
    """One full facade run over the standard ensemble, telemetry on."""
    return run_study(StudyConfig(ensemble=standard_ensemble))


class TestStudyConfig:
    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            StudyConfig(100)  # positional use is an API error

    def test_frozen(self):
        config = StudyConfig()
        with pytest.raises(AttributeError):
            config.seed = 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(n_realizations=0)
        with pytest.raises(ConfigurationError):
            StudyConfig(jobs=0)
        with pytest.raises(ConfigurationError):
            StudyConfig(configurations=())
        with pytest.raises(ConfigurationError):
            StudyConfig(scenarios=())

    def test_names_resolve_to_library_objects(self):
        config = StudyConfig(
            configurations=("2", "6+6+6"),
            scenarios=("hurricane",),
            placement="kahe",
        )
        assert [a.name for a in config.resolve_configurations()] == ["2", "6+6+6"]
        assert [s.name for s in config.resolve_scenarios()] == ["hurricane"]
        assert "Kahe" in config.resolve_placement().label()

    def test_unknown_placement_name(self):
        with pytest.raises(ConfigurationError, match="placement"):
            StudyConfig(placement="mars").resolve_placement()

    def test_registry_typos_fail_at_construction(self):
        """Bad names raise immediately, not at run time, and list options."""
        with pytest.raises(ConfigurationError, match="2-2"):
            StudyConfig(configurations=("2", "2+2"))
        with pytest.raises(ConfigurationError, match="hurricane"):
            StudyConfig(scenarios=("hurricane+flooding",))
        with pytest.raises(ConfigurationError, match="waiau"):
            StudyConfig(placement="mars")

    def test_replace_returns_validated_copy(self):
        config = StudyConfig(n_realizations=50)
        other = config.replace(seed=7, placement="kahe")
        assert other.seed == 7 and "Kahe" in other.resolve_placement().label()
        assert config.seed != 7  # original untouched
        with pytest.raises(ConfigurationError):
            config.replace(configurations=("nope",))

    def test_cache_key_covers_only_hazard_inputs(self):
        config = StudyConfig(n_realizations=50)
        assert config.cache_key() == config.replace(placement="kahe").cache_key()
        assert config.cache_key() == config.replace(analysis_seed=9).cache_key()
        assert config.cache_key() != config.replace(seed=1).cache_key()
        assert config.cache_key() != config.replace(n_realizations=51).cache_key()

    def test_cache_key_of_prebuilt_ensemble_is_content_keyed(
        self, small_ensemble
    ):
        a = StudyConfig(ensemble=small_ensemble)
        b = StudyConfig(ensemble=small_ensemble, placement="kahe")
        assert a.cache_key() == b.cache_key()
        assert a.cache_key().startswith("prebuilt-")

    def test_chain_resolves_like_other_registry_names(self):
        config = StudyConfig(chain="grid-coupled")
        assert config.resolve_chain().name == "grid-coupled"
        assert StudyConfig().resolve_chain().name == "paper"
        with pytest.raises(ConfigurationError, match="grid-coupled"):
            StudyConfig(chain="grid-copled")

    def test_chain_changes_study_identity_but_not_the_ensemble_key(self):
        """Chain is study identity (hash) but not hazard input (cache key)."""
        from repro.api import study_config_hash

        base = StudyConfig(n_realizations=50)
        coupled = base.replace(chain="grid-coupled")
        assert base.cache_key() == coupled.cache_key()
        assert study_config_hash(base) != study_config_hash(coupled)
        # "paper" explicitly and the default are the same identity.
        assert study_config_hash(base) == study_config_hash(
            base.replace(chain="paper")
        )

    def test_study_identity_is_pinned_for_every_registered_chain(self):
        """Service result stores key on this hash: it must not drift.

        ``chain.spec()`` (stage names, types and ``deterministic``
        flags) is part of the hashed payload, so dropping or re-deriving
        a stage's ``deterministic`` flag would re-key every stored
        result.  These are the 1.7.0 values; a newly registered chain
        must be pinned here too.
        """
        from repro.api import study_config_hash
        from repro.core.chain import available_chains

        pinned = {
            "paper": "fd403105f556a4d70086ca18679d667b",
            "grid-coupled": "490627365ff49752d0f9c06c23f2abdb",
            "tail-risk": "ce1ce06a7ecea760f5222122b6106727",
            "earthquake": "692600e8d692ab7d1d56b08eade9b02d",
            "flood": "8f3dedcfcb2758a5c5b7822007c5cf20",
        }
        for chain in available_chains():
            assert study_config_hash(StudyConfig(chain=chain)) == pinned[chain], chain


class TestBitIdenticalToLegacyPath:
    def test_seed_goldens_reproduce(self, golden_result):
        """The facade hits the locked 93/1000 green/red split exactly."""
        hits = sum(
            1
            for r in golden_result.ensemble
            if r.depth_at("Honolulu Control Center") > 0.5
        )
        assert hits == FLOOD_COUNT
        profile = golden_result.matrix.get("hurricane", "2")
        assert profile.count(S.GREEN) == N - FLOOD_COUNT
        assert profile.count(S.RED) == FLOOD_COUNT

    def test_every_cell_matches_the_legacy_path(
        self, golden_result, standard_ensemble
    ):
        legacy = CompoundThreatAnalysis(standard_ensemble).run_matrix(
            PAPER_CONFIGURATIONS, PLACEMENT_WAIAU, PAPER_SCENARIOS
        )
        for scenario in PAPER_SCENARIOS:
            for arch in PAPER_CONFIGURATIONS:
                facade_profile = golden_result.matrix.get(scenario.name, arch.name)
                legacy_profile = legacy.get(scenario.name, arch.name)
                for state in S:
                    assert facade_profile.count(state) == legacy_profile.count(
                        state
                    ), (scenario.name, arch.name, state)

    def test_generated_ensemble_matches_fixture_bits(self, standard_ensemble):
        """run_study's own generation equals the pinned standard ensemble."""
        import numpy as np

        result = run_study(
            StudyConfig(
                configurations=("2",),
                scenarios=("hurricane",),
                n_realizations=200,
            )
        )
        expected = standard_ensemble.depth_matrix()[:200]
        assert np.array_equal(result.ensemble.depth_matrix(), expected)

    def test_observability_off_is_still_identical(self, standard_ensemble):
        observed = run_study(
            StudyConfig(
                ensemble=standard_ensemble,
                configurations=("6-6",),
                scenarios=("hurricane+isolation",),
            )
        )
        dark = run_study(
            StudyConfig(
                ensemble=standard_ensemble,
                configurations=("6-6",),
                scenarios=("hurricane+isolation",),
                observability=False,
            )
        )
        profile_a = observed.matrix.get("hurricane+isolation", "6-6")
        profile_b = dark.matrix.get("hurricane+isolation", "6-6")
        for state in S:
            assert profile_a.count(state) == profile_b.count(state)
        assert dark.observability is NULL_OBSERVER
        assert dark.manifest["stages"] == {}


class TestManifestTelemetry:
    def test_manifest_schema_and_population(self, golden_result):
        manifest = golden_result.manifest
        assert set(manifest) == MANIFEST_REQUIRED_KEYS
        assert manifest["n_realizations"] == N
        # Per-stage spans cover the whole pipeline.
        for stage in (
            "run_study",
            "analysis.run_matrix",
            "analysis.run",
            "pipeline.stage.fragility",
            "pipeline.stage.cyberattack",
            "pipeline.stage.classification",
        ):
            assert stage in manifest["stages"], stage
        counters = manifest["metrics"]["counters"]
        cells = len(PAPER_SCENARIOS) * len(PAPER_CONFIGURATIONS)
        assert counters["pipeline.realizations"] == cells * N
        # The paper study runs every cell on the fused batched executor.
        assert counters["pipeline.batched_runs"] == cells
        assert "batch.fallback" not in counters

    def test_manifest_counts_runtime_work_when_generating(self):
        result = run_study(
            StudyConfig(
                configurations=("2",),
                scenarios=("hurricane",),
                n_realizations=50,
                seed=11,
            )
        )
        counters = result.manifest["metrics"]["counters"]
        assert counters["runtime.realizations_completed"] == 50
        hist = result.manifest["metrics"]["histograms"]["runtime.realization_s"]
        assert hist["count"] == 50

    def test_realization_pass_splits_into_hazard_sub_layers(self):
        """Each hazard sub-layer is one aggregate leaf under the realization
        pass (summed over row blocks, never a span per realization)."""
        generator = standard_oahu_generator()
        obs = Observability()
        with activate(obs):
            generator.generate(count=150, seed=3)
        (generate,) = obs.tracer.roots
        (realization_pass,) = [
            c for c in generate.children if c.name == "ensemble.realization_pass"
        ]
        leaves = {c.name: c for c in realization_pass.children}
        assert set(leaves) == {"hazard.surge", "hazard.smoothing", "hazard.depth_map"}
        assert len(realization_pass.children) == 3
        for leaf in leaves.values():
            assert leaf.meta["aggregate"] and leaf.meta["realizations"] == 150
        assert sum(c.duration_s for c in leaves.values()) <= realization_pass.duration_s
        hist = obs.metrics.histogram("runtime.realization_s")
        assert hist.count == 150

    def test_prebuilt_ensemble_has_no_acquire_stage(self, small_ensemble):
        """A user-supplied ensemble skips the generation stage entirely --
        no zero-duration `ensemble.acquire` entry pads the manifest."""
        result = run_study(
            StudyConfig(
                ensemble=small_ensemble,
                configurations=("2",),
                scenarios=("hurricane",),
            )
        )
        assert "ensemble.acquire" not in result.manifest["stages"]
        assert "ensemble.generate" not in result.manifest["stages"]
        generated = run_study(
            StudyConfig(
                configurations=("2",), scenarios=("hurricane",), n_realizations=20
            )
        )
        assert "ensemble.acquire" in generated.manifest["stages"]

    def test_cache_counters_roundtrip(self, tmp_path):
        config = StudyConfig(
            configurations=("2",),
            scenarios=("hurricane",),
            n_realizations=30,
            seed=13,
            cache_dir=str(tmp_path),
        )
        cold = run_study(config)
        warm = run_study(config)
        cold_counters = cold.manifest["metrics"]["counters"]
        warm_counters = warm.manifest["metrics"]["counters"]
        assert cold_counters["cache.ensemble.miss"] == 1
        assert cold_counters["cache.ensemble.store"] == 1
        assert warm_counters["cache.ensemble.hit"] == 1
        assert "runtime.realizations_completed" not in warm_counters

    def test_manifest_written_to_disk(self, tmp_path, standard_ensemble):
        # CI points REPRO_CI_MANIFEST_DIR at a workspace directory and
        # uploads the manifest this test writes as a build artifact.
        out_dir = os.environ.get("REPRO_CI_MANIFEST_DIR")
        target = (
            (tmp_path if out_dir is None else __import__("pathlib").Path(out_dir))
            / "run_manifest.json"
        )
        result = run_study(
            StudyConfig(ensemble=standard_ensemble, manifest_out=target)
        )
        on_disk = json.loads(target.read_text())
        assert on_disk["config_hash"] == result.manifest["config_hash"]
        assert set(on_disk) == MANIFEST_REQUIRED_KEYS

    def test_failed_metrics_out_warns_and_preserves_results(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        with pytest.warns(ObservabilityWriteWarning):
            result = run_study(
                StudyConfig(
                    configurations=("2",),
                    scenarios=("hurricane",),
                    n_realizations=20,
                    seed=5,
                    metrics_out=blocker / "metrics.json",
                )
            )
        # The run itself is unharmed.
        assert result.matrix.get("hurricane", "2").total == 20

    def test_trace_and_metrics_out(self, tmp_path, standard_ensemble):
        result = run_study(
            StudyConfig(
                ensemble=standard_ensemble,
                configurations=("2",),
                scenarios=("hurricane",),
                metrics_out=tmp_path / "metrics.json",
                trace_out=tmp_path / "trace.json",
            )
        )
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["counters"]["pipeline.realizations"] == N
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["spans"][0]["name"] == "run_study"
        assert result.manifest["stages"]["run_study"] > 0

    def test_run_report_is_human_readable(self, golden_result):
        report = golden_result.run_report()
        assert "Run report" in report
        assert "pipeline.stage.fragility" in report
        assert golden_result.manifest["config_hash"] in report

    def test_no_warnings_on_clean_run(self, standard_ensemble):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_study(
                StudyConfig(
                    ensemble=standard_ensemble,
                    configurations=("2",),
                    scenarios=("hurricane",),
                )
            )


class TestChainThroughFacade:
    def test_manifest_records_the_default_chain(self, golden_result):
        chain = golden_result.manifest["chain"]
        assert chain["name"] == "paper"
        assert [s["name"] for s in chain["stages"]] == [
            "fragility", "cyberattack", "classification",
        ]
        assert all(s["deterministic"] for s in chain["stages"])

    def test_grid_coupled_chain_end_to_end(self, small_ensemble):
        result = run_study(
            StudyConfig(
                ensemble=small_ensemble,
                chain="grid-coupled",
                configurations=("2", "6+6+6"),
                scenarios=("hurricane", "hurricane+isolation"),
            )
        )
        assert result.manifest["chain"]["name"] == "grid-coupled"
        stages = result.manifest["stages"]
        for name in (
            "fragility", "interdependency", "cyberattack", "classification",
        ):
            assert f"pipeline.stage.{name}" in stages, name
        for scenario in ("hurricane", "hurricane+isolation"):
            for arch in ("2", "6+6+6"):
                profile = result.matrix.get(scenario, arch)
                assert profile.total == 100

    def test_grid_coupling_never_upgrades_the_paper_outcome(
        self, small_ensemble
    ):
        """Extra isolation can only hold or worsen each cell's profile."""
        base = run_study(
            StudyConfig(
                ensemble=small_ensemble,
                configurations=("2",),
                scenarios=("hurricane+isolation",),
            )
        ).matrix.get("hurricane+isolation", "2")
        coupled = run_study(
            StudyConfig(
                ensemble=small_ensemble,
                chain="grid-coupled",
                configurations=("2",),
                scenarios=("hurricane+isolation",),
            )
        ).matrix.get("hurricane+isolation", "2")
        assert coupled.count(S.GREEN) <= base.count(S.GREEN)
        assert coupled.count(S.RED) >= base.count(S.RED)
