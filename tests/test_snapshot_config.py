"""Tests for snapshot configuration."""

import pytest

from repro.inventory.iris import (
    IRIS_SITE_MEASUREMENT_METHODS,
    IRIS_SNAPSHOT_MEASURED_NODES,
)
from repro.snapshot.config import (
    IRIS_SITE_COMPUTE_MODEL,
    IRIS_SITE_IPMI_COVERAGE,
    SiteSnapshotConfig,
    SnapshotConfig,
    build_iris_snapshot_config,
)


class TestSiteSnapshotConfig:
    def test_storage_split(self):
        config = SiteSnapshotConfig(site="X", node_count=100, storage_fraction=0.1)
        assert config.storage_node_count == 10
        assert config.compute_node_count == 90

    def test_validation(self):
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="", node_count=10)
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=0)
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=10, storage_fraction=1.0)
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=10, measurement_methods=())
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=10, target_node_power_w=0.0)
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=10, ipmi_node_coverage=1.5)
        with pytest.raises(ValueError):
            SiteSnapshotConfig(site="X", node_count=10, calibration_margin=0.3)


class TestSnapshotConfig:
    def test_site_lookup(self):
        config = build_iris_snapshot_config()
        assert config.site_config("QMUL").node_count == 118
        with pytest.raises(KeyError):
            config.site_config("missing")

    def test_duplicate_sites_rejected(self):
        site = SiteSnapshotConfig(site="X", node_count=10)
        with pytest.raises(ValueError):
            SnapshotConfig(sites=(site, site))

    def test_validation(self):
        site = SiteSnapshotConfig(site="X", node_count=10)
        with pytest.raises(ValueError):
            SnapshotConfig(sites=())
        with pytest.raises(ValueError):
            SnapshotConfig(sites=(site,), duration_hours=0.0)
        with pytest.raises(ValueError):
            SnapshotConfig(sites=(site,), default_pue=0.9)

    def test_duration_seconds(self):
        site = SiteSnapshotConfig(site="X", node_count=10)
        config = SnapshotConfig(sites=(site,), duration_hours=24.0)
        assert config.duration_s == pytest.approx(86400.0)


class TestDefaultIrisConfig:
    def test_matches_paper_node_counts(self):
        config = build_iris_snapshot_config()
        assert set(config.site_names) == set(IRIS_SNAPSHOT_MEASURED_NODES)
        for site in config.sites:
            assert site.node_count == IRIS_SNAPSHOT_MEASURED_NODES[site.site]
            assert site.measurement_methods == IRIS_SITE_MEASUREMENT_METHODS[site.site]
            assert site.compute_model == IRIS_SITE_COMPUTE_MODEL[site.site]
            assert site.ipmi_node_coverage == IRIS_SITE_IPMI_COVERAGE[site.site]
            assert site.target_node_power_w is not None

    def test_only_qmul_has_turbostat(self):
        config = build_iris_snapshot_config()
        for site in config.sites:
            if site.site == "QMUL":
                assert "turbostat" in site.measurement_methods
            else:
                assert "turbostat" not in site.measurement_methods

    def test_node_scale(self):
        config = build_iris_snapshot_config(node_scale=0.1)
        assert config.site_config("QMUL").node_count == 12
        assert config.site_config("CAM").node_count >= 2
        # Per-node calibration targets stay identical under scaling.
        full = build_iris_snapshot_config()
        assert (config.site_config("DUR").target_node_power_w
                == full.site_config("DUR").target_node_power_w)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            build_iris_snapshot_config(node_scale=0.0)
        with pytest.raises(ValueError):
            build_iris_snapshot_config(node_scale=2.0)
