"""Tests for measurement campaigns, calibration and reconciliation."""

import pytest

from repro.inventory.iris import PAPER_TABLE2_ENERGY_KWH, PAPER_TABLE2_TOTAL_KWH
from repro.power.calibration import fleet_utilization_for_target_power
from repro.power.campaign import MeasurementCampaign
from repro.power.instruments import FacilityMeter, IPMIMeter, PDUMeter, TurbostatMeter
from repro.power.node_power import NodePowerModel
from repro.power.reconciliation import (
    best_estimate_kwh,
    compare_methods,
    ratio_table,
    reconcile_to_reference,
)
from repro.power.traces import PowerBreakdownTrace
from repro.workload.utilization import UtilizationTrace


@pytest.fixture
def small_trace(compute_spec):
    model = NodePowerModel(compute_spec)
    util = UtilizationTrace.constant(0.0, 600.0, ["n0", "n1", "n2"], 144, 0.4)
    return PowerBreakdownTrace.from_utilization(util, [model] * 3)


@pytest.fixture
def campaign():
    instruments = {
        "turbostat": TurbostatMeter(),
        "ipmi": IPMIMeter(),
        "pdu": PDUMeter(),
        "facility": FacilityMeter(),
    }
    return MeasurementCampaign(instruments, seed=99)


class TestCalibration:
    """A one-model fleet is the single-node calibration."""

    def test_round_trip(self, compute_power_model):
        target = 400.0
        util = fleet_utilization_for_target_power([compute_power_model], target)
        assert float(compute_power_model.wall_power_w(util)) == pytest.approx(target, abs=0.05)

    def test_clamping(self, compute_power_model):
        low = fleet_utilization_for_target_power([compute_power_model], 10.0)
        high = fleet_utilization_for_target_power([compute_power_model], 10_000.0)
        assert low == 0.0
        assert high == 1.0
        assert float(compute_power_model.wall_power_w(low)) == pytest.approx(
            compute_power_model.idle_wall_power_w
        )
        assert float(compute_power_model.wall_power_w(high)) == pytest.approx(
            compute_power_model.max_wall_power_w
        )


class TestMeasurementCampaign:
    def test_measure_site_all_methods(self, campaign, small_trace):
        report = campaign.measure_site("TEST", small_trace, network_power_w=150.0)
        row = report.as_table_row()
        assert row["site"] == "TEST"
        assert row["nodes"] == 3
        assert all(row[m] is not None for m in ("turbostat", "ipmi", "pdu", "facility"))

    def test_measure_site_subset_of_methods(self, campaign, small_trace):
        report = campaign.measure_site("TEST", small_trace, methods=("facility", "ipmi"))
        energies = report.energy_by_method()
        assert energies["pdu"] is None
        assert energies["turbostat"] is None
        assert energies["ipmi"] is not None

    def test_best_estimate_prefers_widest_scope(self, campaign, small_trace):
        report = campaign.measure_site("TEST", small_trace, network_power_w=100.0)
        assert report.best_estimate_kwh == report.readings["facility"].energy_kwh

    def test_unknown_method_rejected(self, campaign, small_trace):
        with pytest.raises(ValueError):
            campaign.measure_site("TEST", small_trace, methods=("rapl",))

    def test_mismatched_registration_rejected(self):
        with pytest.raises(ValueError):
            MeasurementCampaign({"ipmi": TurbostatMeter()})

    def test_total_best_estimate(self, campaign, small_trace):
        reports = [
            campaign.measure_site("A", small_trace),
            campaign.measure_site("B", small_trace),
        ]
        total = MeasurementCampaign.total_best_estimate_kwh(reports)
        assert total == pytest.approx(sum(r.best_estimate_kwh for r in reports))


class TestReconciliation:
    def test_compare_methods_qmul(self):
        """The QMUL row of Table 2: Turbostat 5% below IPMI, IPMI 1.5% below PDU."""
        comparisons = compare_methods(PAPER_TABLE2_ENERGY_KWH["QMUL"])
        by_pair = {(c.narrow_method, c.wide_method): c for c in comparisons}
        turbostat_vs_ipmi = by_pair[("turbostat", "ipmi")]
        ipmi_vs_pdu = by_pair[("ipmi", "pdu")]
        assert turbostat_vs_ipmi.shortfall_fraction == pytest.approx(0.05, abs=0.01)
        assert ipmi_vs_pdu.shortfall_fraction == pytest.approx(0.015, abs=0.005)

    def test_best_estimate_reproduces_paper_total(self):
        total = sum(
            best_estimate_kwh(readings) for readings in PAPER_TABLE2_ENERGY_KWH.values()
        )
        assert total == pytest.approx(PAPER_TABLE2_TOTAL_KWH)

    def test_ratio_table_and_reconciliation(self):
        ratios = ratio_table(PAPER_TABLE2_ENERGY_KWH, reference_method="facility")
        assert 0.6 < ratios["ipmi"] <= 1.0
        adjusted = reconcile_to_reference(
            {"ipmi": 770.0}, ratios, reference_method="facility"
        )
        # Scaling up a narrow reading by the observed ratio increases it.
        assert adjusted["ipmi"] > 770.0

    def test_reconcile_missing_ratio_raises(self):
        with pytest.raises(KeyError):
            reconcile_to_reference({"turbostat": 100.0}, {}, reference_method="facility")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            compare_methods({"smartplug": 10.0})
        with pytest.raises(ValueError):
            best_estimate_kwh({})
