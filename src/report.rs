//! The `trisolve report` harness: the performance observatory.
//!
//! Runs the benchmark sweep traced, aggregates per-kernel-family latency
//! histograms and roofline attribution across workloads, and renders
//! them per device — as a human table, a JSON document, or a Prometheus
//! text scrape. With a committed `BENCH_<n>.json` baseline it instead
//! runs the bench-regression gate ([`trisolve_bench::regress`]).
//!
//! Every kernel launch carries the simulator's two pre-`max` timing
//! components (`bw_floor_s`, `stall_exec_s`) in its trace span, so the
//! observatory re-derives the limiter verdict *independently* of the
//! simulator's own `limited_by` and cross-checks the two: a device
//! report only counts as healthy when they agree on 100% of launches.

use std::collections::BTreeMap;

use trisolve_bench::regress::{self, RegressReport};
use trisolve_bench::snapshot::{self, FamilyObs};
use trisolve_gpu_sim::DeviceSpec;
use trisolve_obs::roofline::{DevicePeaks, LimiterVerdict};
use trisolve_obs::MetricsRegistry;

/// The observatory rollup for one device: family stats and latency
/// series merged across every workload in the sweep.
#[derive(Debug)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Peak-bandwidth envelope used for `%peak` columns.
    pub peaks: DevicePeaks,
    /// Per-family rollups, merged across workloads.
    pub families: Vec<FamilyObs>,
    /// All latency series (kernel families, stages, solve, tuner evals).
    pub registry: MetricsRegistry,
    /// Workloads measured.
    pub workloads: usize,
}

impl DeviceReport {
    /// `(agreed, total)` roofline-carrying launches across families.
    pub fn agreement(&self) -> (u64, u64) {
        let agreed = self.families.iter().map(|f| f.agreed).sum();
        let total = self.families.iter().map(|f| f.roofline_launches).sum();
        (agreed, total)
    }

    /// True when the re-derived limiter verdict matched the simulator's
    /// on every roofline-carrying launch.
    pub fn agreement_ok(&self) -> bool {
        let (agreed, total) = self.agreement();
        agreed == total
    }

    /// The per-device observatory table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "device: {} ({} workloads)\n",
            self.device, self.workloads
        ));
        out.push_str(&format!(
            "  {:<18} {:>8} {:>10} {:>10} {:>8} {:>6} {:>7}  {:<9} {}\n",
            "kernel family",
            "launches",
            "p50 ms",
            "p99 ms",
            "GB/s",
            "%peak",
            "ops/B",
            "limiter",
            "sim-agree"
        ));
        for f in &self.families {
            let p = f.hist_ms.percentiles();
            out.push_str(&format!(
                "  {:<18} {:>8} {:>10.4} {:>10.4} {:>8.1} {:>5.1}% {:>7.3}  {:<9} {}\n",
                f.family,
                f.launches,
                p.p50,
                p.p99,
                f.achieved_gbps(),
                self.peaks.fraction_of_peak(f.achieved_gbps()) * 100.0,
                f.arithmetic_intensity(),
                f.dominant_verdict().map_or("-", LimiterVerdict::as_str),
                if f.agreement_ok() { "yes" } else { "NO" },
            ));
        }
        out.push_str(&format!(
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "latency series", "count", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms"
        ));
        for (name, h) in self.registry.histograms() {
            let p = h.percentiles();
            out.push_str(&format!(
                "  {:<24} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                name,
                h.count(),
                p.p50,
                p.p90,
                p.p99,
                p.p999
            ));
        }
        let (agreed, total) = self.agreement();
        out.push_str(&format!(
            "  roofline agreement: {agreed}/{total} launches\n"
        ));
        out
    }
}

/// Run the observatory sweep: measure every workload of the (optionally
/// quick) benchmark grid traced on each device, merging family rollups
/// and latency registries across workloads.
pub fn run(devices: &[DeviceSpec], quick: bool) -> Vec<DeviceReport> {
    let shrink = if quick { 4 } else { 1 };
    let grid = trisolve_bench::experiments::paper_grid(shrink);
    let budget = if quick { 2 } else { grid.len() };
    devices
        .iter()
        .map(|dev| {
            let mut families: BTreeMap<String, FamilyObs> = BTreeMap::new();
            let registry = MetricsRegistry::new();
            let mut workloads = 0;
            for &shape in grid.iter().take(budget) {
                let rec = snapshot::measure_workload(dev, shape);
                for f in rec.families {
                    families
                        .entry(f.family.clone())
                        .and_modify(|acc| acc.merge(&f))
                        .or_insert(f);
                }
                registry.merge(&rec.registry);
                workloads += 1;
            }
            DeviceReport {
                device: dev.queryable().name.clone(),
                peaks: snapshot::device_peaks(dev),
                families: families.into_values().collect(),
                registry,
                workloads,
            }
        })
        .collect()
}

/// Render the sweep as one JSON document.
pub fn to_json(reports: &[DeviceReport]) -> serde_json::Value {
    let devices: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            let families: Vec<(String, serde_json::Value)> = r
                .families
                .iter()
                .map(|f| {
                    let p = f.hist_ms.percentiles();
                    (
                        f.family.clone(),
                        serde_json::json!({
                            "launches": f.launches,
                            "p50_ms": p.p50,
                            "p90_ms": p.p90,
                            "p99_ms": p.p99,
                            "p999_ms": p.p999,
                            "achieved_gbps": f.achieved_gbps(),
                            "peak_fraction": r.peaks.fraction_of_peak(f.achieved_gbps()),
                            "arithmetic_intensity": f.arithmetic_intensity(),
                            "verdict": f.dominant_verdict().map(LimiterVerdict::as_str),
                            "agreement": f.agreement_ok(),
                        }),
                    )
                })
                .collect();
            let (agreed, total) = r.agreement();
            serde_json::json!({
                "device": r.device,
                "workloads": r.workloads,
                "families": serde_json::Value::Object(families),
                "metrics": serde_json::from_str::<serde_json::Value>(&r.registry.to_json())
                    .unwrap_or(serde_json::Value::Null),
                "roofline_agreed": agreed,
                "roofline_total": total,
            })
        })
        .collect();
    serde_json::json!({ "report": "trisolve-observatory", "devices": devices })
}

/// Render the sweep as one Prometheus text scrape (device registries
/// merged; exact histogram merge keeps the quantiles faithful).
pub fn to_prometheus(reports: &[DeviceReport]) -> String {
    let merged = MetricsRegistry::new();
    for r in reports {
        merged.merge(&r.registry);
    }
    merged.to_prometheus()
}

/// Run the bench-regression gate against a parsed `BENCH_<n>.json`
/// baseline.
pub fn regress_against(baseline: &serde_json::Value, quick: bool) -> Result<RegressReport, String> {
    regress::compare_against(baseline, quick)
}
