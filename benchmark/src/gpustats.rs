//! Simulated-clock accounting read from outside the simulator: the launch
//! profile (`Gpu::timeline`) a span of work appended.

use std::collections::BTreeMap;

use trisolve_gpu_sim::KernelStats;

/// What a run of launches cost on the simulated device.
#[derive(Debug, Clone, Default)]
pub struct LaunchDelta {
    pub launches: usize,
    /// Simulated ms per kernel family (label prefix before `[`).
    pub family_ms: BTreeMap<String, f64>,
    /// Simulated ms of every launch, overhead included.
    pub kernel_ms: f64,
    /// Computed global-memory payload bytes.
    pub payload_bytes: f64,
}

impl LaunchDelta {
    pub fn of(launches: &[KernelStats]) -> Self {
        let mut d = Self {
            launches: launches.len(),
            ..Self::default()
        };
        for s in launches {
            let family = s.label.split('[').next().unwrap_or(&s.label).to_string();
            *d.family_ms.entry(family).or_insert(0.0) += s.total_time_ms();
            d.kernel_ms += s.total_time_ms();
            d.payload_bytes += s.totals.gmem_payload_bytes();
        }
        d
    }

    pub fn add(&mut self, other: &LaunchDelta) {
        self.launches += other.launches;
        for (k, v) in &other.family_ms {
            *self.family_ms.entry(k.clone()).or_insert(0.0) += v;
        }
        self.kernel_ms += other.kernel_ms;
        self.payload_bytes += other.payload_bytes;
    }
}
