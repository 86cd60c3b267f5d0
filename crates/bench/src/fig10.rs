//! Fig. 10: wordcount on heterogeneous servers — some servers throttled
//! to 40 % CPU — comparing a Galloper code built with homogeneous weights
//! against one whose weights follow the measured server performance.

use galloper::{GalloperParams, StripeAllocation};
use galloper_codes::{build_code, CodeSpec};
use galloper_erasure::ErasureCode;
use galloper_simmr::{layout_splits, simulate_job, JobConfig, Workload};
use galloper_simstore::{Cluster, Placement};

use crate::fig9::hadoop_cluster;

/// Which servers the experiment throttles to 40 %: the hosts of local
/// group 1's blocks (grouped order blocks 3, 4, 5 → servers 3, 4, 5 under
/// identity placement).
pub const THROTTLED_SERVERS: [usize; 3] = [3, 4, 5];

/// Measurements for one Galloper weighting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// "homogeneous" or "heterogeneous".
    pub weighting: String,
    /// Mean map-task duration on the throttled (40 %) servers.
    pub slow_avg_map_secs: f64,
    /// Mean map-task duration on the full-speed servers.
    pub fast_avg_map_secs: f64,
    /// Map phase completion, seconds.
    pub map_secs: f64,
    /// End-to-end job completion, seconds.
    pub job_secs: f64,
}

impl Fig10Row {
    /// The row as a JSON object — same fields the markdown prints.
    pub fn to_json(&self) -> galloper_obs::Json {
        galloper_obs::Json::object()
            .field("weighting", self.weighting.as_str())
            .field("slow_avg_map_secs", self.slow_avg_map_secs)
            .field("fast_avg_map_secs", self.fast_avg_map_secs)
            .field("map_secs", self.map_secs)
            .field("job_secs", self.job_secs)
    }
}

/// The Fig. 10 result pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// Homogeneous-weight Galloper measurements.
    pub homogeneous: Fig10Row,
    /// Heterogeneous-weight Galloper measurements.
    pub heterogeneous: Fig10Row,
}

impl Fig10Result {
    /// Overall completion-time saving of heterogeneous weights (paper:
    /// 32.6 %).
    pub fn job_saving(&self) -> f64 {
        (self.homogeneous.job_secs - self.heterogeneous.job_secs) / self.homogeneous.job_secs
    }
}

fn run_weighting(
    cluster: &Cluster,
    code: &dyn ErasureCode,
    placement: &Placement,
    block_mb: f64,
    weighting: &str,
) -> Fig10Row {
    let splits = layout_splits(&code.layout(), placement, block_mb, block_mb + 1.0);
    let report = simulate_job(
        cluster,
        &splits,
        &JobConfig {
            workload: Workload::wordcount(),
            reducers: (7..15).collect(),
        },
    );
    let slow = report
        .avg_map_task_secs_where(|s| THROTTLED_SERVERS.contains(&s))
        .unwrap_or(0.0);
    let fast = report
        .avg_map_task_secs_where(|s| !THROTTLED_SERVERS.contains(&s))
        .unwrap_or(0.0);
    Fig10Row {
        weighting: weighting.to_string(),
        slow_avg_map_secs: slow,
        fast_avg_map_secs: fast,
        map_secs: report.map_secs,
        job_secs: report.job_secs,
    }
}

/// Runs the Fig. 10 experiment.
pub fn run(block_mb: f64) -> Fig10Result {
    let mut cluster = hadoop_cluster(30);
    for &s in &THROTTLED_SERVERS {
        cluster.spec_mut(s).cpu_factor = 0.4;
    }
    let placement = Placement::identity(7);

    // Homogeneous weights: the Fig. 9 code, oblivious to the throttling.
    let homogeneous_code = build_code(&CodeSpec::galloper(4, 2, 1, 1)).expect("valid galloper");

    // Heterogeneous weights: measure each block server's effective CPU
    // rate, run the §V-B weight LP, and pin the resulting allocation in
    // the spec — exactly what a deployment would record in its manifest.
    let perfs: Vec<f64> = (0..7)
        .map(|b| cluster.spec(placement.server_of(b)).effective_cpu_mbps())
        .collect();
    let params = GalloperParams::new(4, 2, 1).expect("valid parameters");
    let alloc =
        StripeAllocation::from_performances(params, &perfs, 35).expect("valid weighted allocation");
    let heterogeneous_code = build_code(
        &CodeSpec::galloper(4, 2, 1, 1).with_counts(alloc.resolution(), alloc.counts().to_vec()),
    )
    .expect("valid weighted galloper");

    Fig10Result {
        homogeneous: run_weighting(
            &cluster,
            &homogeneous_code,
            &placement,
            block_mb,
            "homogeneous",
        ),
        heterogeneous: run_weighting(
            &cluster,
            &heterogeneous_code,
            &placement,
            block_mb,
            "heterogeneous",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_weights_balance_map_times() {
        let result = run(450.0);
        let hom = &result.homogeneous;
        let het = &result.heterogeneous;

        // With homogeneous weights the throttled servers straggle badly.
        assert!(
            hom.slow_avg_map_secs > 1.7 * hom.fast_avg_map_secs,
            "throttled servers must straggle: {} vs {}",
            hom.slow_avg_map_secs,
            hom.fast_avg_map_secs
        );
        // Heterogeneous weights bring the two classes close together
        // ("the completion time on the two types of servers becomes very
        // similar", §VII-B).
        let ratio = het.slow_avg_map_secs / het.fast_avg_map_secs;
        assert!(
            (0.7..1.4).contains(&ratio),
            "balanced map times expected, ratio {ratio}"
        );
        // Overall completion improves substantially (paper: 32.6%).
        let saving = result.job_saving();
        assert!(
            (0.2..0.45).contains(&saving),
            "job saving {saving} out of expected range"
        );
    }
}
