//! Ablation experiments for the design levers DESIGN.md calls out beyond
//! the paper's enumerated artifacts: request batching (the paper's
//! "performance optimizations" family, which the tutorial scopes out but
//! every implementation depends on) and the partial-synchrony model itself
//! (liveness across GST).

use bft_core::workload::WorkloadConfig;

use bft_protocols::{ProtocolId, Scenario};
use bft_sim::NodeId;
use bft_sim::{NetworkConfig, Observation, SimTime};

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **Ablation: batching** — amortizing consensus over batches trades
/// latency for throughput (the "request pipelining / batching" optimization
/// of the paper's fourth dimension family).
pub fn abl_batching(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_abl_batching",
        "Ablation: request batching",
        "batching amortizes each consensus instance over many requests: \
         consensus instances per request fall with batch size while \
         per-request latency rises slightly (the batch-formation delay)",
        vec!["instances", "instances/req", "mean ms", "msgs/req"],
    );
    let reqs = load(quick, 25);
    let mut prev_instances = u64::MAX;
    for batch in [1usize, 4, 8] {
        let s = Scenario::small(1).with_load(8, reqs).with_batch(batch);
        let out = ProtocolId::Pbft.run(&s);
        audit(&out, &[]);
        let total = (accepted(&out)) as u64;
        // consensus instances = distinct commits on one replica
        let instances = out
            .log
            .entries
            .iter()
            .filter(|e| {
                e.node == bft_sim::NodeId::replica(1) && matches!(e.obs, Observation::Commit { .. })
            })
            .count() as u64;
        result.row(
            format!("batch size {batch}"),
            vec![
                instances.to_string(),
                fmt::f2(instances as f64 / total as f64),
                fmt::ms(mean_latency_ns(&out)),
                fmt::f1(msgs_per_req(&out)),
            ],
        );
        if batch > 1 {
            result.check(
                instances < prev_instances,
                &format!("batch {batch} uses fewer consensus instances"),
            );
        }
        prev_instances = instances;
    }
    result
}

/// **Ablation: partial synchrony (GST)** — §2's model claim: consensus
/// cannot be live while the network is adversarial, and becomes live once
/// the global stabilization time passes.
pub fn abl_gst(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_abl_gst",
        "Ablation: liveness across GST",
        "before GST the adversary delays and drops messages and progress is \
         not guaranteed; after GST all correct-replica messages arrive \
         within Δ and every request commits (the FLP circumvention of §2)",
        vec!["accepts before GST", "accepts after GST", "total"],
    );
    let reqs = load(quick, 20);
    for gst_ms in [0u64, 50, 150] {
        let gst = SimTime(gst_ms * 1_000_000);
        let net = NetworkConfig::lan().with_gst(gst).with_pre_gst_drop(0.25);
        let s = Scenario::small(1).with_load(1, reqs).with_network(net);
        let out = ProtocolId::Pbft.run(&s);
        audit(&out, &[]);
        let before = out
            .log
            .entries
            .iter()
            .filter(|e| matches!(e.obs, Observation::ClientAccept { .. }) && e.at < gst)
            .count();
        let after = accepted(&out) - before;
        result.row(
            format!("GST = {gst_ms} ms"),
            vec![
                before.to_string(),
                after.to_string(),
                accepted(&out).to_string(),
            ],
        );
        result.check(
            accepted(&out) as u64 == s.total_requests(),
            &format!("GST {gst_ms} ms: every request eventually commits"),
        );
    }
    result.note("pre-GST: adversarial delays up to 50 ms and 25% message loss");
    result
}

/// **Ablation: the read-only optimization** — the paper's P6 note that
/// PBFT answers read-only requests with a 2f+1 reply quorum, skipping
/// consensus entirely.
pub fn abl_readonly(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_abl_readonly",
        "Ablation: PBFT read-only optimization",
        "read-only requests are answered from current replica state with a \
         2f+1 matching-reply quorum — no consensus instance, lower latency; \
         concurrent writers force occasional fallbacks to the ordered path",
        vec!["fast reads", "fallbacks", "instances", "mean ms"],
    );
    let reqs = load(quick, 30);
    for (label, read_frac, optimized) in [
        ("ordered path only", 0.8, false),
        ("read-optimized", 0.8, true),
        ("read-optimized + contention", 0.5, true),
    ] {
        let mut w = WorkloadConfig::uniform().with_reads(read_frac);
        if label.contains("contention") {
            w = WorkloadConfig::contended(0.6).with_reads(read_frac);
        }
        let s = Scenario::small(1).with_load(2, reqs).with_workload(w);
        let out = if optimized {
            ProtocolId::PbftReadOpt.run(&s)
        } else {
            ProtocolId::Pbft.run(&s)
        };
        audit(&out, &[]);
        let instances = out
            .log
            .entries
            .iter()
            .filter(|e| e.node == NodeId::replica(1) && matches!(e.obs, Observation::Commit { .. }))
            .count();
        result.row(
            label,
            vec![
                out.log.marker_count("fast-read").to_string(),
                out.log.marker_count("read-fallback").to_string(),
                instances.to_string(),
                fmt::ms(mean_latency_ns(&out)),
            ],
        );
    }
    let rows = result.rows.clone();
    let baseline_instances: usize = rows[0].values[2].parse().unwrap();
    let optimized_instances: usize = rows[1].values[2].parse().unwrap();
    result.check(
        optimized_instances < baseline_instances / 2,
        "reads bypass consensus: far fewer instances",
    );
    let baseline_ms: f64 = rows[0].values[3].parse().unwrap();
    let optimized_ms: f64 = rows[1].values[3].parse().unwrap();
    result.check(optimized_ms < baseline_ms, "skipping consensus is faster");
    result
}
