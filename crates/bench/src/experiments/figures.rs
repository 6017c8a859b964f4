//! Experiments F1 and F2: the paper's two figures.

use bft_core::catalogue;
use bft_protocols::pbft::PbftOptions;
use bft_protocols::{Protocol, ProtocolId, Scenario};
use bft_sim::{FaultPlan, NodeId, SimDuration, SimTime, Stage};

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **F1 — Figure 1**: a replica's lifecycle passes through ordering,
/// execution, view-change, checkpointing and recovery stages.
pub fn f1_lifecycle(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_f1",
        "Figure 1: replica lifecycle stages",
        "a replica's lifecycle consists of ordering, execution, view-change, \
         checkpointing and recovery stages",
        vec![
            "ordering",
            "execution",
            "view-change",
            "checkpointing",
            "recovery",
        ],
    );
    // one run exercising everything: a leader crash (view change), enough
    // requests for checkpoints, and proactive rejuvenation
    // checkpointing needs ≥ one interval (16) of requests even in quick mode.
    // The leader stays down for 2s: τ2 discounts scheduled rejuvenation
    // windows, so the backups need that long to accumulate enough
    // clear-quorum time to elect a new leader (a shorter outage is simply
    // ridden out in the old view — no view change to observe).
    let s = Scenario::small(1)
        .with_load(1, load(quick, 40).max(24))
        .with_faults(FaultPlan::none().crash_recover(
            NodeId::replica(0),
            SimTime(5_000_000),
            SimTime(2_000_000_000),
        ));
    let out = Protocol::Pbft(PbftOptions {
        recovery_period: Some(SimDuration::from_millis(40)),
        ..Default::default()
    })
    .run(&s);
    audit(&out, &[]);
    let mut all_present = true;
    for r in 1..4u32 {
        let stages = out.log.stages_of(NodeId::replica(r));
        let mark = |s: Stage| if stages.contains(&s) { "✓" } else { "✗" }.to_string();
        let row = vec![
            mark(Stage::Ordering),
            mark(Stage::Execution),
            mark(Stage::ViewChange),
            mark(Stage::Checkpointing),
            mark(Stage::Recovery),
        ];
        all_present &= Stage::ALL.iter().all(|s| stages.contains(s));
        result.row(format!("replica r{r}"), row);
    }
    result.check(
        all_present,
        "every stage of Figure 1 observed on every correct replica",
    );
    result.check(
        accepted(&out) as u64 == s.total_requests(),
        "all requests completed",
    );
    result
}

/// **F2 — Figure 2**: PBFT's anatomy — 3 phases, linear pre-prepare,
/// quadratic prepare/commit, O(n²) total messages, f+1 client replies.
pub fn f2_pbft_anatomy(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_f2",
        "Figure 2: PBFT anatomy",
        "3 ordering phases; prepare and commit are all-to-all, so messages \
         per request grow quadratically with n; the client waits for f+1 \
         matching replies",
        vec!["n", "msgs/req", "O(n²) model", "ratio", "replies/req"],
    );
    let point = catalogue::pbft();
    result.note(format!(
        "design-space point: {} ordering phases ({})",
        point.good_case_phases(),
        point
            .phases
            .iter()
            .map(|p| format!("{} {:?}", p.name, p.complexity))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut quad_fits = true;
    let mut prev: Option<(f64, f64)> = None;
    for f in [1usize, 2, 3, 4] {
        let n = 3 * f + 1;
        let reqs = load(quick, 30);
        let s = Scenario::small(f).with_load(1, reqs);
        let out = ProtocolId::Pbft.run(&s);
        audit(&out, &[]);
        let measured = msgs_per_req(&out);
        // the analytic good case: (n−1) pre-prepares + n(n−1) prepares+commits
        // (each of the two quadratic phases is ~n·(n−1) one-way messages),
        // plus n replies
        let model = point.good_case_messages(n) as f64;
        let client_replies =
            out.metrics.node(NodeId::client(0)).msgs_received as f64 / accepted(&out) as f64;
        if let Some((pn, pm)) = prev {
            // quadratic growth: measured ratio tracks the model ratio
            let growth = measured / pm;
            let model_growth = model / (point.good_case_messages(pn as usize) as f64);
            quad_fits &= (growth / model_growth - 1.0).abs() < 0.5;
        }
        prev = Some((n as f64, measured));
        result.row(
            format!("f={f}"),
            vec![
                n.to_string(),
                fmt::f1(measured),
                fmt::f1(model),
                fmt::f2(measured / model),
                fmt::f1(client_replies),
            ],
        );
    }
    result.check(point.good_case_phases() == 3, "PBFT commits in 3 phases");
    result.check(quad_fits, "message growth tracks the O(n²) model");
    result.note("clients receive ~n replies and accept after f+1 matching ones");
    result
}
