//! Observations: the audit trail every actor emits.
//!
//! Protocol correctness in the experiments is never taken on faith: each
//! replica records what it commits, executes, checkpoints, and which
//! lifecycle stage (Figure 1 of the paper) it is in. The simulator collects
//! these into an [`ObservationLog`] that the safety auditor and the
//! experiment harness consume.

use serde::{Deserialize, Serialize};

use bft_types::{Digest, RequestId, SeqNum, Transaction, TxnResult, View};

use crate::event::NodeId;
use crate::time::SimTime;

/// The replica lifecycle stages of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Agreeing on a unique order for requests.
    Ordering,
    /// Applying requests to the replicated state machine.
    Execution,
    /// Replacing the current leader.
    ViewChange,
    /// Garbage-collecting the log / helping trailing replicas catch up.
    Checkpointing,
    /// Recovering from (suspected) faults via rejuvenation.
    Recovery,
}

impl Stage {
    /// All stages, in Figure 1 order.
    pub const ALL: [Stage; 5] = [
        Stage::Ordering,
        Stage::Execution,
        Stage::ViewChange,
        Stage::Checkpointing,
        Stage::Recovery,
    ];
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Ordering => "ordering",
            Stage::Execution => "execution",
            Stage::ViewChange => "view-change",
            Stage::Checkpointing => "checkpointing",
            Stage::Recovery => "recovery",
        };
        f.write_str(s)
    }
}

/// One audited protocol event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Observation {
    /// A replica committed (decided) the batch with `digest` at `seq`.
    /// `speculative` marks tentative commits that may later roll back
    /// (Zyzzyva/PoE) — the safety auditor treats final and speculative
    /// commits differently.
    Commit {
        /// Decided sequence number.
        seq: SeqNum,
        /// View of the decision.
        view: View,
        /// Digest of the decided batch.
        digest: Digest,
        /// Tentative (speculative) commit?
        speculative: bool,
    },
    /// A replica executed a request at `seq`, leaving the state machine at
    /// `state_digest`.
    Execute {
        /// Position in the history.
        seq: SeqNum,
        /// The executed request.
        request: RequestId,
        /// State digest after execution.
        state_digest: Digest,
    },
    /// A speculative execution was rolled back (PoE/Zyzzyva fallback).
    Rollback {
        /// First sequence number undone.
        from_seq: SeqNum,
    },
    /// A replica entered a new view.
    NewView {
        /// The view entered.
        view: View,
    },
    /// A replica established a stable checkpoint.
    StableCheckpoint {
        /// Checkpoint sequence number.
        seq: SeqNum,
        /// State digest at the checkpoint.
        state_digest: Digest,
    },
    /// A replica transitioned lifecycle stage (Figure 1).
    StageEnter {
        /// The stage entered.
        stage: Stage,
    },
    /// A replica began rejuvenation (proactive or reactive recovery).
    RecoveryStart,
    /// A replica finished rejuvenation and rejoined.
    RecoveryDone,
    /// A client accepted a result for `request` (its reply quorum was met).
    ClientAccept {
        /// The completed request.
        request: RequestId,
        /// When the client first sent it (for latency accounting).
        sent_at: SimTime,
        /// Whether acceptance used the speculative (fast) path.
        fast_path: bool,
        /// The transaction the request carried (makes accepted histories
        /// self-contained for the semantic checkers). Boxed, like `result`,
        /// to keep every log entry small; serde writes a box as its content.
        txn: Box<Transaction>,
        /// The agreed execution result the client accepted.
        result: Box<TxnResult>,
    },
    /// Protocol-specific marker (e.g. "fallback triggered", "fast path").
    Marker {
        /// Free-form label; experiments grep for these.
        label: &'static str,
    },
}

/// A timestamped observation from one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LoggedObservation {
    /// When it happened (virtual time).
    pub at: SimTime,
    /// Which node observed it.
    pub node: NodeId,
    /// What happened.
    pub obs: Observation,
}

/// The global, chronologically ordered observation log of one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ObservationLog {
    /// All observations in emission order (emission order = virtual-time
    /// order because the simulator is sequential).
    pub entries: Vec<LoggedObservation>,
}

impl ObservationLog {
    /// Record an observation.
    pub fn push(&mut self, at: SimTime, node: NodeId, obs: Observation) {
        self.entries.push(LoggedObservation { at, node, obs });
    }

    /// All final (non-speculative) commits by `node`, as `(seq, digest)`.
    pub fn commits_of(&self, node: NodeId) -> Vec<(SeqNum, Digest)> {
        self.entries
            .iter()
            .filter(|e| e.node == node)
            .filter_map(|e| match &e.obs {
                Observation::Commit {
                    seq,
                    digest,
                    speculative: false,
                    ..
                } => Some((*seq, *digest)),
                _ => None,
            })
            .collect()
    }

    /// All client-accepted requests with their latencies.
    pub fn client_latencies(&self) -> Vec<(RequestId, crate::time::SimDuration)> {
        self.entries
            .iter()
            .filter_map(|e| match &e.obs {
                Observation::ClientAccept {
                    request, sent_at, ..
                } => Some((*request, e.at.since(*sent_at))),
                _ => None,
            })
            .collect()
    }

    /// Count observations matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&LoggedObservation) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e)).count()
    }

    /// The set of stages `node` entered, in first-entry order.
    pub fn stages_of(&self, node: NodeId) -> Vec<Stage> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if e.node == node {
                if let Observation::StageEnter { stage } = e.obs {
                    if !seen.contains(&stage) {
                        seen.push(stage);
                    }
                }
            }
        }
        seen
    }

    /// Highest view any node reported entering.
    pub fn max_view(&self) -> View {
        self.entries
            .iter()
            .filter_map(|e| match e.obs {
                Observation::NewView { view } => Some(view),
                _ => None,
            })
            .max()
            .unwrap_or(View(0))
    }

    /// Count of `Marker { label }` observations.
    pub fn marker_count(&self, label: &str) -> usize {
        self.count(|e| matches!(e.obs, Observation::Marker { label: l } if l == label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn log_accessors() {
        let mut log = ObservationLog::default();
        let n0 = NodeId::replica(0);
        log.push(
            SimTime(10),
            n0,
            Observation::StageEnter {
                stage: Stage::Ordering,
            },
        );
        log.push(
            SimTime(20),
            n0,
            Observation::Commit {
                seq: SeqNum(1),
                view: View(0),
                digest: Digest([1u8; 32]),
                speculative: false,
            },
        );
        log.push(
            SimTime(25),
            n0,
            Observation::Commit {
                seq: SeqNum(2),
                view: View(0),
                digest: Digest([2u8; 32]),
                speculative: true,
            },
        );
        log.push(
            SimTime(30),
            n0,
            Observation::StageEnter {
                stage: Stage::Execution,
            },
        );
        log.push(
            SimTime(35),
            n0,
            Observation::StageEnter {
                stage: Stage::Ordering,
            },
        );
        log.push(SimTime(40), n0, Observation::NewView { view: View(3) });
        log.push(SimTime(50), n0, Observation::Marker { label: "fallback" });

        assert_eq!(log.commits_of(n0), vec![(SeqNum(1), Digest([1u8; 32]))]);
        assert_eq!(log.stages_of(n0), vec![Stage::Ordering, Stage::Execution]);
        assert_eq!(log.max_view(), View(3));
        assert_eq!(log.marker_count("fallback"), 1);
        assert_eq!(log.marker_count("other"), 0);
    }

    #[test]
    fn client_latency_extraction() {
        let mut log = ObservationLog::default();
        let req = RequestId {
            client: bft_types::ClientId(1),
            timestamp: 1,
        };
        log.push(
            SimTime(1_000),
            NodeId::client(1),
            Observation::ClientAccept {
                request: req,
                sent_at: SimTime(400),
                fast_path: true,
                txn: Box::new(Transaction::default()),
                result: Box::new(TxnResult { reads: vec![] }),
            },
        );
        let lat = log.client_latencies();
        assert_eq!(lat, vec![(req, SimDuration(600))]);
    }
}
