//! Per-workload semantic consistency checkers.
//!
//! The digest-based [`crate::SafetyAuditor`] proves replicas *agree*; the
//! checkers here prove the agreed history is *correct* for the application:
//!
//! * **Replay faithfulness** — folding every honest replica's `Execute` /
//!   `Rollback` stream through a fresh [`bft_state::StateMachine`] must
//!   reproduce the observed digests (a unanimous-but-wrong execution, as in
//!   an untrusted cloud, is caught here even though the auditor is blind to
//!   it).
//! * **No lost writes** — every accepted non-read-only request must appear
//!   in some honest replica's execution stream.
//! * **Per-key linearizability** for the key-value and counter workloads,
//!   via a bounded Wing–Gong-style search over each key's accepted
//!   operation history.
//! * **Log invariants** — append offsets are unique, real-time monotone and
//!   dense; consumer reads agree with the append that claimed the offset.
//! * **Counter convergence** — grow-only totals never exceed the sum of
//!   accepted increments and never undershoot the increments that finished
//!   before the read began.
//!
//! The checkers consume only the observation log (accepted histories are
//! self-contained: `ClientAccept` carries the transaction and agreed
//! result) plus the scenario's request table for phantom resolution. They
//! are deliberately conservative: whenever a condition cannot be decided
//! soundly — unresolved phantom writes, search bounds exceeded, snapshot
//! gaps in a replay — the affected check degrades to a weaker one instead
//! of reporting a false alarm.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bft_state::StateMachine;
use bft_types::{Key, Op, Request, RequestId, Transaction, TxnResult, Value};

use crate::event::NodeId;
use crate::obs::{Observation, ObservationLog};
use crate::time::SimTime;

/// How the protocol under check executes transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSemantics {
    /// A totally ordered replicated state machine emitting `Execute`
    /// observations (all registry protocols except Q/U).
    Replicated,
    /// Per-object versioned quorum storage (Q/U): no global order, no
    /// `Execute` stream, read-modify-writes collapse to blind writes.
    /// Replay, membership and density checks do not apply; per-object
    /// version monotonicity and blind-register linearizability do.
    VersionedObjects,
}

/// One semantic violation, named by the check that found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticViolation {
    /// Which checker fired (e.g. `"lost-write"`, `"log-offset-duplicate"`).
    pub check: &'static str,
    /// Human-readable description of the defect.
    pub detail: String,
}

impl std::fmt::Display for SemanticViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

/// Checker inputs beyond the observation log.
#[derive(Debug, Clone, Default)]
pub struct SemanticConfig {
    /// Execution semantics of the protocol under check.
    pub semantics: Option<ExecutionSemantics>,
    /// Every request the scenario's clients may send (phantom resolution
    /// and replay). Leave empty when request ids are not reproducible
    /// (e.g. Q/U's retry-bumped timestamps); phantom-dependent checks then
    /// degrade.
    pub txns: BTreeMap<RequestId, Transaction>,
    /// Nodes excluded from honest-replica checks (campaign suspects).
    pub faulty: Vec<NodeId>,
}

impl SemanticConfig {
    /// Config for a replicated-state-machine protocol.
    pub fn replicated(txns: BTreeMap<RequestId, Transaction>) -> Self {
        SemanticConfig {
            semantics: Some(ExecutionSemantics::Replicated),
            txns,
            faulty: Vec::new(),
        }
    }

    /// Config for versioned-object (Q/U-style) semantics.
    pub fn versioned_objects() -> Self {
        SemanticConfig {
            semantics: Some(ExecutionSemantics::VersionedObjects),
            txns: BTreeMap::new(),
            faulty: Vec::new(),
        }
    }

    /// Builder-style: mark nodes as faulty/suspect.
    pub fn with_faulty(mut self, faulty: Vec<NodeId>) -> Self {
        self.faulty = faulty;
        self
    }
}

/// Which application family a key's operations belong to (the composed app
/// keeps the three namespaces disjoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Kv,
    Log,
    Counter,
}

fn family_of(op: &Op) -> Option<Family> {
    match op {
        Op::Get(_) | Op::Put(_, _) | Op::Add(_, _) | Op::Delete(_) => Some(Family::Kv),
        Op::Append(_, _) | Op::ReadAt(_, _) => Some(Family::Log),
        Op::GAdd(_, _) | Op::GRead(_) => Some(Family::Counter),
        Op::Work(_) => None,
    }
}

fn key_of(op: &Op) -> Option<Key> {
    op.read_key().or_else(|| op.write_key())
}

/// The recorded result of one accepted single-op transaction. `Unknown`
/// when the agreed result's arity does not cover the op (some accept paths
/// cannot recover the result); value checks are skipped, ordering and
/// membership checks still apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResVal {
    Val(Option<Value>),
    Unknown,
}

/// One accepted operation in a per-key history.
#[derive(Debug, Clone)]
struct HistOp {
    id: RequestId,
    op: Op,
    res: ResVal,
    invoked: SimTime,
    completed: SimTime,
}

/// One accepted request (any arity).
#[derive(Debug, Clone)]
struct Accepted {
    id: RequestId,
    txn: Transaction,
    result: TxnResult,
    invoked: SimTime,
    completed: SimTime,
}

/// Does the op contribute a slot to `TxnResult::reads`?
fn produces_read(op: &Op) -> bool {
    !matches!(op, Op::Put(_, _) | Op::Delete(_) | Op::Work(_))
}

/// Run every applicable semantic checker over a finished run's log.
pub fn check_semantics(log: &ObservationLog, cfg: &SemanticConfig) -> Vec<SemanticViolation> {
    let semantics = cfg.semantics.unwrap_or(ExecutionSemantics::Replicated);
    let mut out = Vec::new();

    // -- gather accepted requests (first accept wins per id) --------------
    let mut accepted: Vec<Accepted> = Vec::new();
    let mut seen: BTreeSet<RequestId> = BTreeSet::new();
    for e in &log.entries {
        if let Observation::ClientAccept {
            request,
            sent_at,
            txn,
            result,
            ..
        } = &e.obs
        {
            if seen.insert(*request) {
                accepted.push(Accepted {
                    id: *request,
                    txn: (**txn).clone(),
                    result: (**result).clone(),
                    invoked: *sent_at,
                    completed: e.at,
                });
            }
        }
    }

    // -- phantom writes: potential effects of requests never accepted -----
    // (sent-but-lost and never-sent are indistinguishable from the log, so
    // both count; checks that need exact knowledge skip affected keys)
    let mut phantom_writes: BTreeSet<(Family, Key)> = BTreeSet::new();
    let mut phantoms_unknown = cfg.txns.is_empty() && !accepted.is_empty();
    for (id, txn) in &cfg.txns {
        if !seen.contains(id) {
            for op in &txn.ops {
                if let (Some(fam), Some(k)) = (family_of(op), op.write_key()) {
                    phantom_writes.insert((fam, k));
                }
            }
        }
    }
    // accepted requests outside the table also make phantom knowledge moot
    if !cfg.txns.is_empty() && accepted.iter().any(|a| !cfg.txns.contains_key(&a.id)) {
        phantoms_unknown = true;
    }
    let has_phantoms =
        |fam: Family, k: Key| -> bool { phantoms_unknown || phantom_writes.contains(&(fam, k)) };

    // -- replicated-only checks: replay faithfulness + no lost writes -----
    if semantics == ExecutionSemantics::Replicated {
        replay_and_membership(log, cfg, &accepted, &mut out);
    }

    // -- per-key histories from single-op accepted transactions -----------
    let mut histories: BTreeMap<(Family, Key), Vec<HistOp>> = BTreeMap::new();
    let mut multi_op_keys: BTreeSet<(Family, Key)> = BTreeSet::new();
    for a in &accepted {
        let data_ops: Vec<&Op> = a
            .txn
            .ops
            .iter()
            .filter(|op| family_of(op).is_some())
            .collect();
        let read_slots = a.txn.ops.iter().filter(|op| produces_read(op)).count();
        if data_ops.len() == 1 {
            let op = data_ops[0].clone();
            let (fam, k) = (family_of(&op).unwrap(), key_of(&op).unwrap());
            let res = if !produces_read(&op) {
                ResVal::Unknown
            } else if a.result.reads.len() == read_slots {
                ResVal::Val(a.result.reads[0])
            } else {
                ResVal::Unknown
            };
            histories.entry((fam, k)).or_default().push(HistOp {
                id: a.id,
                op,
                res,
                invoked: a.invoked,
                completed: a.completed,
            });
        } else {
            // multi-op transactions are covered by replay, not by the
            // per-key search; exclude their keys from the latter
            for op in data_ops {
                if let (Some(fam), Some(k)) = (family_of(op), key_of(op)) {
                    multi_op_keys.insert((fam, k));
                }
            }
        }
    }

    for ((fam, key), ops) in &histories {
        if multi_op_keys.contains(&(*fam, *key)) {
            continue;
        }
        match fam {
            Family::Kv | Family::Counter => {
                // skip the search when unaccepted writes may have executed
                if !has_phantoms(*fam, *key) || semantics == ExecutionSemantics::VersionedObjects {
                    check_linearizable(*fam, *key, ops, semantics, &mut out);
                }
                if *fam == Family::Counter {
                    check_counter(*key, ops, semantics, has_phantoms(*fam, *key), &mut out);
                }
            }
            Family::Log => {
                check_log(*key, ops, semantics, has_phantoms(*fam, *key), &mut out);
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// replay + membership
// ---------------------------------------------------------------------------

fn replay_and_membership(
    log: &ObservationLog,
    cfg: &SemanticConfig,
    accepted: &[Accepted],
    out: &mut Vec<SemanticViolation>,
) {
    // honest replicas observed in the log
    let mut replicas: BTreeSet<NodeId> = BTreeSet::new();
    for e in &log.entries {
        if matches!(e.node, NodeId::Replica(_)) && !cfg.faulty.contains(&e.node) {
            replicas.insert(e.node);
        }
    }

    // every request any honest replica ever executed (rollbacks included:
    // for membership we only need "took effect somewhere at some point")
    let mut executed_union: BTreeSet<RequestId> = BTreeSet::new();
    for e in &log.entries {
        if let Observation::Execute { request, .. } = &e.obs {
            if replicas.contains(&e.node) {
                executed_union.insert(*request);
            }
        }
    }

    for a in accepted {
        if a.txn.is_read_only() {
            continue; // served from current state, legitimately unordered
        }
        if !executed_union.contains(&a.id) {
            out.push(SemanticViolation {
                check: "lost-write",
                detail: format!(
                    "accepted write {:?} never executed on any honest replica",
                    a.id
                ),
            });
        }
    }

    if cfg.txns.is_empty() {
        return; // cannot replay without the request table
    }

    // replay each honest replica's execution stream through a fresh state
    // machine; a replica whose stream has a gap (snapshot catch-up) or an
    // unknown request degrades to membership-only above
    let by_id: &BTreeMap<RequestId, Transaction> = &cfg.txns;
    for replica in &replicas {
        let mut sm = StateMachine::new();
        let mut degraded = false;
        let mut rolled_back = false;
        let mut results: BTreeMap<RequestId, TxnResult> = BTreeMap::new();
        for e in &log.entries {
            if e.node != *replica {
                continue;
            }
            match &e.obs {
                Observation::Execute {
                    seq,
                    request,
                    state_digest,
                } => {
                    if degraded {
                        continue;
                    }
                    let Some(txn) = by_id.get(request) else {
                        degraded = true;
                        continue;
                    };
                    if *seq != sm.last_executed().next() {
                        degraded = true; // snapshot/recovery gap
                        continue;
                    }
                    let req = Request {
                        id: *request,
                        txn: txn.clone(),
                    };
                    let (result, digest) = sm.execute(*seq, &req);
                    if digest != *state_digest {
                        out.push(SemanticViolation {
                            check: "replay-digest",
                            detail: format!(
                                "{replica:?} seq {seq} digest diverges from faithful replay \
                                 of the observed execution stream"
                            ),
                        });
                        degraded = true;
                    }
                    results.insert(*request, result);
                }
                Observation::Rollback { from_seq } => {
                    rolled_back = true;
                    if !degraded {
                        sm.rollback_to(*from_seq);
                    }
                }
                _ => {}
            }
        }
        // accepted results must match the faithful execution (only safe to
        // assert on replicas that never rolled back: a speculative result
        // may legitimately be superseded on re-execution)
        if !degraded && !rolled_back {
            for a in accepted {
                if a.txn.is_read_only() {
                    continue;
                }
                if let Some(replayed) = results.get(&a.id) {
                    if a.result.reads.len() == replayed.reads.len() && a.result != *replayed {
                        out.push(SemanticViolation {
                            check: "result-mismatch",
                            detail: format!(
                                "accepted result for {:?} disagrees with replay on {replica:?} \
                                 ({:?} vs {:?})",
                                a.id, a.result.reads, replayed.reads
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// bounded Wing–Gong linearizability
// ---------------------------------------------------------------------------

/// Cap on per-key history length (bitmask-encoded search set).
const MAX_OPS: usize = 64;
/// Cap on explored (mask, state) pairs before declaring the search
/// inconclusive (inconclusive = pass; soundness over completeness).
const MAX_STATES: usize = 200_000;

/// Apply `op` to the model state; returns the new state and the result the
/// model predicts, or `None` when the op family does not fit the model.
fn model_step(
    state: Option<Value>,
    op: &Op,
    semantics: ExecutionSemantics,
) -> Option<(Option<Value>, Option<Option<Value>>)> {
    use ExecutionSemantics::*;
    Some(match (op, semantics) {
        (Op::Get(_), _) | (Op::GRead(_), VersionedObjects) => (state, Some(state)),
        // grow-only reads see 0, not absent, before the first increment
        (Op::GRead(_), Replicated) => (state, Some(Some(state.unwrap_or(0)))),
        (Op::Put(_, v), _) => (Some(*v), None),
        (Op::Delete(_), _) => (None, None),
        (Op::Add(_, v), Replicated) => {
            let new = state.unwrap_or(0).wrapping_add(*v);
            (Some(new), Some(Some(new)))
        }
        (Op::GAdd(_, d), Replicated) => {
            let new = state.unwrap_or(0).wrapping_add(*d as Value);
            (Some(new), Some(Some(new)))
        }
        // versioned objects: read-modify-writes are blind writes echoing
        // the written value
        (Op::Add(_, v), VersionedObjects) => (Some(*v), Some(Some(*v))),
        (Op::GAdd(_, d), VersionedObjects) => (Some(*d as Value), Some(Some(*d as Value))),
        _ => return None,
    })
}

fn check_linearizable(
    fam: Family,
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    out: &mut Vec<SemanticViolation>,
) {
    if ops.is_empty() || ops.len() > MAX_OPS {
        return; // inconclusive beyond the bound
    }
    // Wing–Gong search: repeatedly linearize some minimal op (one not
    // preceded in real time by another still-pending op) whose predicted
    // result matches the recorded one; memoize on (done-mask, state)
    let full: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut visited: HashSet<(u64, Option<Value>)> = HashSet::new();
    let mut stack: Vec<(u64, Option<Value>)> = vec![(0, None)];
    while let Some((mask, state)) = stack.pop() {
        if mask == full {
            return; // a valid linearization exists
        }
        if !visited.insert((mask, state)) {
            continue;
        }
        if visited.len() > MAX_STATES {
            return; // inconclusive: bound exceeded, do not report
        }
        // earliest completion among pending ops bounds who may go next
        let mut min_completion = SimTime(u64::MAX);
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) == 0 {
                min_completion = min_completion.min(op.completed);
            }
        }
        for (i, h) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 || h.invoked > min_completion {
                continue;
            }
            let Some((next_state, predicted)) = model_step(state, &h.op, semantics) else {
                continue;
            };
            let consistent = match (h.res, predicted) {
                (ResVal::Unknown, _) | (_, None) => true,
                (ResVal::Val(got), Some(want)) => got == want,
            };
            if consistent {
                stack.push((mask | (1 << i), next_state));
            }
        }
    }
    out.push(SemanticViolation {
        check: "linearizability",
        detail: format!(
            "{fam:?} key {key}: no linearization of the {} accepted ops explains the \
             recorded results",
            ops.len()
        ),
    });
}

// ---------------------------------------------------------------------------
// log invariants
// ---------------------------------------------------------------------------

fn check_log(
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    phantoms: bool,
    out: &mut Vec<SemanticViolation>,
) {
    // appends with a recovered offset
    let mut appends: Vec<(&HistOp, u64, Value)> = Vec::new();
    for h in ops {
        if let Op::Append(_, v) = h.op {
            if let ResVal::Val(Some(off)) = h.res {
                if off < 0 {
                    out.push(SemanticViolation {
                        check: "log-offset-invalid",
                        detail: format!("log {key}: append {:?} reported offset {off}", h.id),
                    });
                    continue;
                }
                appends.push((h, off as u64, v));
            } else if let ResVal::Val(None) = h.res {
                out.push(SemanticViolation {
                    check: "log-offset-invalid",
                    detail: format!("log {key}: append {:?} reported no offset", h.id),
                });
            }
        }
    }

    // uniqueness: one record per offset (holds under versioned objects too,
    // by quorum intersection over strictly increasing versions)
    let mut by_offset: BTreeMap<u64, (&HistOp, Value)> = BTreeMap::new();
    for (h, off, v) in &appends {
        if let Some((prev, _)) = by_offset.get(off) {
            out.push(SemanticViolation {
                check: "log-offset-duplicate",
                detail: format!(
                    "log {key}: appends {:?} and {:?} both claim offset {off}",
                    prev.id, h.id
                ),
            });
        } else {
            by_offset.insert(*off, (h, *v));
        }
    }

    // real-time monotonicity: a later append gets a later offset
    for (a, off_a, _) in &appends {
        for (b, off_b, _) in &appends {
            if a.completed < b.invoked && off_a >= off_b {
                out.push(SemanticViolation {
                    check: "log-offset-regression",
                    detail: format!(
                        "log {key}: append {:?} (offset {off_a}) completed before {:?} \
                         (offset {off_b}) began",
                        a.id, b.id
                    ),
                });
            }
        }
    }

    // density: with the full append set known, offsets are exactly 0..n-1
    if semantics == ExecutionSemantics::Replicated && !phantoms && !appends.is_empty() {
        let n = appends.len() as u64;
        if by_offset.keys().last() != Some(&(n - 1)) || by_offset.len() as u64 != n {
            out.push(SemanticViolation {
                check: "log-offset-gap",
                detail: format!(
                    "log {key}: {n} accepted appends but offsets are not dense 0..{}",
                    n - 1
                ),
            });
        }
    }

    // consumer reads
    for h in ops {
        let Op::ReadAt(_, off) = h.op else { continue };
        let ResVal::Val(got) = h.res else { continue };
        match got {
            Some(v) => {
                if let Some((_, rec)) = by_offset.get(&off) {
                    if *rec != v {
                        out.push(SemanticViolation {
                            check: "log-read-mismatch",
                            detail: format!(
                                "log {key}: read at offset {off} returned {v}, but the \
                                 accepted append there wrote {rec}"
                            ),
                        });
                    }
                } else if semantics == ExecutionSemantics::Replicated && !phantoms {
                    out.push(SemanticViolation {
                        check: "log-read-phantom-record",
                        detail: format!(
                            "log {key}: read at offset {off} returned {v}, but no accepted \
                             append claimed that offset"
                        ),
                    });
                }
            }
            None => {
                // a read that began after an append at that offset finished
                // must see it (single-version object stores excepted)
                if semantics == ExecutionSemantics::Replicated {
                    if let Some((a, _)) = by_offset.get(&off) {
                        if a.completed < h.invoked {
                            out.push(SemanticViolation {
                                check: "log-read-lost",
                                detail: format!(
                                    "log {key}: read at offset {off} found nothing although \
                                     append {:?} completed before it began",
                                    a.id
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// counter convergence
// ---------------------------------------------------------------------------

fn check_counter(
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    phantoms: bool,
    out: &mut Vec<SemanticViolation>,
) {
    if semantics == ExecutionSemantics::VersionedObjects {
        // blind-write model: an increment's result echoes its delta
        for h in ops {
            if let (Op::GAdd(_, d), ResVal::Val(got)) = (&h.op, h.res) {
                if got != Some(*d as Value) {
                    out.push(SemanticViolation {
                        check: "counter-echo",
                        detail: format!("counter {key}: blind increment of {d} answered {got:?}",),
                    });
                }
            }
        }
        return;
    }
    if phantoms {
        return; // bounds below need the exact increment set
    }
    let total: i64 = ops
        .iter()
        .filter_map(|h| {
            if let Op::GAdd(_, d) = h.op {
                Some(d as i64)
            } else {
                None
            }
        })
        .sum();
    for h in ops {
        let value = match (&h.op, h.res) {
            (Op::GRead(_), ResVal::Val(Some(v))) => v,
            (Op::GAdd(_, _), ResVal::Val(Some(v))) => v,
            _ => continue,
        };
        // convergence upper bound: nothing beyond the accepted increments
        if value > total {
            out.push(SemanticViolation {
                check: "counter-overrun",
                detail: format!(
                    "counter {key}: observed total {value} exceeds the {total} accepted"
                ),
            });
        }
        // staleness lower bound: increments that finished before this op
        // began are visible
        let settled: i64 = ops
            .iter()
            .filter_map(|o| match o.op {
                Op::GAdd(_, d) if o.completed < h.invoked => Some(d as i64),
                _ => None,
            })
            .sum();
        let floor = settled
            + if let Op::GAdd(_, d) = h.op {
                d as i64
            } else {
                0
            };
        if value < floor {
            out.push(SemanticViolation {
                check: "counter-underrun",
                detail: format!(
                    "counter {key}: observed total {value} below the {floor} already settled"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::ClientId;

    fn hop(ts: u64, op: Op, res: Option<Value>, invoked: u64, completed: u64) -> HistOp {
        HistOp {
            id: RequestId {
                client: ClientId(1),
                timestamp: ts,
            },
            op,
            res: ResVal::Val(res),
            invoked: SimTime(invoked),
            completed: SimTime(completed),
        }
    }

    #[test]
    fn sequential_register_history_linearizes() {
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 10),
            hop(2, Op::Get(7), Some(5), 20, 30),
            hop(3, Op::Add(7, 3), Some(8), 40, 50),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stale_read_after_write_is_flagged() {
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 10),
            // read begins well after the write completed but misses it
            hop(2, Op::Get(7), None, 20, 30),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "linearizability");
    }

    #[test]
    fn concurrent_reads_may_diverge() {
        // two reads overlapping a write may land on either side of it
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 100),
            hop(2, Op::Get(7), None, 10, 20),
            hop(3, Op::Get(7), Some(5), 30, 40),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn log_duplicate_and_regression_flagged() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::Append(3, 200), Some(0), 20, 30),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        let checks: Vec<&str> = out.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"log-offset-duplicate"), "{checks:?}");
        assert!(checks.contains(&"log-offset-regression"), "{checks:?}");
        assert!(checks.contains(&"log-offset-gap"), "{checks:?}");
    }

    #[test]
    fn clean_log_history_passes() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::Append(3, 200), Some(1), 20, 30),
            hop(3, Op::ReadAt(3, 0), Some(100), 40, 50),
            hop(4, Op::ReadAt(3, 5), None, 40, 50),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lost_append_read_is_flagged() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::ReadAt(3, 0), None, 40, 50),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "log-read-lost");
    }

    #[test]
    fn counter_bounds() {
        let ops = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GAdd(2, 3), Some(8), 20, 30),
            hop(3, Op::GRead(2), Some(8), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let bad = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GRead(2), Some(99), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &bad, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out[0].check, "counter-overrun");

        let stale = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GRead(2), Some(0), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &stale, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out[0].check, "counter-underrun");
    }
}
