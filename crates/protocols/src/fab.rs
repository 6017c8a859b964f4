//! FaB — Fast Byzantine consensus (Martin & Alvisi '06): design choice 2,
//! *phase reduction through redundancy*.
//!
//! A two-phase protocol: `propose` (linear, leader → all) followed by a
//! single `accept` round (quadratic, all-to-all). Matching accepts from
//! **4f+1** of the **5f+1** replicas commit the request — one phase fewer
//! than PBFT, bought with 2f extra replicas. (The paper notes `5f−1` was
//! later proven to be the tight bound for two-step consensus; we implement
//! the classic 5f+1 formulation.)
//!
//! The reason 4f+1-of-5f+1 is safe in two phases: any two accept quorums
//! intersect in at least `3f+1` replicas, of which at least `2f+1` are
//! correct — a majority of the correct replicas. A value accepted by a
//! quorum can therefore never be displaced in a later view: the new leader
//! always hears about it from a correct majority witness.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_state::StateMachine;
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    execute_request, run_to_completion, ClientProtocol, FutureBuffer, GenericClient, Scenario,
    SignedRequest, SubmitPolicy,
};
use crate::registry::ProtocolId;

/// FaB messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum FabMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → all: proposal (phase 1 of 2).
    Propose {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// All → all: accept (phase 2 of 2); 4f+1 matching accepts commit.
    Accept {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// Replica → all: abandon the view, carrying accepted slots.
    ViewChange {
        /// Target view.
        new_view: View,
        /// (seq, digest, batch) entries this replica accepted.
        accepted: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
}

impl WireSize for FabMsg {
    fn wire_size(&self) -> usize {
        match self {
            FabMsg::Request(r) => 1 + r.wire_size(),
            FabMsg::Reply(r) => 1 + r.wire_size(),
            FabMsg::Propose { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 72,
            FabMsg::Accept { .. } => 1 + 16 + 32 + 4 + 72,
            FabMsg::ViewChange { accepted, .. } => {
                1 + 8
                    + accepted
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
            FabMsg::NewView { proposals, .. } => {
                1 + 8
                    + proposals
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct FabSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    accepts: Vec<ReplicaId>,
    /// This replica sent its accept.
    accepted: bool,
    committed: bool,
    executed: bool,
}

/// A FaB replica.
pub struct FabReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    view: View,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, FabSlot>,
    mempool: VecDeque<SignedRequest>,
    executed_reqs: BTreeMap<RequestId, ()>,
    sm: StateMachine,
    exec_cursor: SeqNum,
    in_view_change: bool,
    vc_votes: crate::common::VcVotes,
    vc_timer: Option<TimerId>,
    pending_reqs: Vec<RequestId>,
    ahead: FutureBuffer<View, FabMsg>,
    view_timeout: SimDuration,
    batch_size: usize,
}

impl FabReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        FabReplica {
            me,
            q,
            store,
            view: View(0),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            mempool: VecDeque::new(),
            executed_reqs: BTreeMap::new(),
            sm: StateMachine::new(),
            exec_cursor: SeqNum(0),
            in_view_change: false,
            vc_votes: BTreeMap::new(),
            vc_timer: None,
            pending_reqs: Vec::new(),
            ahead: FutureBuffer::default(),
            view_timeout,
            batch_size,
        }
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// The accept quorum: 4f+1 of 5f+1 (`fast_quorum`).
    fn accept_quorum(&self) -> usize {
        self.q.fast_quorum()
    }

    fn propose(&mut self, ctx: &mut Context<'_, FabMsg>) {
        if !self.is_leader() || self.in_view_change {
            return;
        }
        let in_slots: Vec<RequestId> = self
            .slots
            .values()
            .filter(|s| !s.executed)
            .flat_map(|s| s.batch.iter().map(|r| r.request.id))
            .collect();
        let executed = &self.executed_reqs;
        self.mempool
            .retain(|r| !executed.contains_key(&r.request.id) && !in_slots.contains(&r.request.id));
        while !self.mempool.is_empty() {
            let take = self.batch_size.min(self.mempool.len());
            let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
            let seq = self.next_seq;
            self.next_seq = self.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            ctx.charge_crypto(CryptoOp::Sign);
            let view = self.view;
            {
                let slot = self.slots.entry(seq).or_default();
                slot.digest = Some(digest);
                slot.batch = batch.clone();
            }
            ctx.broadcast_replicas(FabMsg::Propose {
                view,
                seq,
                digest,
                batch,
            });
            self.accept(seq, digest, ctx);
        }
    }

    fn accept(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, FabMsg>) {
        let view = self.view;
        let me = self.me;
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.accepted {
                return;
            }
            slot.accepted = true;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(FabMsg::Accept {
            view,
            seq,
            digest,
            from: me,
        });
        self.record_accept(me, seq, digest, ctx);
    }

    fn record_accept(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, FabMsg>,
    ) {
        let quorum = self.accept_quorum();
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.accepts.contains(&from) {
            slot.accepts.push(from);
        }
        if !slot.committed && slot.accepts.len() >= quorum && slot.digest == Some(digest) {
            slot.committed = true;
            ctx.observe(Observation::Commit {
                seq,
                view,
                digest,
                speculative: false,
            });
            self.try_execute(ctx);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, FabMsg>) {
        loop {
            let next = self.exec_cursor.next();
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.committed || slot.executed {
                break;
            }
            let batch = slot.batch.clone();
            let view = self.view;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Execution,
            });
            for signed in &batch {
                let (_, reply) = execute_request(&mut self.sm, &signed.request, view, false, ctx);
                self.executed_reqs.insert(signed.request.id, ());
                self.pending_reqs.retain(|r| *r != signed.request.id);
                ctx.charge_crypto(CryptoOp::Sign);
                ctx.send(
                    NodeId::Client(signed.request.id.client),
                    FabMsg::Reply(reply),
                );
            }
            let slot = self.slots.get_mut(&next).expect("slot exists");
            slot.executed = true;
            self.exec_cursor = next;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Ordering,
            });
            if self.pending_reqs.is_empty() {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
            }
        }
    }

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, FabMsg>) {
        if target <= self.view {
            return;
        }
        if self.in_view_change && self.vc_votes.keys().max().is_some_and(|v| *v >= target) {
            return;
        }
        self.in_view_change = true;
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        let accepted: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
            .slots
            .iter()
            .filter(|(seq, s)| s.accepted && !s.executed && **seq > self.exec_cursor)
            .map(|(seq, s)| (*seq, s.digest.unwrap_or(Digest::ZERO), s.batch.clone()))
            .collect();
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(FabMsg::ViewChange {
            new_view: target,
            accepted: accepted.clone(),
            from: me,
        });
        self.record_vc(me, target, accepted, ctx);
        self.vc_timer = Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        accepted: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, FabMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, accepted));
        let have = votes.len();
        if target > self.view && !self.in_view_change && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        // the new-view quorum is n − f = 4f+1 (the recovery certificate)
        if target.leader_of(self.q.n) == self.me
            && self.in_view_change
            && have >= self.q.n - self.q.f
        {
            let votes = self.vc_votes.get(&target).cloned().unwrap_or_default();
            // a value accepted by ≥ 2f+1 replicas in the VC set may have
            // committed: it must be re-proposed
            let mut counts: BTreeMap<(SeqNum, Digest), (usize, Vec<SignedRequest>)> =
                BTreeMap::new();
            for (_, accepted) in &votes {
                for (seq, digest, batch) in accepted {
                    let e = counts.entry((*seq, *digest)).or_insert((0, batch.clone()));
                    e.0 += 1;
                }
            }
            let mut proposals: BTreeMap<SeqNum, (Digest, Vec<SignedRequest>)> = BTreeMap::new();
            for ((seq, digest), (count, batch)) in counts {
                // prefer the digest with the most accept witnesses per slot
                let dominant = proposals.get(&seq).map(|_| false).unwrap_or(true);
                if dominant || count > self.q.f {
                    proposals.insert(seq, (digest, batch));
                }
            }
            let proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)> =
                proposals.into_iter().map(|(s, (d, b))| (s, d, b)).collect();
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(FabMsg::NewView {
                view: target,
                proposals: proposals.clone(),
            });
            self.install_view(target, proposals, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: View,
        proposals: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, FabMsg>,
    ) {
        self.view = view;
        self.in_view_change = false;
        self.vc_votes.retain(|v, _| *v > view);
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.observe(Observation::NewView { view });
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        let exec_cursor = self.exec_cursor;
        let re_proposed: Vec<SeqNum> = proposals.iter().map(|(s, _, _)| *s).collect();
        let mut stranded: Vec<SignedRequest> = Vec::new();
        self.slots.retain(|seq, slot| {
            if *seq > exec_cursor && !slot.executed && !re_proposed.contains(seq) {
                stranded.append(&mut slot.batch);
                false
            } else {
                true
            }
        });
        for r in stranded {
            if !self.executed_reqs.contains_key(&r.request.id)
                && !self.mempool.iter().any(|m| m.request.id == r.request.id)
            {
                self.mempool.push_back(r);
            }
        }
        let max_seq = proposals
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(exec_cursor);
        for (seq, digest, batch) in proposals {
            if seq <= exec_cursor {
                continue;
            }
            {
                let slot = self.slots.entry(seq).or_default();
                if slot.executed {
                    continue;
                }
                slot.digest = Some(digest);
                slot.batch = batch;
                slot.accepted = false;
                slot.committed = false;
                slot.accepts.clear();
            }
            self.accept(seq, digest, ctx);
        }
        if self.is_leader() {
            self.next_seq = self
                .next_seq
                .max(max_seq.next())
                .max(self.exec_cursor.next());
            self.propose(ctx);
        }
        // replay racing messages
        for (from, msg) in self.ahead.take(self.view) {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<FabMsg> for FabReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, FabMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &FabMsg, ctx: &mut Context<'_, FabMsg>) {
        match msg {
            FabMsg::Request(signed) => {
                ctx.charge_crypto(CryptoOp::Verify);
                if !signed.verify(&self.store) {
                    return;
                }
                if self.executed_reqs.contains_key(&signed.request.id) {
                    if let Some((id, result)) = self.sm.cached_reply(signed.request.id.client) {
                        if *id == signed.request.id {
                            let reply = Reply {
                                request: *id,
                                view: self.view,
                                result: result.clone(),
                                state_digest: self.sm.digest(),
                                speculative: false,
                            };
                            ctx.send(NodeId::Client(id.client), FabMsg::Reply(reply));
                        }
                    }
                    return;
                }
                let in_mempool = self
                    .mempool
                    .iter()
                    .any(|r| r.request.id == signed.request.id);
                if !in_mempool {
                    self.mempool.push_back(signed.clone());
                }
                if self.is_leader() {
                    self.propose(ctx);
                } else {
                    let leader = self.leader();
                    ctx.send(NodeId::Replica(leader), FabMsg::Request(signed.clone()));
                    if !self.pending_reqs.contains(&signed.request.id) {
                        self.pending_reqs.push(signed.request.id);
                    }
                    if self.vc_timer.is_none() && !self.in_view_change {
                        self.vc_timer =
                            Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
                    }
                }
            }
            FabMsg::Propose {
                view,
                seq,
                digest,
                batch,
            } => {
                let m = FabMsg::Propose {
                    view: *view,
                    seq: *seq,
                    digest: *digest,
                    batch: batch.clone(),
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, *view, m)
                {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != *digest {
                    return;
                }
                let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
                self.mempool.retain(|r| !ids.contains(&r.request.id));
                {
                    let slot = self.slots.entry(*seq).or_default();
                    if slot.digest.is_some() && slot.digest != Some(*digest) {
                        return;
                    }
                    slot.digest = Some(*digest);
                    slot.batch = batch.clone();
                }
                self.accept(*seq, *digest, ctx);
            }
            FabMsg::Accept {
                view,
                seq,
                digest,
                from: r,
            } => {
                let m = FabMsg::Accept {
                    view: *view,
                    seq: *seq,
                    digest: *digest,
                    from: *r,
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, *view, m)
                {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_accept(*r, *seq, *digest, ctx);
            }
            FabMsg::ViewChange {
                new_view,
                accepted,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, accepted.clone(), ctx);
            }
            FabMsg::NewView { view, proposals } => {
                if *view >= self.view && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, proposals.clone(), ctx);
                }
            }
            FabMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, FabMsg>) {
        if kind == TimerKind::T2ViewChange && Some(id) == self.vc_timer {
            self.vc_timer = None;
            if self.in_view_change {
                let target = self
                    .vc_votes
                    .keys()
                    .max()
                    .copied()
                    .unwrap_or(self.view)
                    .next();
                self.start_view_change(target, ctx);
            } else if !self.pending_reqs.is_empty() {
                let target = self.view.next();
                self.start_view_change(target, ctx);
            }
        }
    }
}

/// FaB client hooks.
pub struct FabClientProto;

impl ClientProtocol for FabClientProto {
    type Msg = FabMsg;

    fn wrap_request(req: SignedRequest) -> FabMsg {
        FabMsg::Request(req)
    }

    fn unwrap_reply(msg: &FabMsg) -> Option<&Reply> {
        match msg {
            FabMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn submit_policy() -> SubmitPolicy {
        SubmitPolicy::LeaderThenBroadcast
    }

    fn reply_quorum(q: &QuorumRules) -> usize {
        q.weak()
    }
}

/// Run FaB under a scenario (n = 5f+1).
pub fn run(scenario: &Scenario) -> RunOutcome {
    let n = scenario.n(ProtocolId::Fab.min_n(scenario.f));
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);

    let mut sim = scenario.build_engine::<FabMsg>(n);
    for i in 0..n as u32 {
        sim.add_replica(
            i,
            Box::new(FabReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                view_timeout,
                scenario.batch_size,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(
            c,
            Box::new(GenericClient::<FabClientProto>::new(scenario, q, c)),
        );
    }
    run_to_completion(sim, scenario.total_requests(), scenario.max_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, PbftOptions};
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn fault_free_two_phase_commit() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(out.log.max_view(), View(0));
    }

    #[test]
    fn two_phases_are_faster_than_pbft_three() {
        // DC2's trade-off: same network, FaB commits in 2 phases vs PBFT's 3
        let s = Scenario::small(1).with_load(1, 30);
        let fab = run(&s);
        let pbft = pbft::run(&s, &PbftOptions::default());
        let mean = |o: &RunOutcome| {
            let l = o.log.client_latencies();
            l.iter().map(|(_, d)| d.0).sum::<u64>() as f64 / l.len() as f64
        };
        assert!(
            mean(&fab) < mean(&pbft),
            "FaB (2 phases) must beat PBFT (3 phases): {} vs {}",
            mean(&fab),
            mean(&pbft)
        );
        // but it pays 2f more replicas
        assert_eq!(
            fab.metrics.nodes().filter(|(n, _)| n.is_replica()).count(),
            6
        );
    }

    #[test]
    fn tolerates_f_crashes() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20, "4f+1 accepts reachable with 5f alive");
    }

    #[test]
    fn leader_crash_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 15);
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
