//! CheapBFT-style resource-efficient BFT (Kapitza et al. '12): design
//! choice 5, *optimistic replica reduction*.
//!
//! Of the `3f+1` replicas, only **`2f+1` active** replicas order and
//! execute requests during normal operation, optimistically assuming all of
//! them are correct (assumption a2): every agreement quorum is *all* active
//! replicas. The remaining `f` **passive** replicas receive state updates
//! only, applying a batch once `f+1` matching update digests vouch for it.
//!
//! When an active replica stops responding (the agreement round times out,
//! τ3), the protocol **transitions**: every replica becomes active and the
//! system falls back to a pessimistic PBFT-style mode (two quadratic rounds
//! with 2f+1 quorums among all `n`), trading the saved resources back for
//! resilience — exactly the trade-off dimension E1/P1 describes.

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
    execute_request, run_to_completion, ClientProtocol, GenericClient, QuorumTracker, Scenario,
    SignedRequest, SubmitPolicy,
};
use crate::registry::ProtocolId;

/// CheapBFT messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum CheapMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → active replicas.
    PrePrepare {
        /// Mode epoch (bumps on transition).
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// Active → active: agreement vote.
    Agree {
        /// Epoch.
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// Fallback second round (pessimistic mode only).
    Confirm {
        /// Epoch.
        epoch: u32,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Voter.
        from: ReplicaId,
    },
    /// Active → passive: committed batch shipment.
    Update {
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
        /// Sender.
        from: ReplicaId,
    },
    /// Any replica → all: demand the pessimistic fallback.
    Transition {
        /// Sender.
        from: ReplicaId,
    },
}

impl WireSize for CheapMsg {
    fn wire_size(&self) -> usize {
        match self {
            CheapMsg::Request(r) => 1 + r.wire_size(),
            CheapMsg::Reply(r) => 1 + r.wire_size(),
            CheapMsg::PrePrepare { batch, .. } => 1 + 4 + 8 + 32 + batch.wire_size() + 64,
            CheapMsg::Agree { .. } | CheapMsg::Confirm { .. } => 1 + 4 + 8 + 32 + 4 + 64,
            CheapMsg::Update { batch, .. } => 1 + 8 + 32 + batch.wire_size() + 4 + 32,
            CheapMsg::Transition { .. } => 1 + 4 + 64,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CheapSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    agrees: Vec<ReplicaId>,
    confirms: Vec<ReplicaId>,
    agreed: bool,
    committed: bool,
    executed: bool,
    sent_confirm: bool,
    /// τ3 agreement timer (leader only).
    t3: Option<TimerId>,
}

/// A CheapBFT replica.
pub struct CheapReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    /// 0 = optimistic (2f+1 actives), 1+ = pessimistic fallback.
    epoch: u32,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, CheapSlot>,
    mempool: VecDeque<SignedRequest>,
    executed_reqs: BTreeMap<RequestId, ()>,
    sm: StateMachine,
    exec_cursor: SeqNum,
    /// Passive: update attestations per (seq, digest).
    update_votes: QuorumTracker<(SeqNum, Digest)>,
    /// Pending updates (batches) awaiting enough attestations.
    update_batches: BTreeMap<(SeqNum, Digest), Vec<SignedRequest>>,
    transition_votes: Vec<ReplicaId>,
    t3_timeout: SimDuration,
    batch_size: usize,
}

impl CheapReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        t3_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        CheapReplica {
            me,
            q,
            store,
            epoch: 0,
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            mempool: VecDeque::new(),
            executed_reqs: BTreeMap::new(),
            sm: StateMachine::new(),
            exec_cursor: SeqNum(0),
            update_votes: QuorumTracker::new(),
            update_batches: BTreeMap::new(),
            transition_votes: Vec::new(),
            t3_timeout,
            batch_size,
        }
    }

    /// Actives in the optimistic epoch: replicas `0 .. 2f+1`. In fallback
    /// epochs, everyone.
    fn active_count(&self) -> usize {
        if self.epoch == 0 {
            2 * self.q.f + 1
        } else {
            self.q.n
        }
    }

    fn is_active(&self) -> bool {
        (self.me.0 as usize) < self.active_count()
    }

    /// Agreement quorum: all actives in the optimistic epoch (assumption
    /// a2), 2f+1 in the fallback.
    fn agree_quorum(&self) -> usize {
        if self.epoch == 0 {
            self.active_count()
        } else {
            self.q.quorum()
        }
    }

    fn leader(&self) -> ReplicaId {
        ReplicaId(0)
    }

    fn is_leader(&self) -> bool {
        self.me == self.leader()
    }

    fn actives(&self) -> Vec<NodeId> {
        (0..self.active_count() as u32)
            .map(NodeId::replica)
            .collect()
    }

    fn passives(&self) -> Vec<NodeId> {
        (self.active_count() as u32..self.q.n as u32)
            .map(NodeId::replica)
            .collect()
    }

    fn propose(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        if !self.is_leader() {
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
            let epoch = self.epoch;
            {
                let slot = self.slots.entry(seq).or_default();
                slot.digest = Some(digest);
                slot.batch = batch.clone();
            }
            let actives: Vec<NodeId> = self
                .actives()
                .into_iter()
                .filter(|n| *n != NodeId::Replica(self.me))
                .collect();
            ctx.multicast(
                actives,
                CheapMsg::PrePrepare {
                    epoch,
                    seq,
                    digest,
                    batch,
                },
            );
            // arm τ3: if the agreement round stalls, transition
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.slots.entry(seq).or_default().t3 = Some(t3);
            self.send_agree(seq, digest, ctx);
        }
    }

    fn send_agree(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let epoch = self.epoch;
        let me = self.me;
        ctx.charge_crypto(CryptoOp::Sign);
        let actives: Vec<NodeId> = self
            .actives()
            .into_iter()
            .filter(|n| *n != NodeId::Replica(me))
            .collect();
        ctx.multicast(
            actives,
            CheapMsg::Agree {
                epoch,
                seq,
                digest,
                from: me,
            },
        );
        self.record_agree(me, seq, digest, ctx);
    }

    fn record_agree(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let quorum = self.agree_quorum();
        let optimistic = self.epoch == 0;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.agrees.contains(&from) {
            slot.agrees.push(from);
        }
        if !slot.agreed && slot.agrees.len() >= quorum && slot.digest == Some(digest) {
            slot.agreed = true;
            if let Some(t) = slot.t3.take() {
                ctx.cancel_timer(t);
            }
            if optimistic {
                // all actives agreed: commit directly (the certificate is
                // complete by assumption a2)
                self.commit_slot(seq, digest, ctx);
            } else {
                // pessimistic fallback: a second round is needed
                self.send_confirm(seq, digest, ctx);
            }
        }
    }

    fn send_confirm(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        let epoch = self.epoch;
        let me = self.me;
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.sent_confirm {
                return;
            }
            slot.sent_confirm = true;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(CheapMsg::Confirm {
            epoch,
            seq,
            digest,
            from: me,
        });
        self.record_confirm(me, seq, digest, ctx);
    }

    fn record_confirm(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        let quorum = self.q.quorum();
        let slot = self.slots.entry(seq).or_default();
        if !slot.confirms.contains(&from) {
            slot.confirms.push(from);
        }
        if !slot.committed && slot.confirms.len() >= quorum && slot.digest == Some(digest) {
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn commit_slot(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, CheapMsg>) {
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.committed {
                return;
            }
            slot.committed = true;
        }
        ctx.observe(Observation::Commit {
            seq,
            view: View(self.epoch as u64),
            digest,
            speculative: false,
        });
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        loop {
            let next = self.exec_cursor.next();
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.committed || slot.executed {
                break;
            }
            let batch = slot.batch.clone();
            let digest = slot.digest.unwrap_or(Digest::ZERO);
            ctx.observe(Observation::StageEnter {
                stage: Stage::Execution,
            });
            for signed in &batch {
                let view = View(self.epoch as u64);
                let (_, reply) = execute_request(&mut self.sm, &signed.request, view, false, ctx);
                self.executed_reqs.insert(signed.request.id, ());
                // passives apply state but do not serve clients
                if self.is_active() {
                    ctx.charge_crypto(CryptoOp::Sign);
                    ctx.send(
                        NodeId::Client(signed.request.id.client),
                        CheapMsg::Reply(reply),
                    );
                }
            }
            let slot = self.slots.get_mut(&next).expect("slot exists");
            slot.executed = true;
            self.exec_cursor = next;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Ordering,
            });
            // ship the batch to passives (optimistic epoch only; in the
            // fallback everyone is active)
            if self.epoch == 0 && self.is_active() {
                let me = self.me;
                let passives = self.passives();
                ctx.multicast(
                    passives,
                    CheapMsg::Update {
                        seq: next,
                        digest,
                        batch,
                        from: me,
                    },
                );
            }
        }
    }

    fn on_update(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        ctx: &mut Context<'_, CheapMsg>,
    ) {
        if self.is_active() {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        self.update_batches.entry((seq, digest)).or_insert(batch);
        self.update_votes.vote((seq, digest), from);
        // f+1 matching updates guarantee one correct active vouches
        if self.update_votes.count(&(seq, digest)) >= self.q.weak() {
            if let Some(batch) = self.update_batches.get(&(seq, digest)).cloned() {
                let slot = self.slots.entry(seq).or_default();
                if slot.digest.is_none() {
                    slot.digest = Some(digest);
                    slot.batch = batch;
                }
                self.commit_slot(seq, digest, ctx);
            }
        }
    }

    fn demand_transition(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        if self.epoch > 0 {
            return;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(CheapMsg::Transition { from: me });
        self.record_transition(me, ctx);
    }

    fn record_transition(&mut self, from: ReplicaId, ctx: &mut Context<'_, CheapMsg>) {
        if self.epoch > 0 {
            return;
        }
        if !self.transition_votes.contains(&from) {
            self.transition_votes.push(from);
        }
        // echo: one demand is enough to join the campaign (in CheapBFT the
        // demand carries a proof of the broken agreement round; the echo
        // models the resulting cascade)
        let me = self.me;
        if from != me && !self.transition_votes.contains(&me) {
            self.transition_votes.push(me);
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(CheapMsg::Transition { from: me });
        }
        if self.transition_votes.len() >= self.q.weak() {
            // fall back: everyone becomes active, quorums drop to 2f+1,
            // a second (confirm) round is added
            self.epoch = 1;
            ctx.observe(Observation::Marker {
                label: "transition-to-fallback",
            });
            ctx.observe(Observation::NewView { view: View(1) });
            // restart agreement for all unexecuted slots under fallback
            // rules; the leader re-sends full pre-prepares because former
            // passives have never seen these batches
            let unfinished: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
                .slots
                .iter()
                .filter(|(_, s)| !s.executed && s.digest.is_some())
                .map(|(seq, s)| (*seq, s.digest.unwrap(), s.batch.clone()))
                .collect();
            for (seq, digest, batch) in unfinished {
                {
                    let slot = self.slots.entry(seq).or_default();
                    slot.agreed = false;
                    slot.committed = false;
                    slot.sent_confirm = false;
                    slot.agrees.clear();
                    slot.confirms.clear();
                }
                if self.is_leader() {
                    let epoch = self.epoch;
                    ctx.charge_crypto(CryptoOp::Sign);
                    ctx.broadcast_replicas(CheapMsg::PrePrepare {
                        epoch,
                        seq,
                        digest,
                        batch,
                    });
                    self.send_agree(seq, digest, ctx);
                }
            }
            if self.is_leader() {
                self.propose(ctx);
            }
        }
    }
}

impl Actor<CheapMsg> for CheapReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, CheapMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &CheapMsg, ctx: &mut Context<'_, CheapMsg>) {
        match msg {
            CheapMsg::Request(signed) => {
                ctx.charge_crypto(CryptoOp::Verify);
                if !signed.verify(&self.store) {
                    return;
                }
                if self.executed_reqs.contains_key(&signed.request.id) {
                    if let Some((id, result)) = self.sm.cached_reply(signed.request.id.client) {
                        if *id == signed.request.id {
                            let reply = Reply {
                                request: *id,
                                view: View(self.epoch as u64),
                                result: result.clone(),
                                state_digest: self.sm.digest(),
                                speculative: false,
                            };
                            ctx.send(NodeId::Client(id.client), CheapMsg::Reply(reply));
                        }
                    }
                    return;
                }
                if !self
                    .mempool
                    .iter()
                    .any(|r| r.request.id == signed.request.id)
                {
                    self.mempool.push_back(signed.clone());
                }
                if self.is_leader() {
                    self.propose(ctx);
                } else {
                    ctx.send(
                        NodeId::Replica(self.leader()),
                        CheapMsg::Request(signed.clone()),
                    );
                }
            }
            CheapMsg::PrePrepare {
                epoch,
                seq,
                digest,
                batch,
            } => {
                if *epoch != self.epoch || !self.is_active() {
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
                self.send_agree(*seq, *digest, ctx);
            }
            CheapMsg::Agree {
                epoch,
                seq,
                digest,
                from: r,
            } => {
                if *epoch != self.epoch || !self.is_active() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_agree(*r, *seq, *digest, ctx);
            }
            CheapMsg::Confirm {
                epoch,
                seq,
                digest,
                from: r,
            } => {
                if *epoch != self.epoch {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_confirm(*r, *seq, *digest, ctx);
            }
            CheapMsg::Update {
                seq,
                digest,
                batch,
                from: r,
            } => {
                self.on_update(*r, *seq, *digest, batch.clone(), ctx);
            }
            CheapMsg::Transition { from: r } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_transition(*r, ctx);
            }
            CheapMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, CheapMsg>) {
        if kind == TimerKind::T3BackupFailure {
            let seq = self
                .slots
                .iter()
                .find(|(_, s)| s.t3 == Some(id))
                .map(|(seq, _)| *seq);
            if let Some(seq) = seq {
                if let Some(slot) = self.slots.get_mut(&seq) {
                    slot.t3 = None;
                    if !slot.agreed {
                        // an active replica is unresponsive: the optimistic
                        // assumption failed
                        self.demand_transition(ctx);
                    }
                }
            }
        }
    }
}

/// CheapBFT client hooks.
pub struct CheapClientProto;

impl ClientProtocol for CheapClientProto {
    type Msg = CheapMsg;

    fn wrap_request(req: SignedRequest) -> CheapMsg {
        CheapMsg::Request(req)
    }

    fn unwrap_reply(msg: &CheapMsg) -> Option<&Reply> {
        match msg {
            CheapMsg::Reply(r) => Some(r),
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

/// Run CheapBFT under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let n = scenario.n(ProtocolId::Cheap.min_n(scenario.f));
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let t3 = SimDuration(scenario.network.delta.0 * 2);

    let mut sim = scenario.build_engine::<CheapMsg>(n);
    for i in 0..n as u32 {
        sim.add_replica(
            i,
            Box::new(CheapReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                t3,
                scenario.batch_size,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(
            c,
            Box::new(GenericClient::<CheapClientProto>::new(scenario, q, c)),
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
    fn fault_free_runs_with_active_subset() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(out.log.marker_count("transition-to-fallback"), 0);
        // the passive replica (r3) sends almost nothing
        let passive_sent = out.metrics.node(NodeId::replica(3)).msgs_sent;
        let active_sent = out.metrics.node(NodeId::replica(1)).msgs_sent;
        assert!(
            passive_sent * 10 < active_sent,
            "passive {passive_sent} vs active {active_sent}"
        );
    }

    #[test]
    fn cheaper_than_pbft_when_optimism_holds() {
        let s = Scenario::small(1).with_load(1, 30);
        let cheap = run(&s);
        let pbft = pbft::run(&s, &PbftOptions::default());
        let msgs = |o: &RunOutcome| o.metrics.replica_msgs_sent();
        assert!(
            msgs(&cheap) < msgs(&pbft),
            "2f+1 actives must beat 3f+1 all-active: {} vs {}",
            msgs(&cheap),
            msgs(&pbft)
        );
    }

    #[test]
    fn active_crash_triggers_transition_and_liveness_survives() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(1)]).assert_safe(&out.log);
        assert!(
            out.log.marker_count("transition-to-fallback") >= 1,
            "τ3 must fire"
        );
        assert_eq!(accepted(&out), 20, "fallback mode completes the workload");
    }

    #[test]
    fn passive_replica_state_converges() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s);
        // the passive replica executed every batch (via updates) and its
        // state digests agree with actives' — the auditor checks exactly
        // this across Execute observations
        SafetyAuditor::all_correct().assert_safe(&out.log);
        let passive_execs = out.log.count(|e| {
            e.node == NodeId::replica(3) && matches!(e.obs, Observation::Execute { .. })
        });
        assert_eq!(passive_execs, 20);
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
