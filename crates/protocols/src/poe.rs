//! PoE — Proof-of-Execution (Gupta et al. '21): speculative phase
//! reduction (design choice 7).
//!
//! Like SBFT, PoE is collector-based and linear; unlike SBFT's fast path it
//! does **not** wait for all `n` shares. The collector certifies a proposal
//! with only `2f+1` support shares and replicas **execute speculatively**
//! on the certificate, optimistically assuming either all signers were
//! correct or at least `f+1` correct replicas saw the certificate. Clients
//! wait for `2f+1` matching (speculative) replies.
//!
//! The gamble can fail: if fewer than `f+1` correct replicas received the
//! certificate and none of them makes it into the view-change quorum, the
//! new view re-proposes a *different* assignment for that sequence number —
//! replicas that executed the dead assignment **roll back** (the undo-log
//! machinery of `bft-state`) and re-execute. The Byzantine leader variant
//! [`PoeBehavior::WithholdCertify`] manufactures exactly this scenario, and
//! the tests assert both the rollback and the preserved cross-replica
//! safety.

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

/// PoE messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum PoeMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client (speculative).
    Reply(Reply),
    /// Leader → replicas.
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
    /// Replica → collector: support share.
    Support {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas: 2f+1-share certificate — execute
    /// speculatively.
    Certify {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Shares combined (≥ 2f+1).
        shares: usize,
    },
    /// Replica → all: abandon the view; carries the certified prefix this
    /// replica knows.
    ViewChange {
        /// Target view.
        new_view: View,
        /// Certified slots: (seq, digest, batch).
        certified: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals (certified entries survive; gaps are re-proposed
        /// fresh).
        assignments: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
}

impl WireSize for PoeMsg {
    fn wire_size(&self) -> usize {
        match self {
            PoeMsg::Request(r) => 1 + r.wire_size(),
            PoeMsg::Reply(r) => 1 + r.wire_size(),
            PoeMsg::Propose { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 72,
            PoeMsg::Support { .. } => 1 + 16 + 32 + 4 + 72,
            PoeMsg::Certify { .. } => 1 + 16 + 32 + 96,
            PoeMsg::ViewChange { certified, .. } => {
                1 + 8
                    + certified
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
            PoeMsg::NewView { assignments, .. } => {
                1 + 8
                    + assignments
                        .iter()
                        .map(|(_, _, b)| 40 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
        }
    }
}

/// Byzantine leader behaviors for PoE experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoeBehavior {
    /// Follows the protocol.
    Honest,
    /// When certifying the slot with this sequence number, send the
    /// certificate to a single replica only, then fall silent — the
    /// rollback-manufacturing adversary.
    WithholdCertify {
        /// The victimized slot.
        seq: u64,
        /// The only replica that receives the certificate.
        sole_recipient: ReplicaId,
    },
}

#[derive(Debug, Clone, Default)]
struct PoeSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    supports: Vec<ReplicaId>,
    certified: bool,
    executed: bool,
    /// First state-machine sequence number this slot's batch occupies
    /// (set at execution; needed to aim rollbacks).
    sm_start: Option<SeqNum>,
}

/// A PoE replica.
pub struct PoeReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    behavior: PoeBehavior,
    view: View,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, PoeSlot>,
    known: BTreeMap<RequestId, SignedRequest>,
    executed_reqs: BTreeMap<RequestId, ()>,
    sm: StateMachine,
    exec_cursor: SeqNum,
    in_view_change: bool,
    vc_votes: crate::common::VcVotes,
    vc_timer: Option<TimerId>,
    pending_reqs: Vec<RequestId>,
    ahead: FutureBuffer<View, PoeMsg>,
    /// The latest new-view installed, kept to bring stale replicas up to
    /// date when their view-change messages reveal they are behind.
    last_new_view: Option<(View, Vec<crate::common::BatchEntry>)>,
    view_timeout: SimDuration,
    batch_size: usize,
    silenced: bool,
    mempool: VecDeque<SignedRequest>,
}

impl PoeReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        behavior: PoeBehavior,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        PoeReplica {
            me,
            q,
            store,
            behavior,
            view: View(0),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            known: BTreeMap::new(),
            executed_reqs: BTreeMap::new(),
            sm: StateMachine::new(),
            exec_cursor: SeqNum(0),
            in_view_change: false,
            vc_votes: BTreeMap::new(),
            vc_timer: None,
            pending_reqs: Vec::new(),
            ahead: FutureBuffer::default(),
            last_new_view: None,
            view_timeout,
            batch_size,
            silenced: false,
            mempool: VecDeque::new(),
        }
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn propose(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        if !self.is_leader() || self.in_view_change || self.silenced {
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
            ctx.broadcast_replicas(PoeMsg::Propose {
                view,
                seq,
                digest,
                batch,
            });
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
            self.record_support(self.me, seq, digest, ctx);
        }
    }

    fn record_support(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, PoeMsg>,
    ) {
        if !self.is_leader() || self.silenced {
            return;
        }
        let quorum = self.q.quorum();
        let view = self.view;
        let behavior = self.behavior;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest != Some(digest) || slot.certified {
            return;
        }
        if !slot.supports.contains(&from) {
            slot.supports.push(from);
        }
        if slot.supports.len() >= quorum {
            slot.certified = true;
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            let shares = slot.supports.len();
            match behavior {
                PoeBehavior::WithholdCertify {
                    seq: trigger,
                    sole_recipient,
                } if seq.0 == trigger => {
                    // adversary: one replica gets the certificate, then
                    // silence — engineering the rollback scenario
                    ctx.observe(Observation::Marker {
                        label: "withheld-certify",
                    });
                    ctx.send(
                        NodeId::Replica(sole_recipient),
                        PoeMsg::Certify {
                            view,
                            seq,
                            digest,
                            shares,
                        },
                    );
                    self.silenced = true;
                }
                _ => {
                    ctx.broadcast_replicas(PoeMsg::Certify {
                        view,
                        seq,
                        digest,
                        shares,
                    });
                    self.on_certify(seq, digest, ctx);
                }
            }
        }
    }

    fn on_certify(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, PoeMsg>) {
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.digest.is_none() {
                slot.digest = Some(digest);
            }
            slot.certified = true;
        }
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        loop {
            let next = self.exec_cursor.next();
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.certified
                || slot.executed
                || slot.batch.is_empty() && slot.digest.is_some() && !slot.batch.is_empty()
            {
                break;
            }
            if !slot.certified || slot.executed {
                break;
            }
            let batch = slot.batch.clone();
            let digest = slot.digest.unwrap_or(Digest::ZERO);
            let view = self.view;
            ctx.observe(Observation::StageEnter {
                stage: Stage::Execution,
            });
            let sm_start = self.sm.last_executed().next();
            for signed in &batch {
                let (_, reply) = execute_request(&mut self.sm, &signed.request, view, true, ctx);
                self.executed_reqs.insert(signed.request.id, ());
                self.pending_reqs.retain(|r| *r != signed.request.id);
                ctx.charge_crypto(CryptoOp::MacGen);
                ctx.send(
                    NodeId::Client(signed.request.id.client),
                    PoeMsg::Reply(reply),
                );
            }
            ctx.observe(Observation::Commit {
                seq: next,
                view,
                digest,
                speculative: true,
            });
            let slot = self.slots.get_mut(&next).expect("slot exists");
            slot.executed = true;
            slot.sm_start = Some(sm_start);
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

    // ---- view change with rollback ----------------------------------------

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, PoeMsg>) {
        if target <= self.view {
            return;
        }
        if self.in_view_change && self.vc_votes.keys().max().is_some_and(|v| *v >= target) {
            return; // already campaigning for this view or higher
        }
        self.in_view_change = true;
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        let certified: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
            .slots
            .iter()
            .filter(|(_, s)| s.certified)
            .map(|(seq, s)| (*seq, s.digest.unwrap_or(Digest::ZERO), s.batch.clone()))
            .collect();
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(PoeMsg::ViewChange {
            new_view: target,
            certified: certified.clone(),
            from: me,
        });
        self.record_vc(me, target, certified, ctx);
        self.vc_timer = Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        certified: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PoeMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, certified));
        let have = votes.len();
        if target > self.view && !self.in_view_change && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me && self.in_view_change && have >= self.q.quorum() {
            // union of certified entries; fresh assignments for known
            // requests not covered
            let votes = self.vc_votes.get(&target).cloned().unwrap_or_default();
            let mut assignments: BTreeMap<SeqNum, (Digest, Vec<SignedRequest>)> = BTreeMap::new();
            for (_, certified) in &votes {
                for (seq, digest, batch) in certified {
                    assignments.entry(*seq).or_insert((*digest, batch.clone()));
                }
            }
            // re-assign uncovered known requests to fresh slots after the max
            let mut max_seq = assignments.keys().max().copied().unwrap_or(SeqNum(0));
            let covered: Vec<RequestId> = assignments
                .values()
                .flat_map(|(_, b)| b.iter().map(|r| r.request.id))
                .collect();
            let uncovered: Vec<SignedRequest> = self
                .known
                .values()
                .filter(|r| !covered.contains(&r.request.id))
                .cloned()
                .collect();
            for chunk in uncovered.chunks(self.batch_size.max(1)) {
                max_seq = max_seq.next();
                let batch = chunk.to_vec();
                let digest = digest_of(&batch);
                assignments.insert(max_seq, (digest, batch));
            }
            // compact the assignment sequence so it is gap-free from 1
            let compacted: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = assignments
                .into_values()
                .enumerate()
                .map(|(i, (d, b))| (SeqNum(i as u64 + 1), d, b))
                .collect();
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(PoeMsg::NewView {
                view: target,
                assignments: compacted.clone(),
            });
            self.install_view(target, compacted, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: View,
        assignments: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PoeMsg>,
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
        self.last_new_view = Some((view, assignments.clone()));

        // rollback check: find the first executed slot whose assignment in
        // the new view differs from what we executed
        let mut rollback_slot: Option<SeqNum> = None;
        for (seq, digest, _) in &assignments {
            if let Some(slot) = self.slots.get(seq) {
                if slot.executed && slot.digest != Some(*digest) {
                    rollback_slot = Some(*seq);
                    break;
                }
            }
        }
        // also: any executed slot beyond the assignment range dies
        let max_assigned = assignments
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(SeqNum(0));
        if rollback_slot.is_none() && self.exec_cursor > max_assigned {
            rollback_slot = Some(max_assigned.next());
        }
        if let Some(first_bad) = rollback_slot {
            if let Some(sm_start) = self.slots.get(&first_bad).and_then(|s| s.sm_start) {
                let undone = self.sm.rollback_to(sm_start);
                if undone > 0 {
                    ctx.observe(Observation::Rollback { from_seq: sm_start });
                }
                // forget execution bookkeeping for the undone slots
                let dead: Vec<RequestId> = self
                    .slots
                    .range(first_bad..)
                    .flat_map(|(_, s)| s.batch.iter().map(|r| r.request.id))
                    .collect();
                for id in dead {
                    self.executed_reqs.remove(&id);
                }
                self.exec_cursor = first_bad.prev();
            }
        }

        // adopt assignments
        self.slots.retain(|seq, _| *seq <= self.exec_cursor);
        for (seq, digest, batch) in &assignments {
            if *seq <= self.exec_cursor {
                continue;
            }
            for r in batch {
                self.known.entry(r.request.id).or_insert_with(|| r.clone());
            }
            let slot = self.slots.entry(*seq).or_default();
            slot.digest = Some(*digest);
            slot.batch = batch.clone();
            slot.certified = true; // carried by the new-view quorum
            slot.executed = false;
            slot.supports.clear();
        }
        self.next_seq = SeqNum(max_assigned.0.max(self.exec_cursor.0) + 1);
        self.try_execute(ctx);
        if self.is_leader() {
            self.propose(ctx);
        }
        // replay future messages
        for (from, msg) in self.ahead.take(self.view) {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<PoeMsg> for PoeReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &PoeMsg, ctx: &mut Context<'_, PoeMsg>) {
        match msg {
            PoeMsg::Request(signed) => {
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
                                speculative: true,
                            };
                            ctx.send(NodeId::Client(id.client), PoeMsg::Reply(reply));
                        }
                    }
                    return;
                }
                self.known.insert(signed.request.id, signed.clone());
                if self.is_leader() {
                    if !self
                        .mempool
                        .iter()
                        .any(|r| r.request.id == signed.request.id)
                    {
                        self.mempool.push_back(signed.clone());
                    }
                    self.propose(ctx);
                } else {
                    let leader = self.leader();
                    ctx.send(NodeId::Replica(leader), PoeMsg::Request(signed.clone()));
                    if !self.pending_reqs.contains(&signed.request.id) {
                        self.pending_reqs.push(signed.request.id);
                    }
                    if self.vc_timer.is_none() && !self.in_view_change {
                        self.vc_timer =
                            Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
                    }
                }
            }
            PoeMsg::Propose {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                let m = PoeMsg::Propose {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                if from != NodeId::Replica(self.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != digest {
                    return;
                }
                for r in batch.iter() {
                    self.known.entry(r.request.id).or_insert_with(|| r.clone());
                }
                {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.digest.is_some() && slot.digest != Some(digest) {
                        return;
                    }
                    slot.digest = Some(digest);
                    slot.batch = batch.clone();
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                let leader = self.leader();
                let me = self.me;
                ctx.send(
                    NodeId::Replica(leader),
                    PoeMsg::Support {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
            PoeMsg::Support {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                let m = PoeMsg::Support {
                    view,
                    seq,
                    digest,
                    from: r,
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                self.record_support(r, seq, digest, ctx);
            }
            PoeMsg::Certify {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                let m = PoeMsg::Certify {
                    view,
                    seq,
                    digest,
                    shares,
                };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                if shares < self.q.quorum() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.on_certify(seq, digest, ctx);
            }
            PoeMsg::ViewChange {
                new_view,
                certified,
                from: r,
            } => {
                let (new_view, r) = (*new_view, *r);
                ctx.charge_crypto(CryptoOp::Verify);
                if new_view <= self.view {
                    // the sender is behind: bring it up to date
                    if let Some((v, assignments)) = self.last_new_view.clone() {
                        ctx.send(
                            NodeId::Replica(r),
                            PoeMsg::NewView {
                                view: v,
                                assignments,
                            },
                        );
                    }
                    return;
                }
                self.record_vc(r, new_view, certified.clone(), ctx);
            }
            PoeMsg::NewView { view, assignments } => {
                if *view >= self.view && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, assignments.clone(), ctx);
                }
            }
            PoeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PoeMsg>) {
        if kind == TimerKind::T2ViewChange && Some(id) == self.vc_timer {
            self.vc_timer = None;
            if self.in_view_change {
                // the campaign failed: escalate to the next view
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

/// PoE client hooks: 2f+1 matching speculative replies.
pub struct PoeClientProto;

impl ClientProtocol for PoeClientProto {
    type Msg = PoeMsg;

    fn wrap_request(req: SignedRequest) -> PoeMsg {
        PoeMsg::Request(req)
    }

    fn unwrap_reply(msg: &PoeMsg) -> Option<&Reply> {
        match msg {
            PoeMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn submit_policy() -> SubmitPolicy {
        SubmitPolicy::LeaderThenBroadcast
    }

    fn reply_quorum(q: &QuorumRules) -> usize {
        q.quorum() // 2f+1
    }
}

/// Run PoE under a scenario.
pub fn run(scenario: &Scenario, behaviors: &[(ReplicaId, PoeBehavior)]) -> RunOutcome {
    let n = scenario.n(ProtocolId::Poe.min_n(scenario.f));
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);

    let mut sim = scenario.build_engine::<PoeMsg>(n);
    for i in 0..n as u32 {
        let behavior = behaviors
            .iter()
            .find(|(r, _)| *r == ReplicaId(i))
            .map(|(_, b)| *b)
            .unwrap_or(PoeBehavior::Honest);
        sim.add_replica(
            i,
            Box::new(PoeReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                behavior,
                view_timeout,
                scenario.batch_size,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(
            c,
            Box::new(GenericClient::<PoeClientProto>::new(scenario, q, c)),
        );
    }
    run_to_completion(sim, scenario.total_requests(), scenario.max_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn fault_free_speculative_commits() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s, &[]);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        let spec = out.log.count(|e| {
            matches!(
                e.obs,
                Observation::Commit {
                    speculative: true,
                    ..
                }
            )
        });
        assert!(spec >= 30 * 4 - 8, "replicas commit speculatively");
        assert_eq!(
            out.log
                .count(|e| matches!(e.obs, Observation::Rollback { .. })),
            0
        );
    }

    #[test]
    fn leader_crash_recovers() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s, &[]);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn withheld_certificate_causes_rollback_but_stays_safe() {
        // n = 7 (f = 2). The Byzantine leader certifies slot 3 to replica 1
        // only, then goes silent. Replica 1 executes speculatively; the view
        // change may proceed without replica 1's certificate (we partition
        // it briefly), so the new view assigns slot 3 differently — replica
        // 1 must roll back. Safety must hold throughout.
        let peers: Vec<NodeId> = [0u32, 2, 3, 4, 5, 6]
            .iter()
            .map(|i| NodeId::replica(*i))
            .collect();
        let s = Scenario::small(2)
            .with_load(2, 10)
            .with_faults(FaultPlan::none().isolate(
                NodeId::replica(1),
                peers,
                SimTime(1_000_000),
                SimTime(120_000_000),
            ));
        let out = run(
            &s,
            &[(
                ReplicaId(0),
                PoeBehavior::WithholdCertify {
                    seq: 3,
                    sole_recipient: ReplicaId(1),
                },
            )],
        );
        // replica 0 is Byzantine; replica 1's speculative execution is the
        // one under test and it must reconcile (rollback) — the auditor
        // treats it as correct
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.marker_count("withheld-certify") >= 1);
        assert_eq!(accepted(&out), 20, "liveness despite the attack");
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s, &[]);
        let b = run(&s, &[]);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
