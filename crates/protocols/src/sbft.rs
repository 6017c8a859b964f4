//! SBFT — a scalable, collector-based BFT protocol (Gueta et al. '19).
//!
//! The outcome of design choices 1 and 6 applied to PBFT:
//!
//! * **Linearization (DC1)** — every all-to-all phase is replaced by two
//!   linear phases around a *collector* (the leader): replicas send
//!   threshold-signature *shares* to the collector, which combines them
//!   into one constant-size certificate and broadcasts it. Message
//!   complexity per phase drops from O(n²) to O(n).
//! * **Optimistic phase reduction (DC6)** — the collector optimistically
//!   waits (timer τ3) for shares from **all** `n` replicas. If they all
//!   arrive, a single certificate proves that *every* replica accepted the
//!   proposal, so the second agreement round is unnecessary — replicas
//!   commit on receipt (*fast path*). If τ3 fires with only `2f+1` shares,
//!   SBFT falls back to the *slow path*: a PBFT-equivalent second round
//!   (two more linear phases).
//! * **Single-reply clients (P6)** — replicas send execution shares to the
//!   collector, which hands the client one threshold-signed reply; the
//!   client needs no reply quorum at all.
//!
//! View changes follow the PBFT pattern (signed view-change messages carry
//! the shares each replica produced, so any certified-but-undelivered
//! decision is re-proposed).

use std::collections::{BTreeMap, BTreeSet};
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

/// SBFT protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum SbftMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Collector → client: single threshold-backed reply.
    Reply(Reply),
    /// Leader → replicas: proposal.
    PrePrepare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// Replica → collector: threshold share over the proposal.
    SignShare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest signed.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas, fast path: certificate carrying all `n`
    /// shares — commit directly.
    FullCommitProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Number of shares combined (n on the fast path).
        shares: usize,
    },
    /// Collector → replicas, slow path: certificate with 2f+1 shares —
    /// equivalent to "prepared"; a second round follows.
    CommitProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Shares combined (≥ 2f+1).
        shares: usize,
    },
    /// Replica → collector, slow path second round.
    CommitShare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas, slow path: final commit certificate.
    FullExecuteProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
    },
    /// Replica → collector: execution share (state digest attestation).
    ExecShare {
        /// Sequence number executed.
        seq: SeqNum,
        /// Request executed (per request in the batch).
        request: RequestId,
        /// Post-state digest.
        state_digest: Digest,
        /// The reply content (the collector forwards one).
        reply: Reply,
        /// Signer.
        from: ReplicaId,
    },
    /// Replica → all: abandon the view, carrying signed-but-unexecuted
    /// slots for re-proposal.
    ViewChange {
        /// Target view.
        new_view: View,
        /// (seq, digest, batch) this replica produced shares for.
        signed_slots: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install view with re-proposals.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
}

impl WireSize for SbftMsg {
    fn wire_size(&self) -> usize {
        use bft_crypto::threshold::ThresholdSig;
        match self {
            SbftMsg::Request(r) => 1 + r.wire_size(),
            SbftMsg::Reply(r) => 1 + r.wire_size() + ThresholdSig::WIRE_SIZE,
            SbftMsg::PrePrepare { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 64,
            SbftMsg::SignShare { .. } | SbftMsg::CommitShare { .. } => 1 + 16 + 32 + 4 + 72,
            SbftMsg::FullCommitProof { .. }
            | SbftMsg::CommitProof { .. }
            | SbftMsg::FullExecuteProof { .. } => 1 + 16 + 32 + ThresholdSig::WIRE_SIZE,
            SbftMsg::ExecShare { reply, .. } => 1 + 8 + 16 + 32 + reply.wire_size() + 72,
            SbftMsg::ViewChange { signed_slots, .. } => {
                1 + 8
                    + signed_slots
                        .iter()
                        .map(|(_, _, b)| 8 + 32 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
            SbftMsg::NewView { pre_prepares, .. } => {
                1 + 8
                    + pre_prepares
                        .iter()
                        .map(|(_, _, b)| 8 + 32 + b.wire_size())
                        .sum::<usize>()
                    + 72
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SbftSlot {
    digest: Option<Digest>,
    batch: Vec<SignedRequest>,
    /// First-round shares (collector only).
    shares: Vec<ReplicaId>,
    /// Second-round shares (collector only, slow path).
    commit_shares: Vec<ReplicaId>,
    /// This replica produced a first-round share.
    signed: bool,
    /// Slow-path state: prepared via CommitProof.
    prepared: bool,
    committed: bool,
    executed: bool,
    /// Collector: τ3 timer for the fast path.
    t3: Option<TimerId>,
    /// Collector already certified (fast or slow).
    certified: bool,
}

/// An SBFT replica (the leader doubles as the collector).
pub struct SbftReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    view: View,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, SbftSlot>,
    known: BTreeMap<RequestId, SignedRequest>,
    executed_reqs: BTreeMap<RequestId, ()>,
    sm: StateMachine,
    exec_cursor: SeqNum,
    /// Collector: exec shares per (seq, request).
    exec_shares: BTreeMap<(SeqNum, RequestId), (Vec<ReplicaId>, Option<Reply>)>,
    /// Collector: threshold replies already combined from `weak` exec
    /// shares — the only replies a client may be handed (a bare cached
    /// result from one replica must never stand in for one; the client
    /// accepts a single signature only because it is threshold-backed by
    /// f+1 executions).
    combined: BTreeMap<RequestId, Reply>,
    in_view_change: bool,
    vc_votes: crate::common::VcVotes,
    vc_timer: Option<TimerId>,
    pending_reqs: Vec<RequestId>,
    ahead: FutureBuffer<View, SbftMsg>,
    view_timeout: SimDuration,
    /// τ3 duration: how long the collector waits for the full share set.
    t3_timeout: SimDuration,
    batch_size: usize,
}

impl SbftReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        t3_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        SbftReplica {
            me,
            q,
            store,
            view: View(0),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            known: BTreeMap::new(),
            executed_reqs: BTreeMap::new(),
            sm: StateMachine::new(),
            exec_cursor: SeqNum(0),
            exec_shares: BTreeMap::new(),
            combined: BTreeMap::new(),
            in_view_change: false,
            vc_votes: BTreeMap::new(),
            vc_timer: None,
            pending_reqs: Vec::new(),
            ahead: FutureBuffer::default(),
            view_timeout,
            t3_timeout,
            batch_size,
        }
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader_of(self.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn propose_known(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if !self.is_leader() || self.in_view_change {
            return;
        }
        // every slot at or below the execution cursor has executed
        let in_slots: BTreeSet<RequestId> = self
            .slots
            .range(self.exec_cursor.next()..)
            .filter(|(_, s)| !s.executed)
            .flat_map(|(_, s)| s.batch.iter().map(|r| r.request.id))
            .collect();
        let todo: Vec<SignedRequest> = self
            .known
            .values()
            .filter(|r| {
                !self.executed_reqs.contains_key(&r.request.id) && !in_slots.contains(&r.request.id)
            })
            .cloned()
            .collect();
        for chunk in todo.chunks(self.batch_size.max(1)) {
            let batch = chunk.to_vec();
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
            ctx.broadcast_replicas(SbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            });
            // the collector contributes its own share and starts τ3
            self.sign_slot(seq, digest, ctx);
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.slots.entry(seq).or_default().t3 = Some(t3);
            self.record_share(self.me, seq, digest, ctx);
        }
    }

    fn sign_slot(&mut self, seq: SeqNum, _digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let slot = self.slots.entry(seq).or_default();
        if !slot.signed {
            slot.signed = true;
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        }
    }

    fn record_share(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        if !self.is_leader() {
            return;
        }
        let n = self.q.n;
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest != Some(digest) || slot.certified {
            return;
        }
        if !slot.shares.contains(&from) {
            slot.shares.push(from);
        }
        if slot.shares.len() >= n {
            // fast path: every replica signed — a single certificate proves
            // universal acceptance, no second round needed (DC6)
            slot.certified = true;
            if let Some(t) = slot.t3.take() {
                ctx.cancel_timer(t);
            }
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.observe(Observation::Marker { label: "fast-path" });
            ctx.broadcast_replicas(SbftMsg::FullCommitProof {
                view,
                seq,
                digest,
                shares: n,
            });
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn on_t3(&mut self, seq: SeqNum, ctx: &mut Context<'_, SbftMsg>) {
        // fast path failed: fall back to the slow (two extra linear phases)
        let view = self.view;
        let quorum = self.q.quorum();
        let slot = self.slots.entry(seq).or_default();
        if slot.certified || slot.digest.is_none() {
            return;
        }
        slot.t3 = None;
        if slot.shares.len() >= quorum {
            slot.certified = true;
            let digest = slot.digest.expect("checked");
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.observe(Observation::Marker { label: "slow-path" });
            ctx.broadcast_replicas(SbftMsg::CommitProof {
                view,
                seq,
                digest,
                shares: slot.shares.len(),
            });
            // the collector participates in round 2 as well
            self.on_commit_proof(seq, digest, ctx);
        } else {
            // not even a quorum of shares: keep waiting; τ2-equivalent view
            // change pressure comes from clients re-broadcasting
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.slots.entry(seq).or_default().t3 = Some(t3);
        }
    }

    fn on_commit_proof(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let view = self.view;
        let me = self.me;
        let leader = self.leader();
        let slot = self.slots.entry(seq).or_default();
        if slot.committed {
            return;
        }
        slot.prepared = true;
        ctx.charge_crypto(CryptoOp::ThresholdVerify);
        ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        if me == leader {
            self.record_commit_share(me, seq, digest, ctx);
        } else {
            ctx.send(
                NodeId::Replica(leader),
                SbftMsg::CommitShare {
                    view,
                    seq,
                    digest,
                    from: me,
                },
            );
        }
    }

    fn record_commit_share(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        if !self.is_leader() {
            return;
        }
        let quorum = self.q.quorum();
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest != Some(digest) || slot.committed {
            return;
        }
        if !slot.commit_shares.contains(&from) {
            slot.commit_shares.push(from);
        }
        if slot.commit_shares.len() >= quorum {
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.broadcast_replicas(SbftMsg::FullExecuteProof { view, seq, digest });
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn commit_slot(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.committed {
            return;
        }
        if slot.digest.is_none() {
            // certificate outran the pre-prepare (delayed/reordered
            // leader traffic): adopt the certified digest; the batch
            // arrives with the late pre-prepare and execution waits for it
            slot.digest = Some(digest);
        } else if slot.digest != Some(digest) {
            return;
        }
        slot.committed = true;
        ctx.observe(Observation::Commit {
            seq,
            view,
            digest,
            speculative: false,
        });
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        loop {
            let next = self.exec_cursor.next();
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.committed || slot.executed {
                break;
            }
            // Never execute a slot whose batch we don't actually hold: a
            // commit certificate can outrun its (delayed) pre-prepare, and
            // executing the empty placeholder batch would silently skip
            // the slot's requests and desynchronize this replica's
            // execution stream for good. The late pre-prepare re-enters
            // here once it fills the batch in.
            if slot.digest != Some(digest_of(&slot.batch)) {
                break;
            }
            let batch = slot.batch.clone();
            ctx.observe(Observation::StageEnter {
                stage: Stage::Execution,
            });
            for signed in &batch {
                let (_, reply) =
                    execute_request(&mut self.sm, &signed.request, self.view, false, ctx);
                let state_digest = reply.state_digest;
                self.executed_reqs.insert(signed.request.id, ());
                self.known.remove(&signed.request.id);
                self.pending_reqs.retain(|r| *r != signed.request.id);
                // execution share to the collector (threshold reply)
                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                let leader = self.leader();
                let me = self.me;
                if me == leader {
                    self.record_exec_share(me, next, signed.request.id, state_digest, reply, ctx);
                } else {
                    ctx.send(
                        NodeId::Replica(leader),
                        SbftMsg::ExecShare {
                            seq: next,
                            request: signed.request.id,
                            state_digest,
                            reply,
                            from: me,
                        },
                    );
                }
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

    fn record_exec_share(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        request: RequestId,
        _state_digest: Digest,
        reply: Reply,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        let weak = self.q.weak();
        let entry = self
            .exec_shares
            .entry((seq, request))
            .or_insert((Vec::new(), None));
        if !entry.0.contains(&from) {
            entry.0.push(from);
        }
        entry.1.get_or_insert(reply);
        let ready = entry.0.len() >= weak;
        let combined_reply = entry.1.clone();
        if ready && !self.combined.contains_key(&request) {
            // f+1 matching execution shares: combine and send ONE reply
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            if let Some(reply) = combined_reply {
                self.combined.insert(request, reply.clone());
                ctx.send(NodeId::Client(request.client), SbftMsg::Reply(reply));
            }
        }
    }

    // ---- view change (PBFT-pattern, signatures) ---------------------------

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, SbftMsg>) {
        if target <= self.view || self.in_view_change {
            return;
        }
        self.in_view_change = true;
        ctx.observe(Observation::StageEnter {
            stage: Stage::ViewChange,
        });
        let signed_slots: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = self
            .slots
            .iter()
            .filter(|(seq, s)| s.signed && !s.executed && **seq > self.exec_cursor)
            .map(|(seq, s)| (*seq, s.digest.unwrap_or(Digest::ZERO), s.batch.clone()))
            .collect();
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.broadcast_replicas(SbftMsg::ViewChange {
            new_view: target,
            signed_slots: signed_slots.clone(),
            from: me,
        });
        self.record_vc(me, target, signed_slots, ctx);
        self.vc_timer = Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
    }

    fn record_vc(
        &mut self,
        from: ReplicaId,
        target: View,
        signed_slots: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        let votes = self.vc_votes.entry(target).or_default();
        if votes.iter().any(|(r, _)| *r == from) {
            return;
        }
        votes.push((from, signed_slots));
        let have = votes.len();
        if target > self.view && !self.in_view_change && have > self.q.f {
            self.start_view_change(target, ctx);
            return;
        }
        if target.leader_of(self.q.n) == self.me && self.in_view_change && have >= self.q.quorum() {
            let votes = self.vc_votes.get(&target).cloned().unwrap_or_default();
            let mut re_proposals: BTreeMap<SeqNum, (Digest, Vec<SignedRequest>)> = BTreeMap::new();
            for (_, slots) in &votes {
                for (seq, digest, batch) in slots {
                    re_proposals.entry(*seq).or_insert((*digest, batch.clone()));
                }
            }
            let pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = re_proposals
                .into_iter()
                .map(|(s, (d, b))| (s, d, b))
                .collect();
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(SbftMsg::NewView {
                view: target,
                pre_prepares: pre_prepares.clone(),
            });
            self.install_view(target, pre_prepares, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, SbftMsg>,
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
        // drop dead slots, remember their requests
        let exec_cursor = self.exec_cursor;
        let re_proposed: Vec<SeqNum> = pre_prepares.iter().map(|(s, _, _)| *s).collect();
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
            self.known.entry(r.request.id).or_insert(r);
        }
        let max_seq = pre_prepares
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(exec_cursor);
        let leader = self.leader();
        let me = self.me;
        for (seq, digest, batch) in pre_prepares {
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
                slot.signed = false;
                slot.certified = false;
                slot.committed = false;
                slot.prepared = false;
                slot.shares.clear();
                slot.commit_shares.clear();
            }
            self.sign_slot(seq, digest, ctx);
            if me == leader {
                let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
                self.slots.entry(seq).or_default().t3 = Some(t3);
                self.record_share(me, seq, digest, ctx);
            } else {
                let view = self.view;
                ctx.send(
                    NodeId::Replica(leader),
                    SbftMsg::SignShare {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
        }
        if self.is_leader() {
            self.next_seq = self
                .next_seq
                .max(max_seq.next())
                .max(self.exec_cursor.next());
            self.propose_known(ctx);
        }
        // replay racing messages
        for (from, msg) in self.ahead.take(self.view) {
            self.on_message(from, &msg, ctx);
        }
    }
}

impl Actor<SbftMsg> for SbftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &SbftMsg, ctx: &mut Context<'_, SbftMsg>) {
        match msg {
            SbftMsg::Request(signed) => {
                ctx.charge_crypto(CryptoOp::Verify);
                if !signed.verify(&self.store) {
                    return;
                }
                if self.executed_reqs.contains_key(&signed.request.id) {
                    // retransmission of an executed request: only the
                    // combined threshold reply may answer it — a bare
                    // cached result from a single replica would let one
                    // (possibly compromised-wire) node vouch for a write
                    // no honest quorum has executed
                    let id = signed.request.id;
                    if let Some(reply) = self.combined.get(&id).cloned() {
                        ctx.send(NodeId::Client(id.client), SbftMsg::Reply(reply));
                    } else if !self.is_leader() {
                        // re-send our exec share so the collector can
                        // (re-)combine the threshold reply
                        let seq = self
                            .slots
                            .iter()
                            .find(|(_, s)| s.executed && s.batch.iter().any(|r| r.request.id == id))
                            .map(|(seq, _)| *seq);
                        if let (Some(seq), Some((cached, result))) =
                            (seq, self.sm.cached_reply(id.client))
                        {
                            if *cached == id {
                                let reply = Reply {
                                    request: id,
                                    view: self.view,
                                    result: result.clone(),
                                    state_digest: self.sm.digest(),
                                    speculative: false,
                                };
                                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                                let leader = self.leader();
                                let me = self.me;
                                ctx.send(
                                    NodeId::Replica(leader),
                                    SbftMsg::ExecShare {
                                        seq,
                                        request: id,
                                        state_digest: reply.state_digest,
                                        reply,
                                        from: me,
                                    },
                                );
                            }
                        }
                    }
                    return;
                }
                self.known.insert(signed.request.id, signed.clone());
                if self.is_leader() {
                    self.propose_known(ctx);
                } else {
                    let leader = self.leader();
                    ctx.send(NodeId::Replica(leader), SbftMsg::Request(signed.clone()));
                    if !self.pending_reqs.contains(&signed.request.id) {
                        self.pending_reqs.push(signed.request.id);
                    }
                    if self.vc_timer.is_none() && !self.in_view_change {
                        self.vc_timer =
                            Some(ctx.set_timer(TimerKind::T2ViewChange, self.view_timeout));
                    }
                }
            }
            SbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                let m = SbftMsg::PrePrepare {
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
                let committed = {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.digest.is_some() && slot.digest != Some(digest) {
                        return;
                    }
                    slot.digest = Some(digest);
                    slot.batch = batch.clone();
                    slot.committed
                };
                if committed {
                    // late pre-prepare for a slot whose certificate already
                    // arrived: the batch is in place, execution can resume
                    self.try_execute(ctx);
                    return;
                }
                self.sign_slot(seq, digest, ctx);
                let leader = self.leader();
                let me = self.me;
                ctx.send(
                    NodeId::Replica(leader),
                    SbftMsg::SignShare {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
            SbftMsg::SignShare {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                let m = SbftMsg::SignShare {
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
                self.record_share(r, seq, digest, ctx);
            }
            SbftMsg::FullCommitProof {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                let m = SbftMsg::FullCommitProof {
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
                if shares < self.q.n {
                    return; // not a valid fast-path certificate
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                let slot = self.slots.entry(seq).or_default();
                if slot.digest.is_none() {
                    slot.digest = Some(digest);
                }
                self.commit_slot(seq, digest, ctx);
            }
            SbftMsg::CommitProof {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                let m = SbftMsg::CommitProof {
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
                self.on_commit_proof(seq, digest, ctx);
            }
            SbftMsg::CommitShare {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                let m = SbftMsg::CommitShare {
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
                self.record_commit_share(r, seq, digest, ctx);
            }
            SbftMsg::FullExecuteProof { view, seq, digest } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                let m = SbftMsg::FullExecuteProof { view, seq, digest };
                if !self
                    .ahead
                    .admit(self.view, self.in_view_change, from, view, m)
                {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.commit_slot(seq, digest, ctx);
            }
            SbftMsg::ExecShare {
                seq,
                request,
                state_digest,
                reply,
                from: r,
            } => {
                if self.is_leader() {
                    ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                    self.record_exec_share(*r, *seq, *request, *state_digest, reply.clone(), ctx);
                }
            }
            SbftMsg::ViewChange {
                new_view,
                signed_slots,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vc(*r, *new_view, signed_slots.clone(), ctx);
            }
            SbftMsg::NewView { view, pre_prepares } => {
                if *view >= self.view && from == NodeId::Replica(view.leader_of(self.q.n)) {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, pre_prepares.clone(), ctx);
                }
            }
            SbftMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, SbftMsg>) {
        match kind {
            TimerKind::T3BackupFailure => {
                // find the slot owning this timer
                let seq = self
                    .slots
                    .iter()
                    .find(|(_, s)| s.t3 == Some(id))
                    .map(|(seq, _)| *seq);
                if let Some(seq) = seq {
                    self.on_t3(seq, ctx);
                }
            }
            TimerKind::T2ViewChange if Some(id) == self.vc_timer => {
                self.vc_timer = None;
                if !self.pending_reqs.is_empty() {
                    let target = self.view.next();
                    self.start_view_change(target, ctx);
                }
            }
            _ => {}
        }
    }
}

/// SBFT's client hooks: single verifiable reply from the collector.
pub struct SbftClientProto;

impl ClientProtocol for SbftClientProto {
    type Msg = SbftMsg;

    fn wrap_request(req: SignedRequest) -> SbftMsg {
        SbftMsg::Request(req)
    }

    fn unwrap_reply(msg: &SbftMsg) -> Option<&Reply> {
        match msg {
            SbftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn submit_policy() -> SubmitPolicy {
        SubmitPolicy::LeaderThenBroadcast
    }

    fn reply_quorum(_q: &QuorumRules) -> usize {
        1 // the reply carries a threshold signature
    }
}

/// Run SBFT under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let n = scenario.n(ProtocolId::Sbft.min_n(scenario.f));
    let q = QuorumRules { n, f: scenario.f };
    let store = scenario.key_store();
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    let t3 = SimDuration(scenario.network.delta.0 / 2);

    let mut sim = scenario.build_engine::<SbftMsg>(n);
    for i in 0..n as u32 {
        sim.add_replica(
            i,
            Box::new(SbftReplica::new(
                ReplicaId(i),
                q,
                store.clone(),
                view_timeout,
                t3,
                scenario.batch_size,
            )),
        );
    }
    for c in 0..scenario.clients as u64 {
        sim.add_client(
            c,
            Box::new(GenericClient::<SbftClientProto>::new(scenario, q, c)),
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
    fn fault_free_uses_fast_path() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert!(out.log.marker_count("fast-path") >= 30);
        assert_eq!(out.log.marker_count("slow-path"), 0);
    }

    #[test]
    fn backup_crash_forces_slow_path() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert!(
            out.log.marker_count("slow-path") >= 20,
            "τ3 must fire per slot"
        );
        assert_eq!(out.log.marker_count("fast-path"), 0);
    }

    #[test]
    fn leader_crash_recovers_via_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= bft_types::View(1));
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn linear_messaging_beats_pbft_quadratic_at_scale() {
        // with n = 13 (f = 4), SBFT's per-request message count must be
        // well below PBFT's O(n²)
        let s = Scenario::small(4).with_load(1, 20);
        let sbft_out = run(&s);
        let pbft_out = pbft::run(&s, &PbftOptions::default());
        SafetyAuditor::all_correct().assert_safe(&sbft_out.log);
        let per_req = |o: &RunOutcome| o.metrics.replica_msgs_sent() as f64 / 20.0;
        assert!(
            per_req(&sbft_out) < per_req(&pbft_out) / 2.0,
            "SBFT {} vs PBFT {} messages per request",
            per_req(&sbft_out),
            per_req(&pbft_out)
        );
    }

    #[test]
    fn client_accepts_single_reply() {
        let s = Scenario::small(1).with_load(1, 5);
        let out = run(&s);
        // each request produces exactly one reply message to the client
        let client_received = out.metrics.node(NodeId::client(0)).msgs_received;
        assert_eq!(
            client_received, 5,
            "collector sends exactly one reply per request"
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }

    /// Regression: a strategic-delay adversary on the collector can make a
    /// commit certificate outrun its pre-prepare. The receiving replica
    /// used to commit the empty placeholder slot and "execute" it,
    /// silently skipping the slot's requests and desynchronizing its
    /// execution stream for good (DivergentState at campaign seeds 49/50);
    /// a bare cached reply could also vouch for a write no honest quorum
    /// had executed (lost write at seed 17). Both must stay fixed across
    /// the campaign's hold scales.
    #[test]
    fn delayed_collector_traffic_cannot_skip_or_fabricate_commits() {
        use crate::suite::semantic_config;
        use bft_sim::campaign::check_outcome_with_semantics;
        use bft_sim::{AdversarySpec, Attack};

        for (hold_us, prob, seed) in [
            (14_467u64, 0.59, 49u64),
            (23_930, 0.59, 50),
            (31_446, 0.71, 17),
        ] {
            let s = Scenario::small(1)
                .with_load(1, 8)
                .with_seed(seed)
                .with_adversaries(vec![AdversarySpec::new(
                    0,
                    Attack::Delay {
                        hold: SimDuration(hold_us * 1_000),
                        prob,
                    },
                )]);
            let out = run(&s);
            let semantic = semantic_config(ProtocolId::Sbft, &s);
            let violation =
                check_outcome_with_semantics(&out.log, vec![NodeId::replica(0)], 8, &semantic);
            assert_eq!(
                violation, None,
                "seed {seed}: delayed collector traffic must stay safe and live"
            );
        }
    }
}
