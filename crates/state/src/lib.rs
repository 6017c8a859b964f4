//! # bft-state
//!
//! The replicated state machine substrate: a deterministic transactional
//! key-value store with state digests, snapshots (for the paper's
//! **checkpointing** stage, dimension P4), an undo log for **speculative
//! execution with rollback** (design choices 7 and 8), and conflict
//! detection (the **conflict-free optimism** of design choice 9).
//!
//! Replicas in every protocol own a [`StateMachine`]; the ordering layer
//! decides *which* request executes at each sequence number, and this crate
//! guarantees that executing the same request sequence produces the same
//! state and the same [`bft_types::Digest`] on every replica — the property the safety
//! auditor checks across replicas.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod checkpoint;
pub mod kv;
pub mod machine;

pub use app::{App, AppendLog, ComposedApp, GCounter, UndoOp};
pub use checkpoint::{CheckpointManager, CheckpointProof};
pub use kv::KvStore;
pub use machine::{ExecutedEntry, Snapshot, StateMachine};
