//! MCFS — a model-checking framework for file systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Model-Checking Support for File System Development*, HotStorage '21):
//! a harness that drives two or more file systems with nondeterministically
//! chosen operations, compares their observable outcomes after every
//! operation, and explores the bounded state space exhaustively using
//! abstract-state matching.
//!
//! The pieces, mapped to the paper:
//!
//! * [`pool`] — the randomized syscall engine: bounded operation/parameter
//!   pools and meta-operations (`create_file`, `write_file`) (§4);
//! * [`abstraction`] — Algorithm 1: MD5 over pathnames, file data, and
//!   important metadata, with the exception list and the dir-size /
//!   entry-order normalizations (§3.3–3.4);
//! * [`CheckedTarget`] and friends — state-tracking strategies per file
//!   system: remounting device snapshots ([`RemountTarget`], §3.2), the
//!   checkpoint/restore API ([`CheckpointTarget`], §5), and [`ImageTarget`],
//!   which clones the whole instance for VM snapshots, CRIU process
//!   snapshots (§5) and the future-work VFS-level checkpoints (§7); every
//!   strategy keeps its snapshots in one saved-state store;
//! * [`Mcfs`] — the harness wiring N targets into one
//!   [`modelcheck::ModelSystem`], with integrity checks, free-space
//!   equalization (§3.4), majority voting and coverage tracking (§7);
//! * [`backends`] — the one registry of backends: device geometry, typed
//!   constructors and named checked targets;
//! * any `modelcheck` explorer (DFS, random walk, swarm) runs it.
//!
//! # Examples
//!
//! Model-check VeriFS1 against VeriFS2 (the paper's fastest pairing):
//!
//! ```
//! use mcfs::{CheckpointTarget, Mcfs, McfsConfig};
//! use modelcheck::{DfsExplorer, ExploreConfig};
//! use verifs::VeriFs;
//! use vfs::FileSystem;
//!
//! # fn main() -> vfs::VfsResult<()> {
//! let mut v1 = VeriFs::v1();
//! v1.mount()?;
//! let mut v2 = VeriFs::v2();
//! v2.mount()?;
//! let mut harness = Mcfs::new(
//!     vec![
//!         Box::new(CheckpointTarget::new(v1)),
//!         Box::new(CheckpointTarget::new(v2)),
//!     ],
//!     McfsConfig::default(),
//! )?;
//! let report = DfsExplorer::new(ExploreConfig {
//!     max_depth: 2,
//!     max_ops: 2_000,
//!     ..ExploreConfig::default()
//! })
//! .run(&mut harness);
//! assert!(report.violations.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod abstraction;
pub mod backends;
pub mod canon;
pub mod ckpt_pool;
mod coverage;
pub mod effect;
mod harness;
pub mod interleave;
mod lockstep;
pub mod pool;
pub mod shrink;
mod target;
pub mod wire;

pub use abstraction::{
    abstract_state, abstract_state_cached, AbstractionConfig, FingerprintCache, FingerprintStore,
};
pub use ckpt_pool::{CheckpointPool, ExternalSnap, FsImage, SnapshotBytes};
pub use coverage::Coverage;
pub use effect::{
    heuristic_independent, independent as effect_independent, signature, Conflict, ConflictKind,
    EffectIndex, EffectProfile, EffectSig, Independence, Place, WriteEffect, WriteKind,
};
pub use harness::{
    replay, replay_checked, FsckStats, HarnessFactory, Mcfs, McfsConfig, ReplayOutcome,
    EQUALIZE_DUMMY,
};
pub use interleave::{
    InterleaveStats, SchedStep, ThreadedHarnessFactory, ThreadedMcfs, ThreadedMcfsConfig,
    ThreadedTrace, CRASH_TID,
};
pub use pool::{execute, execute_with, pattern, FsOp, OpOutcome, PoolConfig};
pub use shrink::{
    buggy_verifs_factory, harness_with_factory, repair_mask, shrink_trace, ShrinkConfig,
    ShrinkOutcome,
};
pub use target::{
    CheckedTarget, CheckpointTarget, ImageTarget, RemountMode, RemountTarget, RepairOutcome,
};
pub use wire::{FsOpCodec, ThreadedFsOpCodec};
