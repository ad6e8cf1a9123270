//! Pickle/load: a stable, versioned wire format for checker state.
//!
//! The paper's §7 wants exploration to outlive a single checking process
//! (kernel crashes mid-check, multi-day swarms, partitioning a search across
//! machines). This module serializes everything a run needs to continue —
//! the visited set's `(fingerprint, depth)` pairs, the pending frontier as
//! replayable op-prefixes, per-worker RNG cursors, and the cumulative
//! [`ExploreStats`] — into a self-describing, checksummed byte stream that a
//! later process loads to resume with zero re-exploration of known states.
//!
//! # Format
//!
//! ```text
//! magic    8 bytes  b"MCFSPKL\x01"
//! version  u32      FORMAT_VERSION (readers reject anything newer)
//! body     ...      little-endian, length-prefixed sections (see encode)
//! checksum u128     FNV-1a-128 over magic + version + body
//! ```
//!
//! Everything multi-byte is little-endian. Collections are `u32` count
//! followed by elements. Operations are *not* serialized by this module:
//! the caller supplies an [`OpCodec`] (the harness's op type lives above
//! this crate), which keeps the format generic over systems while the
//! framing, versioning, and integrity checking stay in one place.
//!
//! # Canonical bytes
//!
//! Visited entries are sorted by fingerprint before encoding, so
//! `encode(decode(bytes)) == bytes` holds for any valid stream — the
//! round-trip property the tests pin. A snapshot written mid-run is
//! byte-deterministic for a given logical state, whatever order the shards
//! filled in.
//!
//! # What is (and isn't) persisted
//!
//! Concrete checkpoint images are *not* serialized: frontiers are stored as
//! op-prefixes from the initial state, which deterministic replay turns back
//! into concrete states on load. This keeps snapshots small (48 bytes per
//! visited state plus the encoded frontier) and makes them portable across
//! processes whose memory layouts differ. RNG cursors record the seed and
//! draw count each worker had reached, letting diversified walks continue
//! with fresh derived seeds instead of repeating old paths.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

use crate::explore::ExploreStats;
use crate::spill::SpillStats;
use crate::system::{CheckpointStoreStats, CrashStats};

/// Leading magic of every pickle stream.
pub const MAGIC: [u8; 8] = *b"MCFSPKL\x01";

/// Current format version. Bump on any incompatible layout change; readers
/// reject versions they do not know. Version 2 extended the stats section
/// with the out-of-core counters (`visited_peak_bytes`, the optional
/// [`SpillStats`] block, and the checkpoint-store demotion fields).
/// Version 3 added a fourth crash counter (crashes pruned unchecked past a
/// cap on the threaded crash-cut lattice); version 4 dropped it with the
/// cap.
pub const FORMAT_VERSION: u32 = 4;

/// Why a pickle stream failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PickleError {
    /// The stream ended before the expected data.
    Truncated,
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is unknown to this reader.
    BadVersion(u32),
    /// The trailing checksum does not match the content — the file was
    /// corrupted (e.g. a torn write outside the atomic-rename protocol).
    ChecksumMismatch,
    /// Structurally invalid content (bad tag, impossible length, …).
    Corrupt(String),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for PickleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PickleError::Truncated => write!(f, "pickle stream truncated"),
            PickleError::BadMagic => write!(f, "not a pickle stream (bad magic)"),
            PickleError::BadVersion(v) => write!(f, "unsupported pickle version {v}"),
            PickleError::ChecksumMismatch => write!(f, "pickle checksum mismatch"),
            PickleError::Corrupt(msg) => write!(f, "corrupt pickle: {msg}"),
            PickleError::Io(msg) => write!(f, "pickle i/o: {msg}"),
        }
    }
}

impl std::error::Error for PickleError {}

/// FNV-1a over 128 bits — the integrity checksum. Not cryptographic; it
/// detects torn/bit-rotted files, which is all resume needs (a hostile
/// snapshot is out of scope — the file is the checker's own). Public so other
/// layers (e.g. the checkpoint pool's spilled-chunk dedup) can content-hash
/// with the same function the wire formats use.
pub fn fnv128(data: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Encodes one operation type to/from the wire. Implemented by the layer
/// that owns the op type (e.g. the harness crate for `FsOp`); the checker
/// stays generic.
pub trait OpCodec<Op> {
    /// Appends the encoding of `op` to `out`.
    fn encode_op(&self, op: &Op, out: &mut Vec<u8>);

    /// Decodes one operation from the reader.
    ///
    /// # Errors
    ///
    /// [`PickleError::Corrupt`] / [`PickleError::Truncated`] on malformed
    /// input.
    fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<Op, PickleError>;
}

/// A pending frontier item: the operations that reach a yet-unexpanded
/// state from the initial state, plus the sleep set (ops already covered by
/// a sibling's subtree under partial-order reduction) it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry<Op> {
    /// Deterministic replay of these ops from the initial state reconstructs
    /// the concrete state this entry expands.
    pub prefix: Vec<Op>,
    /// Ops to skip when expanding (sleep-set POR, propagated from the
    /// parent's expansion).
    pub sleep: Vec<Op>,
}

/// Where a worker's random stream had advanced when the snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RngCursor {
    /// The seed the worker was running with.
    pub seed: u64,
    /// Operations the worker had drawn with it (a progress marker; resumed
    /// walks derive a fresh seed rather than replaying draws, since their
    /// concrete walk position is intentionally not persisted).
    pub draws: u64,
}

/// Everything a run needs to continue in a fresh process.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot<Op> {
    /// Base seed of the run (workers derive theirs from it).
    pub base_seed: u64,
    /// Worker count the snapshot was taken with.
    pub workers: u32,
    /// How many times this run has been resumed (0 = original process).
    /// Resumed walks fold this into their derived seeds so they diversify
    /// instead of repeating the dead process's paths.
    pub generation: u32,
    /// The visited set: `(fingerprint, shallowest depth)` per state, sorted
    /// by fingerprint.
    pub visited: Vec<(u128, u32)>,
    /// Pending states as replayable op-prefixes.
    pub frontier: Vec<FrontierEntry<Op>>,
    /// Per-worker RNG positions.
    pub rng: Vec<RngCursor>,
    /// Cumulative stats across the run's whole life (all generations).
    pub stats: ExploreStats,
}

impl<Op> RunSnapshot<Op> {
    /// An empty snapshot for a run that has not started.
    pub fn empty(base_seed: u64, workers: u32) -> Self {
        RunSnapshot {
            base_seed,
            workers,
            generation: 0,
            visited: Vec::new(),
            frontier: Vec::new(),
            rng: Vec::new(),
            stats: ExploreStats::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (used by op codecs).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

/// Cursor over a pickle stream, shared with [`OpCodec`] implementations.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PickleError> {
        if self.remaining() < n {
            return Err(PickleError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PickleError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PickleError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PickleError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, PickleError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PickleError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PickleError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a collection length, sanity-bounded against the remaining
    /// bytes so a corrupt length cannot trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, PickleError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PickleError::Corrupt(format!(
                "length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Stats section
// ---------------------------------------------------------------------------

fn encode_stats(out: &mut Vec<u8>, s: &ExploreStats) {
    put_u64(out, s.ops_executed);
    put_u64(out, s.ops_replayed);
    put_u64(out, s.states_new);
    put_u64(out, s.states_matched);
    put_u64(out, s.pruned);
    put_u64(out, s.checkpoints);
    put_u64(out, s.restores);
    put_u64(out, s.max_depth_seen as u64);
    put_u32(out, s.resize_events);
    put_u64(out, s.peak_memory_bytes);
    put_u64(out, s.swap_traffic_bytes);
    put_u64(out, s.swapped_bytes);
    put_u64(out, s.hit_rate.to_bits());
    put_u64(out, s.virtual_ns);
    put_u64(out, s.visited_peak_bytes);
    match &s.spill {
        None => out.push(0),
        Some(sp) => {
            out.push(1);
            put_u64(out, sp.pages_written);
            put_u64(out, sp.pages_read);
            put_u64(out, sp.file_bytes_written);
            put_u64(out, sp.file_bytes_read);
            put_u64(out, sp.spilled_bytes);
            put_u64(out, sp.reloaded_bytes);
            put_u64(out, sp.hot_hits);
            put_u64(out, sp.cold_hits);
            put_u64(out, sp.bloom_skips);
            put_u64(out, sp.evictions);
            put_u64(out, sp.predicted_swap_bytes);
        }
    }
    match &s.checkpoint_store {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u64(out, c.snapshots as u64);
            put_u64(out, c.pinned as u64);
            put_u64(out, c.total_bytes as u64);
            put_u64(out, c.shared_bytes as u64);
            put_u64(out, c.resident_bytes as u64);
            put_u64(out, c.evictions);
            put_u64(out, c.inserts);
            put_u64(out, c.demotions);
            put_u64(out, c.promotions);
            put_u64(out, c.spilled_bytes);
        }
    }
    match &s.crash {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u64(out, c.crashes);
            put_u64(out, c.recoveries);
            put_u64(out, c.divergent_recoveries);
        }
    }
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<ExploreStats, PickleError> {
    let mut s = ExploreStats {
        ops_executed: r.u64()?,
        ops_replayed: r.u64()?,
        states_new: r.u64()?,
        states_matched: r.u64()?,
        pruned: r.u64()?,
        checkpoints: r.u64()?,
        restores: r.u64()?,
        max_depth_seen: r.u64()? as usize,
        resize_events: r.u32()?,
        peak_memory_bytes: r.u64()?,
        swap_traffic_bytes: r.u64()?,
        swapped_bytes: r.u64()?,
        hit_rate: f64::from_bits(r.u64()?),
        virtual_ns: r.u64()?,
        visited_peak_bytes: r.u64()?,
        spill: None,
        checkpoint_store: None,
        crash: None,
    };
    s.spill = match r.u8()? {
        0 => None,
        1 => Some(SpillStats {
            pages_written: r.u64()?,
            pages_read: r.u64()?,
            file_bytes_written: r.u64()?,
            file_bytes_read: r.u64()?,
            spilled_bytes: r.u64()?,
            reloaded_bytes: r.u64()?,
            hot_hits: r.u64()?,
            cold_hits: r.u64()?,
            bloom_skips: r.u64()?,
            evictions: r.u64()?,
            predicted_swap_bytes: r.u64()?,
        }),
        t => return Err(PickleError::Corrupt(format!("bad spill-stats tag {t}"))),
    };
    s.checkpoint_store = match r.u8()? {
        0 => None,
        1 => Some(CheckpointStoreStats {
            snapshots: r.u64()? as usize,
            pinned: r.u64()? as usize,
            total_bytes: r.u64()? as usize,
            shared_bytes: r.u64()? as usize,
            resident_bytes: r.u64()? as usize,
            evictions: r.u64()?,
            inserts: r.u64()?,
            demotions: r.u64()?,
            promotions: r.u64()?,
            spilled_bytes: r.u64()?,
        }),
        t => return Err(PickleError::Corrupt(format!("bad store-stats tag {t}"))),
    };
    s.crash = match r.u8()? {
        0 => None,
        1 => Some(CrashStats {
            crashes: r.u64()?,
            recoveries: r.u64()?,
            divergent_recoveries: r.u64()?,
        }),
        t => return Err(PickleError::Corrupt(format!("bad crash-stats tag {t}"))),
    };
    Ok(s)
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

/// Serializes a snapshot to its canonical byte form: the visited entries
/// sorted by fingerprint, then streamed through [`SnapshotWriter`].
pub fn encode_snapshot<Op>(snap: &RunSnapshot<Op>, codec: &dyn OpCodec<Op>) -> Vec<u8> {
    let mut visited = snap.visited.clone();
    visited.sort_unstable_by_key(|&(h, _)| h);
    let mut w = SnapshotWriter::new(codec, snap.base_seed, snap.workers, snap.generation);
    w.begin_visited(visited.len() as u32);
    for &(h, d) in &visited {
        w.visited_entry(h, d);
    }
    w.frontier(&snap.frontier);
    w.rng(&snap.rng);
    w.finish(&snap.stats)
}

/// Streaming snapshot encoder, the one writer of the wire format: it never
/// materializes the visited set as a `Vec` — the §7 export path for
/// bigger-than-RAM runs pipes `ShardedVisited::stream_entries` straight
/// into it, page by page, and [`encode_snapshot`] feeds it a sorted copy.
///
/// Sections must be written in wire order: `begin_visited` →
/// `visited_entry`× → `frontier_entry`s via [`SnapshotWriter::frontier`] →
/// [`SnapshotWriter::rng`] → [`SnapshotWriter::finish`]. Visited entries
/// must arrive sorted by fingerprint (the canonical order); debug builds
/// assert it.
pub struct SnapshotWriter<'c, Op> {
    out: Vec<u8>,
    codec: &'c dyn OpCodec<Op>,
    visited_declared: u32,
    visited_written: u32,
    last_fp: Option<u128>,
}

impl<'c, Op> SnapshotWriter<'c, Op> {
    /// Starts a stream with the snapshot header.
    pub fn new(codec: &'c dyn OpCodec<Op>, base_seed: u64, workers: u32, generation: u32) -> Self {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, base_seed);
        put_u32(&mut out, workers);
        put_u32(&mut out, generation);
        SnapshotWriter {
            out,
            codec,
            visited_declared: 0,
            visited_written: 0,
            last_fp: None,
        }
    }

    /// Declares the visited-entry count (the wire format length-prefixes
    /// the section, so the count must be known up front — sets track it as
    /// `len()` without materializing entries).
    pub fn begin_visited(&mut self, count: u32) {
        self.visited_declared = count;
        put_u32(&mut self.out, count);
    }

    /// Appends one visited entry; must be called in fingerprint order.
    pub fn visited_entry(&mut self, fingerprint: u128, depth: u32) {
        debug_assert!(
            self.last_fp.is_none_or(|p| p < fingerprint),
            "visited entries must stream in sorted order"
        );
        self.last_fp = Some(fingerprint);
        self.visited_written += 1;
        put_u128(&mut self.out, fingerprint);
        put_u32(&mut self.out, depth);
    }

    /// Writes the frontier section (after the last visited entry).
    pub fn frontier(&mut self, entries: &[FrontierEntry<Op>]) {
        assert_eq!(
            self.visited_written, self.visited_declared,
            "visited section incomplete"
        );
        put_u32(&mut self.out, entries.len() as u32);
        for entry in entries {
            put_u32(&mut self.out, entry.prefix.len() as u32);
            for op in &entry.prefix {
                self.codec.encode_op(op, &mut self.out);
            }
            put_u32(&mut self.out, entry.sleep.len() as u32);
            for op in &entry.sleep {
                self.codec.encode_op(op, &mut self.out);
            }
        }
    }

    /// Writes the RNG-cursor section.
    pub fn rng(&mut self, cursors: &[RngCursor]) {
        put_u32(&mut self.out, cursors.len() as u32);
        for c in cursors {
            put_u64(&mut self.out, c.seed);
            put_u64(&mut self.out, c.draws);
        }
    }

    /// Writes the stats section, stamps the checksum, and returns the
    /// finished stream.
    pub fn finish(mut self, stats: &ExploreStats) -> Vec<u8> {
        encode_stats(&mut self.out, stats);
        let sum = fnv128(&self.out);
        put_u128(&mut self.out, sum);
        self.out
    }
}

/// Parses and verifies a snapshot from its byte form.
///
/// # Errors
///
/// Any [`PickleError`] variant: bad magic/version, checksum mismatch, or
/// structural corruption.
pub fn decode_snapshot<Op>(
    bytes: &[u8],
    codec: &dyn OpCodec<Op>,
) -> Result<RunSnapshot<Op>, PickleError> {
    if bytes.len() < MAGIC.len() + 4 + 16 {
        return Err(PickleError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(PickleError::BadMagic);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 16);
    let stored = u128::from_le_bytes(tail.try_into().unwrap());
    if fnv128(body) != stored {
        return Err(PickleError::ChecksumMismatch);
    }

    let mut r = ByteReader::new(&body[MAGIC.len()..]);
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PickleError::BadVersion(version));
    }

    let base_seed = r.u64()?;
    let workers = r.u32()?;
    let generation = r.u32()?;

    let nvisited = r.len(20)?;
    let mut visited = Vec::with_capacity(nvisited);
    for _ in 0..nvisited {
        let h = r.u128()?;
        let d = r.u32()?;
        visited.push((h, d));
    }

    let nfrontier = r.len(8)?;
    let mut frontier = Vec::with_capacity(nfrontier);
    for _ in 0..nfrontier {
        let nprefix = r.len(1)?;
        let mut prefix = Vec::with_capacity(nprefix);
        for _ in 0..nprefix {
            prefix.push(codec.decode_op(&mut r)?);
        }
        let nsleep = r.len(1)?;
        let mut sleep = Vec::with_capacity(nsleep);
        for _ in 0..nsleep {
            sleep.push(codec.decode_op(&mut r)?);
        }
        frontier.push(FrontierEntry { prefix, sleep });
    }

    let nrng = r.len(16)?;
    let mut rng = Vec::with_capacity(nrng);
    for _ in 0..nrng {
        rng.push(RngCursor {
            seed: r.u64()?,
            draws: r.u64()?,
        });
    }

    let stats = decode_stats(&mut r)?;
    if r.remaining() != 0 {
        return Err(PickleError::Corrupt(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(RunSnapshot {
        base_seed,
        workers,
        generation,
        visited,
        frontier,
        rng,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Atomic file persistence
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data goes to a sibling
/// tempfile, is flushed to stable storage, and is renamed over `path`.
/// A process killed at any instant leaves either the old snapshot or the
/// new one — never a torn file (and a torn tempfile fails the checksum
/// anyway).
///
/// # Errors
///
/// [`PickleError::Io`] wrapping the underlying filesystem error.
pub fn save_atomic(path: &Path, bytes: &[u8]) -> Result<(), PickleError> {
    let tmp = path.with_extension("pickle-tmp");
    let io = |e: std::io::Error| PickleError::Io(format!("{}: {e}", tmp.display()));
    let mut f = fs::File::create(&tmp).map_err(io)?;
    f.write_all(bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| PickleError::Io(format!("{}: {e}", path.display())))
}

/// Loads and verifies a snapshot file written by [`save_atomic`].
///
/// # Errors
///
/// [`PickleError::Io`] if the file cannot be read, otherwise any decode
/// error from [`decode_snapshot`].
pub fn load_snapshot<Op>(
    path: &Path,
    codec: &dyn OpCodec<Op>,
) -> Result<RunSnapshot<Op>, PickleError> {
    let bytes = fs::read(path).map_err(|e| PickleError::Io(format!("{}: {e}", path.display())))?;
    decode_snapshot(&bytes, codec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test codec: ops are plain `u32`s.
    struct U32Codec;

    impl OpCodec<u32> for U32Codec {
        fn encode_op(&self, op: &u32, out: &mut Vec<u8>) {
            put_u32(out, *op);
        }
        fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<u32, PickleError> {
            r.u32()
        }
    }

    fn sample() -> RunSnapshot<u32> {
        RunSnapshot {
            base_seed: 42,
            workers: 4,
            generation: 2,
            visited: vec![(7, 1), (3, 0), (0xffff_ffff_ffff_ffff_ffff, 9)],
            frontier: vec![
                FrontierEntry {
                    prefix: vec![1, 2, 3],
                    sleep: vec![9],
                },
                FrontierEntry {
                    prefix: vec![],
                    sleep: vec![],
                },
            ],
            rng: vec![
                RngCursor { seed: 1, draws: 10 },
                RngCursor {
                    seed: 2,
                    draws: 999,
                },
            ],
            stats: ExploreStats {
                ops_executed: 100,
                ops_replayed: 7,
                states_new: 55,
                states_matched: 11,
                hit_rate: 0.75,
                max_depth_seen: 6,
                visited_peak_bytes: 4096,
                spill: Some(SpillStats {
                    pages_written: 5,
                    pages_read: 3,
                    spilled_bytes: 960,
                    reloaded_bytes: 480,
                    bloom_skips: 17,
                    predicted_swap_bytes: 1300,
                    ..SpillStats::default()
                }),
                checkpoint_store: Some(CheckpointStoreStats {
                    snapshots: 3,
                    inserts: 12,
                    demotions: 4,
                    promotions: 2,
                    spilled_bytes: 2048,
                    ..CheckpointStoreStats::default()
                }),
                crash: Some(CrashStats {
                    crashes: 2,
                    recoveries: 2,
                    divergent_recoveries: 0,
                }),
                ..ExploreStats::default()
            },
        }
    }

    #[test]
    fn round_trip_is_identity_and_canonical() {
        let snap = sample();
        let bytes = encode_snapshot(&snap, &U32Codec);
        let back = decode_snapshot(&bytes, &U32Codec).expect("decode");
        // Visited comes back sorted; everything else verbatim.
        let mut expect = snap.clone();
        expect.visited.sort_unstable_by_key(|&(h, _)| h);
        assert_eq!(back, expect);
        // Canonical bytes: re-encoding the decoded snapshot is bit-identical.
        assert_eq!(encode_snapshot(&back, &U32Codec), bytes);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // The snapshot format is on-disk state: any byte drift breaks
        // resuming from snapshots written by an earlier build.
        let bytes = encode_snapshot(&sample(), &U32Codec);
        assert_eq!(bytes.len(), 491);
        assert_eq!(fnv128(&bytes), 0x2a862da6231ad36925707f5336aa339a);
        let empty = encode_snapshot(&RunSnapshot::<u32>::empty(9, 1), &U32Codec);
        assert_eq!(fnv128(&empty), 0x21feb1fe34f505c7b217792cd2f1db16);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = RunSnapshot::<u32>::empty(9, 1);
        let bytes = encode_snapshot(&snap, &U32Codec);
        assert_eq!(decode_snapshot(&bytes, &U32Codec).unwrap(), snap);
    }

    #[test]
    fn checksum_detects_any_flipped_bit() {
        let bytes = encode_snapshot(&sample(), &U32Codec);
        for pos in [8, 13, bytes.len() / 2, bytes.len() - 17] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = decode_snapshot(&bad, &U32Codec).unwrap_err();
            assert!(
                matches!(err, PickleError::ChecksumMismatch | PickleError::BadMagic),
                "flip at {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let bytes = encode_snapshot(&sample(), &U32Codec);
        assert_eq!(
            decode_snapshot::<u32>(&bytes[..10], &U32Codec).unwrap_err(),
            PickleError::Truncated
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_snapshot::<u32>(&bad, &U32Codec).unwrap_err(),
            PickleError::BadMagic
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_snapshot(&sample(), &U32Codec);
        // Patch the version field and re-stamp the checksum so only the
        // version check can fire.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 16;
        let sum = fnv128(&bytes[..body_len]);
        let tail = bytes.len() - 16;
        bytes[tail..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_snapshot::<u32>(&bytes, &U32Codec).unwrap_err(),
            PickleError::BadVersion(99)
        );
    }

    #[test]
    fn corrupt_length_cannot_overallocate() {
        // A visited count far beyond the stream's size must fail cleanly.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, 0); // seed
        put_u32(&mut out, 1); // workers
        put_u32(&mut out, 0); // generation
        put_u32(&mut out, u32::MAX); // visited count: absurd
        let sum = fnv128(&out);
        put_u128(&mut out, sum);
        assert!(matches!(
            decode_snapshot::<u32>(&out, &U32Codec).unwrap_err(),
            PickleError::Corrupt(_)
        ));
    }

    #[test]
    fn save_atomic_then_load() {
        let dir = std::env::temp_dir().join("mcfs-pickle-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pickle");
        let snap = sample();
        let bytes = encode_snapshot(&snap, &U32Codec);
        save_atomic(&path, &bytes).expect("save");
        assert!(!path.with_extension("pickle-tmp").exists(), "tmp cleaned");
        let back = load_snapshot(&path, &U32Codec).expect("load");
        assert_eq!(encode_snapshot(&back, &U32Codec), bytes);
        fs::remove_file(&path).ok();
    }
}
