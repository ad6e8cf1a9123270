//! Copy-on-write device images.
//!
//! A [`CowImage`] stores a device's bytes as fixed-size chunks behind
//! [`Arc`]s, held in a two-level table that is itself shared: a root of
//! leaves, each leaf holding a power-of-two run of chunks. Cloning an image
//! bumps one reference count, whatever the device size. The first write
//! after a clone copies one path (`Arc::make_mut` on the root, then the
//! leaf, then the chunk), so the image and its clone go on sharing every
//! chunk and every leaf the write did not touch.
//!
//! The leaf width follows from the geometry: the smallest power of two whose
//! square covers the chunk count, at most [`MAX_FANOUT`]. Root and leaf are
//! then about equally long, which minimizes the slots the first write
//! copies. The 256 KiB ext disks and the 1 MiB JFFS2 flash (64 chunks each)
//! get an 8 × 8 table, so that write copies 16 slots rather than 65; the
//! 16 MiB XFS disk (4,096 chunks) gets 64 × 64. Snapshots taken by the devices in
//! this crate are therefore O(1) to capture, restore and drop, and cheap to
//! hold: the live device and every saved snapshot share what neither side
//! has modified since the snapshot, which is what lets a deep DFS backtrack
//! spine fit in memory (the checker saves one snapshot per exploration
//! level).

use std::sync::Arc;

/// Widest leaf of the chunk table. A 16 MiB device at 4 KiB chunks has 64
/// leaves of 64, so a write to a freshly snapshotted image copies a 64-entry
/// root and a 64-entry leaf besides the chunk itself.
const MAX_FANOUT: usize = 64;

/// log2 of the leaf width for an image of `chunks` chunks: the smallest
/// power of two whose square is at least `chunks`, capped at
/// [`MAX_FANOUT`].
fn leaf_shift(chunks: usize) -> u32 {
    let mut shift = 0;
    while (1usize << (2 * shift)) < chunks && (1usize << shift) < MAX_FANOUT {
        shift += 1;
    }
    shift
}

/// One leaf of the chunk table: up to `1 << shift` consecutive chunks.
type Leaf = Arc<Vec<Arc<Vec<u8>>>>;

/// A chunked, structurally shared byte image.
///
/// The last chunk may be shorter than `chunk_size` when the image length is
/// not a multiple of the chunk size.
///
/// # Examples
///
/// ```
/// use blockdev::CowImage;
///
/// let mut live = CowImage::new(8192, 4096, 0);
/// live.write(10, b"hello");
/// let snap = live.clone(); // O(1) — one reference bump shares both chunks
/// live.write(10, b"WORLD"); // copies the table path and the first chunk
/// let mut buf = [0u8; 5];
/// snap.read(10, &mut buf);
/// assert_eq!(&buf, b"hello");
/// assert_eq!(snap.shared_bytes(), 4096, "untouched chunk still shared");
/// ```
#[derive(Debug, Clone)]
pub struct CowImage {
    chunk_size: usize,
    len: usize,
    /// log2 of the leaf width ([`leaf_shift`] of the chunk count).
    shift: u32,
    root: Arc<Vec<Leaf>>,
}

impl CowImage {
    /// Creates an image of `len` bytes filled with `fill`, chunked at
    /// `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero (callers pick the chunk size from the
    /// device geometry, which is validated first).
    pub fn new(len: usize, chunk_size: usize, fill: u8) -> Self {
        assert!(chunk_size > 0, "chunk size must be nonzero");
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_size));
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(chunk_size);
            chunks.push(vec![fill; n]);
            remaining -= n;
        }
        Self::tile(chunk_size, len, chunks)
    }

    /// Builds the chunk table over `chunks`, which must already tile `len`.
    fn tile(chunk_size: usize, len: usize, chunks: Vec<Vec<u8>>) -> Self {
        let shift = leaf_shift(chunks.len());
        let width = 1 << shift;
        let mut root = Vec::with_capacity(chunks.len().div_ceil(width));
        let mut chunks = chunks.into_iter().map(Arc::new).peekable();
        while chunks.peek().is_some() {
            root.push(Arc::new(chunks.by_ref().take(width).collect()));
        }
        CowImage {
            chunk_size,
            len,
            shift,
            root: Arc::new(root),
        }
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk granularity of copy-on-write sharing.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image (devices bound-check
    /// before calling).
    pub fn read(&self, mut offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= self.len, "cow read out of range");
        let mut done = 0;
        while done < buf.len() {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = self.chunk(ci);
            let n = (chunk.len() - co).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&chunk[co..co + n]);
            done += n;
            offset += n;
        }
    }

    /// Chunk `index` for writing: copies the root, the leaf and the chunk,
    /// each only if it is shared.
    fn chunk_mut(&mut self, index: usize) -> &mut Vec<u8> {
        let mask = (1 << self.shift) - 1;
        let leaf = Arc::make_mut(&mut Arc::make_mut(&mut self.root)[index >> self.shift]);
        Arc::make_mut(&mut leaf[index & mask])
    }

    /// Writes `data` at `offset`, copying only the touched chunks (and the
    /// table path to them) if they are shared with a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn write(&mut self, mut offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= self.len, "cow write out of range");
        let mut done = 0;
        while done < data.len() {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = self.chunk_mut(ci);
            let n = (chunk.len() - co).min(data.len() - done);
            chunk[co..co + n].copy_from_slice(&data[done..done + n]);
            done += n;
            offset += n;
        }
    }

    /// Fills `[offset, offset + len)` with `byte` (erase support).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn fill_range(&mut self, mut offset: usize, len: usize, byte: u8) {
        assert!(offset + len <= self.len, "cow fill out of range");
        let mut done = 0;
        while done < len {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = self.chunk_mut(ci);
            let n = (chunk.len() - co).min(len - done);
            chunk[co..co + n].fill(byte);
            done += n;
            offset += n;
        }
    }

    /// Adopts `other`'s content. Same chunk size: O(1), the image adopts
    /// `other`'s chunk table, whose leaf width is this image's too (the
    /// restore path — the live image re-shares the snapshot's chunks). Different chunk size: a byte copy preserving
    /// this image's chunking.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (devices geometry-check first).
    pub fn copy_from(&mut self, other: &CowImage) {
        assert_eq!(self.len, other.len, "cow image length mismatch");
        if self.chunk_size == other.chunk_size {
            self.root = Arc::clone(&other.root);
        } else {
            self.write(0, &other.to_vec());
        }
    }

    /// Chunk `index` itself, shared rather than copied. A caller that keeps
    /// the returned `Arc` keeps those bytes: any later write or fill of the
    /// chunk copies it first, because the chunk then has a second owner.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn chunk(&self, index: usize) -> &Arc<Vec<u8>> {
        &self.root[index >> self.shift][index & ((1 << self.shift) - 1)]
    }

    /// Iterates the image's chunks as byte slices, in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.root
            .iter()
            .flat_map(|leaf| leaf.iter().map(|c| c.as_slice()))
    }

    /// Reassembles an image from chunks previously produced by
    /// [`CowImage::chunks`] (e.g. reloaded from a disk spill tier). Returns
    /// `None` when the chunks do not tile an image of the given geometry:
    /// every chunk must be `chunk_size` bytes except a shorter final one.
    pub fn from_chunks(chunk_size: usize, chunks: Vec<Vec<u8>>) -> Option<Self> {
        if chunk_size == 0 {
            return None;
        }
        let len: usize = chunks.iter().map(Vec::len).sum();
        let n = chunks.len();
        for (i, c) in chunks.iter().enumerate() {
            let want = if i + 1 == n {
                len - (n - 1) * chunk_size
            } else {
                chunk_size
            };
            if c.len() != want || c.is_empty() || c.len() > chunk_size {
                return None;
            }
        }
        Some(Self::tile(chunk_size, len, chunks))
    }

    /// Materializes the full image as one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Bytes of this image whose chunks are shared with at least one other
    /// image (snapshot or live device), directly or through a shared leaf or
    /// root. `len() - shared_bytes()` is the memory uniquely attributable to
    /// this image.
    pub fn shared_bytes(&self) -> usize {
        if Arc::strong_count(&self.root) > 1 {
            return self.len;
        }
        self.root
            .iter()
            .flat_map(|leaf| {
                let leaf_shared = Arc::strong_count(leaf) > 1;
                leaf.iter()
                    .filter(move |c| leaf_shared || Arc::strong_count(c) > 1)
            })
            .map(|c| c.len())
            .sum()
    }
}

impl PartialEq for CowImage {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.chunk_size == other.chunk_size {
            return Arc::ptr_eq(&self.root, &other.root)
                || self.root.iter().zip(other.root.iter()).all(|(a, b)| {
                    Arc::ptr_eq(a, b)
                        || a.iter()
                            .zip(b.iter())
                            .all(|(x, y)| Arc::ptr_eq(x, y) || x == y)
                });
        }
        self.to_vec() == other.to_vec()
    }
}

impl Eq for CowImage {}

/// The one-level image this module first implemented: every chunk behind its
/// own `Arc` in one flat vector. The property tests below hold [`CowImage`]
/// to it, operation by operation.
#[cfg(test)]
mod flat {
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    pub(super) struct FlatImage {
        chunk_size: usize,
        len: usize,
        chunks: Vec<Arc<Vec<u8>>>,
    }

    impl FlatImage {
        pub(super) fn new(len: usize, chunk_size: usize, fill: u8) -> Self {
            assert!(chunk_size > 0, "chunk size must be nonzero");
            let mut chunks = Vec::with_capacity(len.div_ceil(chunk_size));
            let mut remaining = len;
            while remaining > 0 {
                let n = remaining.min(chunk_size);
                chunks.push(Arc::new(vec![fill; n]));
                remaining -= n;
            }
            FlatImage {
                chunk_size,
                len,
                chunks,
            }
        }

        pub(super) fn write(&mut self, mut offset: usize, data: &[u8]) {
            assert!(offset + data.len() <= self.len, "cow write out of range");
            let mut done = 0;
            while done < data.len() {
                let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
                let chunk = Arc::make_mut(&mut self.chunks[ci]);
                let n = (chunk.len() - co).min(data.len() - done);
                chunk[co..co + n].copy_from_slice(&data[done..done + n]);
                done += n;
                offset += n;
            }
        }

        pub(super) fn fill_range(&mut self, mut offset: usize, len: usize, byte: u8) {
            assert!(offset + len <= self.len, "cow fill out of range");
            let mut done = 0;
            while done < len {
                let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
                let chunk = Arc::make_mut(&mut self.chunks[ci]);
                let n = (chunk.len() - co).min(len - done);
                for b in &mut chunk[co..co + n] {
                    *b = byte;
                }
                done += n;
                offset += n;
            }
        }

        pub(super) fn copy_from(&mut self, other: &FlatImage) {
            assert_eq!(self.len, other.len, "cow image length mismatch");
            if self.chunk_size == other.chunk_size {
                self.chunks = other.chunks.clone();
            } else {
                self.write(0, &other.to_vec());
            }
        }

        pub(super) fn chunk(&self, index: usize) -> &Arc<Vec<u8>> {
            &self.chunks[index]
        }

        pub(super) fn chunks(&self) -> impl Iterator<Item = &[u8]> {
            self.chunks.iter().map(|c| c.as_slice())
        }

        pub(super) fn from_chunks(chunk_size: usize, chunks: Vec<Vec<u8>>) -> Option<Self> {
            if chunk_size == 0 {
                return None;
            }
            let len: usize = chunks.iter().map(Vec::len).sum();
            let n = chunks.len();
            for (i, c) in chunks.iter().enumerate() {
                let want = if i + 1 == n {
                    len - (n - 1) * chunk_size
                } else {
                    chunk_size
                };
                if c.len() != want || c.is_empty() || c.len() > chunk_size {
                    return None;
                }
            }
            Some(FlatImage {
                chunk_size,
                len,
                chunks: chunks.into_iter().map(Arc::new).collect(),
            })
        }

        pub(super) fn to_vec(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(self.len);
            for c in &self.chunks {
                out.extend_from_slice(c);
            }
            out
        }

        pub(super) fn shared_bytes(&self) -> usize {
            self.chunks
                .iter()
                .filter(|c| Arc::strong_count(c) > 1)
                .map(|c| c.len())
                .sum()
        }
    }

    impl PartialEq for FlatImage {
        fn eq(&self, other: &Self) -> bool {
            if self.len != other.len {
                return false;
            }
            if self.chunk_size == other.chunk_size {
                return self
                    .chunks
                    .iter()
                    .zip(&other.chunks)
                    .all(|(a, b)| Arc::ptr_eq(a, b) || a == b);
            }
            self.to_vec() == other.to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::flat::FlatImage;
    use super::*;
    use proptest::test_runner::TestRng;

    /// One image, kept in both implementations.
    #[derive(Clone)]
    struct Twin {
        cow: CowImage,
        flat: FlatImage,
    }

    /// A chunk held outside every image, the way
    /// `MtdDevice::read_erase_block` hands erase blocks to the JFFS2 scan
    /// memo, which later compares it with `Arc::ptr_eq` against `chunk(i)`.
    struct Pin {
        chunk_size: usize,
        index: usize,
        cow: Arc<Vec<u8>>,
        flat: Arc<Vec<u8>>,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write {
            img: usize,
            offset: usize,
            data: Vec<u8>,
        },
        Fill {
            img: usize,
            offset: usize,
            len: usize,
            byte: u8,
        },
        Clone {
            img: usize,
        },
        Drop {
            img: usize,
        },
        CopyFrom {
            dst: usize,
            src: usize,
        },
        FromChunks {
            img: usize,
        },
        Pin {
            img: usize,
            index: usize,
        },
        Unpin {
            pin: usize,
        },
    }

    /// Live images of one length and the pins taken from them. Every
    /// operation is applied to both implementations, then [`World::check`]
    /// compares everything a consumer can observe.
    struct World {
        images: Vec<Twin>,
        pins: Vec<Pin>,
    }

    impl World {
        fn new(len: usize, chunk_sizes: &[usize], fill: u8) -> Self {
            let images = chunk_sizes
                .iter()
                .map(|&cs| Twin {
                    cow: CowImage::new(len, cs, fill),
                    flat: FlatImage::new(len, cs, fill),
                })
                .collect();
            let world = World {
                images,
                pins: Vec::new(),
            };
            world.check();
            world
        }

        fn cow(&self, img: usize) -> &CowImage {
            &self.images[img].cow
        }

        fn apply(&mut self, op: &Op) {
            match op {
                Op::Write { img, offset, data } => {
                    let t = &mut self.images[*img];
                    t.cow.write(*offset, data);
                    t.flat.write(*offset, data);
                }
                Op::Fill {
                    img,
                    offset,
                    len,
                    byte,
                } => {
                    let t = &mut self.images[*img];
                    t.cow.fill_range(*offset, *len, *byte);
                    t.flat.fill_range(*offset, *len, *byte);
                }
                Op::Clone { img } => self.images.push(self.images[*img].clone()),
                Op::Drop { img } => {
                    self.images.remove(*img);
                }
                Op::CopyFrom { dst, src } => {
                    let src = self.images[*src].clone();
                    let t = &mut self.images[*dst];
                    t.cow.copy_from(&src.cow);
                    t.flat.copy_from(&src.flat);
                }
                Op::FromChunks { img } => {
                    let t = &self.images[*img];
                    let cs = t.cow.chunk_size();
                    let cow =
                        CowImage::from_chunks(cs, t.cow.chunks().map(<[u8]>::to_vec).collect());
                    let flat =
                        FlatImage::from_chunks(cs, t.flat.chunks().map(<[u8]>::to_vec).collect());
                    self.images.push(Twin {
                        cow: cow.expect("an image's own chunks tile it"),
                        flat: flat.expect("an image's own chunks tile it"),
                    });
                }
                Op::Pin { img, index } => {
                    let t = &self.images[*img];
                    self.pins.push(Pin {
                        chunk_size: t.cow.chunk_size(),
                        index: *index,
                        cow: Arc::clone(t.cow.chunk(*index)),
                        flat: Arc::clone(t.flat.chunk(*index)),
                    });
                }
                Op::Unpin { pin } => {
                    self.pins.remove(*pin);
                }
            }
            self.check();
        }

        fn check(&self) {
            for (i, t) in self.images.iter().enumerate() {
                let bytes = t.flat.to_vec();
                assert_eq!(t.cow.len(), bytes.len(), "image {i}: len");
                assert_eq!(t.cow.to_vec(), bytes, "image {i}: to_vec");
                let mut read = vec![0u8; bytes.len()];
                t.cow.read(0, &mut read);
                assert_eq!(read, bytes, "image {i}: read");
                assert!(t.cow.chunks().eq(t.flat.chunks()), "image {i}: chunks");
                assert_eq!(
                    t.cow.shared_bytes(),
                    t.flat.shared_bytes(),
                    "image {i}: shared_bytes"
                );
            }
            for (i, a) in self.images.iter().enumerate() {
                for (j, b) in self.images.iter().enumerate().skip(i) {
                    assert_eq!(a.cow == b.cow, a.flat == b.flat, "images {i},{j}: eq");
                    if a.cow.chunk_size() != b.cow.chunk_size() {
                        continue;
                    }
                    for k in 0..a.cow.len().div_ceil(a.cow.chunk_size()) {
                        assert_eq!(
                            Arc::ptr_eq(a.cow.chunk(k), b.cow.chunk(k)),
                            Arc::ptr_eq(a.flat.chunk(k), b.flat.chunk(k)),
                            "images {i},{j}: chunk {k} identity"
                        );
                    }
                }
            }
            for (p, pin) in self.pins.iter().enumerate() {
                assert_eq!(pin.cow, pin.flat, "pin {p}: bytes");
                for (i, t) in self.images.iter().enumerate() {
                    if t.cow.chunk_size() == pin.chunk_size {
                        assert_eq!(
                            Arc::ptr_eq(&pin.cow, t.cow.chunk(pin.index)),
                            Arc::ptr_eq(&pin.flat, t.flat.chunk(pin.index)),
                            "pin {p}, image {i}: chunk {} identity",
                            pin.index
                        );
                    }
                }
            }
        }
    }

    fn below(rng: &mut TestRng, bound: usize) -> usize {
        rng.below(bound as u128) as usize
    }

    /// A byte range of an image of `len` bytes chunked at `cs`, anchored at a
    /// chunk start, a chunk end, a leaf boundary or anywhere, and empty,
    /// chunk-sized, a few chunks long or longer than a leaf.
    fn span(rng: &mut TestRng, len: usize, cs: usize) -> (usize, usize) {
        let nchunks = len.div_ceil(cs);
        let width = 1 << leaf_shift(nchunks);
        let k = below(rng, nchunks);
        let offset = match below(rng, 4) {
            0 => k * cs,
            1 => ((k + 1) * cs).min(len) - 1,
            2 => ((k / width) * width * cs).saturating_sub(below(rng, 2 * cs)),
            _ => k * cs + below(rng, cs.min(len - k * cs)),
        };
        let n = match below(rng, 8) {
            0 => 0,
            1..=3 => 1 + below(rng, cs),
            4..=6 => 1 + below(rng, 3 * cs),
            _ => 1 + below(rng, (width + 2) * cs),
        };
        (offset, n.min(len - offset))
    }

    fn random_op(rng: &mut TestRng, world: &World, max_images: usize) -> Op {
        let n = world.images.len();
        let img = below(rng, n);
        let (len, cs) = (world.cow(img).len(), world.cow(img).chunk_size());
        loop {
            return match below(rng, 16) {
                0..=4 => {
                    let (offset, n) = span(rng, len, cs);
                    let seed = rng.next_u64() as u8;
                    let data = (0..n).map(|i| seed.wrapping_add(i as u8)).collect();
                    Op::Write { img, offset, data }
                }
                5..=6 => {
                    let (offset, len) = span(rng, len, cs);
                    let byte = rng.next_u64() as u8;
                    Op::Fill {
                        img,
                        offset,
                        len,
                        byte,
                    }
                }
                7..=8 if n < max_images => Op::Clone { img },
                9 if n > 1 => Op::Drop { img },
                10..=11 => Op::CopyFrom {
                    dst: img,
                    src: below(rng, n),
                },
                12 if n < max_images => Op::FromChunks { img },
                13..=14 => Op::Pin {
                    img,
                    index: below(rng, len.div_ceil(cs)),
                },
                15 if !world.pins.is_empty() => Op::Unpin {
                    pin: below(rng, world.pins.len()),
                },
                _ => continue,
            };
        }
    }

    fn run_random(seed: u64, len: usize, chunk_sizes: &[usize], steps: usize, max_images: usize) {
        let mut rng = TestRng::from_seed(seed);
        let mut world = World::new(len, chunk_sizes, 0xFF);
        for step in 0..steps {
            let op = random_op(&mut rng, &world, max_images);
            let shown = match &op {
                Op::Write { img, offset, data } => {
                    format!(
                        "Write {{ img: {img}, offset: {offset}, len: {} }}",
                        data.len()
                    )
                }
                other => format!("{other:?}"),
            };
            eprintln!("seed {seed} step {step}: {shown}");
            world.apply(&op);
        }
    }

    #[test]
    fn matches_flat_reference_on_small_multi_leaf_images() {
        // 200 chunks of 8 bytes with a 3-byte tail: twelve full leaves of
        // 16 and a partial thirteenth. The 5- and 64-byte chunkings of the
        // same length (leaves of 32 and 8) exercise copy_from across chunk
        // sizes.
        let len = 199 * 8 + 3;
        for seed in 0..8 {
            run_random(seed, len, &[8, 8, 5, 64], 300, 6);
        }
    }

    #[test]
    fn matches_flat_reference_on_a_16_mib_device() {
        // The XFS device: 4096 chunks of 4 KiB, 64 full leaves. The 12 KiB
        // chunking ends in a partial leaf with a short tail chunk.
        for seed in 100..102 {
            run_random(seed, 16 << 20, &[4096, 4096, 12 << 10], 12, 4);
        }
    }

    #[test]
    fn construction_and_tail_chunk() {
        let world = World::new(10, &[4], 0xFF);
        let sizes: Vec<usize> = world.cow(0).chunks().map(<[u8]>::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(world.cow(0).to_vec(), vec![0xFF; 10]);
    }

    #[test]
    fn read_write_across_chunk_boundaries() {
        let mut world = World::new(16, &[4], 0);
        world.apply(&Op::Write {
            img: 0,
            offset: 2,
            data: vec![1, 2, 3, 4, 5, 6], // spans chunks 0..=1
        });
        let mut buf = [0u8; 8];
        world.cow(0).read(0, &mut buf);
        assert_eq!(buf, [0, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut world = World::new(16, &[4], 0);
        world.apply(&Op::Clone { img: 0 });
        assert_eq!(world.cow(0).shared_bytes(), 16);
        world.apply(&Op::Write {
            img: 0,
            offset: 0,
            data: vec![9; 4], // unshares chunk 0 only
        });
        assert_eq!(world.cow(0).shared_bytes(), 12);
        assert_eq!(world.cow(1).to_vec(), vec![0; 16], "snapshot unaffected");
        assert_eq!(&world.cow(0).to_vec()[..4], &[9; 4]);
    }

    #[test]
    fn fill_range_spans_chunks() {
        let mut world = World::new(12, &[4], 0);
        world.apply(&Op::Fill {
            img: 0,
            offset: 3,
            len: 6,
            byte: 0xAB,
        });
        let v = world.cow(0).to_vec();
        assert_eq!(&v[3..9], &[0xAB; 6]);
        assert_eq!(v[2], 0);
        assert_eq!(v[9], 0);
    }

    #[test]
    fn copy_from_reshares_on_same_chunking() {
        let mut world = World::new(16, &[4], 0);
        let write = |byte| Op::Write {
            img: 0,
            offset: 0,
            data: vec![byte; 16],
        };
        world.apply(&write(7));
        world.apply(&Op::Clone { img: 0 });
        world.apply(&write(1));
        assert_eq!(world.cow(0).shared_bytes(), 0);
        world.apply(&Op::CopyFrom { dst: 0, src: 1 });
        assert_eq!(world.cow(0).to_vec(), vec![7; 16]);
        assert_eq!(
            world.cow(0).shared_bytes(),
            16,
            "restore re-shares every chunk"
        );
    }

    #[test]
    fn copy_from_rechunks_on_mismatch() {
        let mut world = World::new(16, &[4, 8], 0);
        world.apply(&Op::Write {
            img: 1,
            offset: 5,
            data: vec![3, 3, 3],
        });
        world.apply(&Op::CopyFrom { dst: 0, src: 1 });
        assert_eq!(world.cow(0).to_vec(), world.cow(1).to_vec());
        assert_eq!(world.cow(0).chunk_size(), 4, "keeps its own chunking");
    }

    #[test]
    fn equality_is_by_content() {
        let mut world = World::new(8, &[4, 2], 0);
        let write = |img| Op::Write {
            img,
            offset: 1,
            data: vec![5],
        };
        assert_eq!(world.cow(0), world.cow(1));
        world.apply(&write(0));
        assert_ne!(world.cow(0), world.cow(1));
        world.apply(&write(1));
        assert_eq!(world.cow(0), world.cow(1));
    }

    #[test]
    fn from_chunks_rejects_what_the_reference_rejects() {
        let bad: [(usize, Vec<Vec<u8>>); 4] = [
            (0, vec![vec![1]]),
            (4, vec![vec![1; 4], vec![1; 3], vec![1; 4]]),
            (4, vec![vec![1; 4], vec![]]),
            (4, vec![vec![1; 4], vec![1; 5]]),
        ];
        for (cs, chunks) in bad {
            assert!(FlatImage::from_chunks(cs, chunks.clone()).is_none());
            assert!(CowImage::from_chunks(cs, chunks).is_none());
        }
        let mut world = World::new(0, &[4, 4], 0);
        world.apply(&Op::FromChunks { img: 0 });
        world.apply(&Op::Clone { img: 2 });
        assert!(world.cow(3).is_empty());
    }

    #[test]
    fn leaf_width_is_the_square_root_of_the_chunk_count() {
        let widths: Vec<usize> = [0, 1, 2, 4, 5, 7, 64, 65, 256, 4096, 5000]
            .iter()
            .map(|&n| 1 << leaf_shift(n))
            .collect();
        assert_eq!(widths, [1, 1, 2, 2, 4, 4, 8, 16, 16, 64, 64]);
    }

    /// The ext and JFFS2 devices' geometry: a clone of a 64-chunk image,
    /// then one write, leaves the write's leaf private and every other leaf
    /// shared, so the write copied an 8-slot root and an 8-slot leaf.
    #[test]
    fn one_write_after_a_clone_leaves_every_other_leaf_shared() {
        let mut live = CowImage::new(64 * 4096, 4096, 0);
        let snap = live.clone();
        live.write(10 * 4096 + 5, b"x");
        assert_eq!(live.root.len(), 8);
        for (l, (a, b)) in live.root.iter().zip(snap.root.iter()).enumerate() {
            assert_eq!(a.len(), 8);
            assert_eq!(Arc::ptr_eq(a, b), l != 1, "leaf {l}");
        }
        assert_eq!(live.shared_bytes(), 63 * 4096);
        let xfs = CowImage::new(16 << 20, 4096, 0);
        assert_eq!((xfs.root.len(), xfs.root[0].len()), (64, 64));
    }

    /// One image of the flat model: its bytes, and for each chunk the write
    /// that last produced it. Two images share a chunk exactly when they
    /// hold the same write at the same index.
    #[derive(Clone)]
    struct Model {
        bytes: Vec<u8>,
        origin: Vec<u64>,
    }

    /// Applies `f` to `[offset, offset + n)` of both sides and gives every
    /// touched chunk a fresh origin.
    fn touch(
        cow: &mut CowImage,
        model: &mut Model,
        next: &mut u64,
        (offset, n): (usize, usize),
        f: impl Fn(&mut CowImage, &mut [u8]),
    ) {
        f(cow, &mut model.bytes[offset..offset + n]);
        if n > 0 {
            let cs = cow.chunk_size();
            for c in offset / cs..=(offset + n - 1) / cs {
                *next += 1;
                model.origin[c] = *next;
            }
        }
    }

    fn check_against(images: &[CowImage], models: &[Model], cs: usize) {
        for (i, (img, m)) in images.iter().zip(models).enumerate() {
            assert_eq!(img.to_vec(), m.bytes, "image {i}: bytes");
            let shared: usize = (0..m.origin.len())
                .filter(|&k| {
                    models
                        .iter()
                        .enumerate()
                        .any(|(j, o)| j != i && o.origin[k] == m.origin[k])
                })
                .map(|k| cs.min(m.bytes.len() - k * cs))
                .sum();
            assert_eq!(img.shared_bytes(), shared, "image {i}: shared_bytes");
            for (j, (other, om)) in images.iter().zip(models).enumerate() {
                assert_eq!(*img == *other, m.bytes == om.bytes, "images {i},{j}: ==");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// Random writes, fills, clones, drops and `copy_from`s against a
        /// flat byte-vector model, at 1, 7, 64, 65 and 4,096 chunks (leaf
        /// widths 1, 4, 8, 16 and 64), each with a short tail chunk.
        #[test]
        fn matches_a_flat_byte_model_at_every_leaf_width(
            size in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>(),
                 proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                1..48,
            ),
        ) {
            const CS: usize = 16;
            let chunks = [1, 7, 64, 65, 4096][size];
            let len = (chunks - 1) * CS + 9;
            let mut images = vec![CowImage::new(len, CS, 0xFF)];
            let mut models = vec![Model { bytes: vec![0xFF; len], origin: vec![0; chunks] }];
            let mut next = 0u64;
            for (kind, a, b, c, byte) in ops {
                let n = images.len();
                let (img, other) = (a % n, c % n);
                // Spans up to two leaves of the widest table long.
                let offset = b % len;
                let span = (offset, (c % (130 * CS)).min(len - offset));
                match kind {
                    0 => touch(&mut images[img], &mut models[img], &mut next, span, |cow, m| {
                        let data: Vec<u8> = (0..m.len()).map(|i| byte.wrapping_add(i as u8)).collect();
                        cow.write(span.0, &data);
                        m.copy_from_slice(&data);
                    }),
                    1 => touch(&mut images[img], &mut models[img], &mut next, span, |cow, m| {
                        cow.fill_range(span.0, m.len(), byte);
                        m.fill(byte);
                    }),
                    2 if n < 6 => {
                        images.push(images[img].clone());
                        models.push(models[img].clone());
                    }
                    3 => {
                        let src = images[other].clone();
                        images[img].copy_from(&src);
                        models[img] = models[other].clone();
                    }
                    4 if n > 1 => {
                        images.remove(img);
                        models.remove(img);
                    }
                    _ => {}
                }
                check_against(&images, &models, CS);
            }
        }
    }
}
