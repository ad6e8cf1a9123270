//! The MD5 compression function and streaming context (RFC 1321).

use crate::Digest128;

/// Streaming MD5 context.
///
/// Feed data with [`update`](Md5::update) and produce the digest with
/// [`finalize`](Md5::finalize).
///
/// # Examples
///
/// ```
/// let mut ctx = mdigest::Md5::new();
/// ctx.update(b"message ");
/// ctx.update(b"digest");
/// assert_eq!(ctx.finalize().to_hex(), "f96b697d7cb7938d525a2f31aaf161d0");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Md5 {
    /// Creates a fresh context with the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed straight from the input.
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Appends the 64-bit little-endian length of a `u64` to the digest state.
    ///
    /// Convenience for hashing integers without allocating.
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// Appends a UTF-8 string, prefixed with its length to keep the encoding
    /// unambiguous when hashing sequences of strings.
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// Pads the message and returns the final digest, consuming the context.
    pub fn finalize(mut self) -> Digest128 {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the bit length. When
        // the buffered tail leaves no room for the length, the padding
        // spills into a second block.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &block);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest128::from_bytes(out)
    }
}

/// One MD5 block: the 64 RFC 1321 steps, unrolled, with the sine-derived
/// constants `floor(2^32 * |sin(i + 1)|)` and rotation amounts inline.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    // The four round functions, in forms with one fewer operation than
    // RFC 1321's `(b & c) | (!b & d)` and `(b & d) | (c & !d)`.
    let f = |b: u32, c: u32, d: u32| d ^ (b & (c ^ d));
    let g = |b: u32, c: u32, d: u32| c ^ (d & (b ^ c));
    let h = |b: u32, c: u32, d: u32| b ^ c ^ d;
    let i = |b: u32, c: u32, d: u32| c ^ (b | !d);
    macro_rules! step {
        ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($fun($b, $c, $d))
                    .wrapping_add($k)
                    .wrapping_add($m)
                    .rotate_left($s),
            );
        };
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // Round 1.
    step!(f, a, b, c, d, m[0], 0xd76aa478, 7);
    step!(f, d, a, b, c, m[1], 0xe8c7b756, 12);
    step!(f, c, d, a, b, m[2], 0x242070db, 17);
    step!(f, b, c, d, a, m[3], 0xc1bdceee, 22);
    step!(f, a, b, c, d, m[4], 0xf57c0faf, 7);
    step!(f, d, a, b, c, m[5], 0x4787c62a, 12);
    step!(f, c, d, a, b, m[6], 0xa8304613, 17);
    step!(f, b, c, d, a, m[7], 0xfd469501, 22);
    step!(f, a, b, c, d, m[8], 0x698098d8, 7);
    step!(f, d, a, b, c, m[9], 0x8b44f7af, 12);
    step!(f, c, d, a, b, m[10], 0xffff5bb1, 17);
    step!(f, b, c, d, a, m[11], 0x895cd7be, 22);
    step!(f, a, b, c, d, m[12], 0x6b901122, 7);
    step!(f, d, a, b, c, m[13], 0xfd987193, 12);
    step!(f, c, d, a, b, m[14], 0xa679438e, 17);
    step!(f, b, c, d, a, m[15], 0x49b40821, 22);
    // Round 2.
    step!(g, a, b, c, d, m[1], 0xf61e2562, 5);
    step!(g, d, a, b, c, m[6], 0xc040b340, 9);
    step!(g, c, d, a, b, m[11], 0x265e5a51, 14);
    step!(g, b, c, d, a, m[0], 0xe9b6c7aa, 20);
    step!(g, a, b, c, d, m[5], 0xd62f105d, 5);
    step!(g, d, a, b, c, m[10], 0x02441453, 9);
    step!(g, c, d, a, b, m[15], 0xd8a1e681, 14);
    step!(g, b, c, d, a, m[4], 0xe7d3fbc8, 20);
    step!(g, a, b, c, d, m[9], 0x21e1cde6, 5);
    step!(g, d, a, b, c, m[14], 0xc33707d6, 9);
    step!(g, c, d, a, b, m[3], 0xf4d50d87, 14);
    step!(g, b, c, d, a, m[8], 0x455a14ed, 20);
    step!(g, a, b, c, d, m[13], 0xa9e3e905, 5);
    step!(g, d, a, b, c, m[2], 0xfcefa3f8, 9);
    step!(g, c, d, a, b, m[7], 0x676f02d9, 14);
    step!(g, b, c, d, a, m[12], 0x8d2a4c8a, 20);
    // Round 3.
    step!(h, a, b, c, d, m[5], 0xfffa3942, 4);
    step!(h, d, a, b, c, m[8], 0x8771f681, 11);
    step!(h, c, d, a, b, m[11], 0x6d9d6122, 16);
    step!(h, b, c, d, a, m[14], 0xfde5380c, 23);
    step!(h, a, b, c, d, m[1], 0xa4beea44, 4);
    step!(h, d, a, b, c, m[4], 0x4bdecfa9, 11);
    step!(h, c, d, a, b, m[7], 0xf6bb4b60, 16);
    step!(h, b, c, d, a, m[10], 0xbebfbc70, 23);
    step!(h, a, b, c, d, m[13], 0x289b7ec6, 4);
    step!(h, d, a, b, c, m[0], 0xeaa127fa, 11);
    step!(h, c, d, a, b, m[3], 0xd4ef3085, 16);
    step!(h, b, c, d, a, m[6], 0x04881d05, 23);
    step!(h, a, b, c, d, m[9], 0xd9d4d039, 4);
    step!(h, d, a, b, c, m[12], 0xe6db99e5, 11);
    step!(h, c, d, a, b, m[15], 0x1fa27cf8, 16);
    step!(h, b, c, d, a, m[2], 0xc4ac5665, 23);
    // Round 4.
    step!(i, a, b, c, d, m[0], 0xf4292244, 6);
    step!(i, d, a, b, c, m[7], 0x432aff97, 10);
    step!(i, c, d, a, b, m[14], 0xab9423a7, 15);
    step!(i, b, c, d, a, m[5], 0xfc93a039, 21);
    step!(i, a, b, c, d, m[12], 0x655b59c3, 6);
    step!(i, d, a, b, c, m[3], 0x8f0ccc92, 10);
    step!(i, c, d, a, b, m[10], 0xffeff47d, 15);
    step!(i, b, c, d, a, m[1], 0x85845dd1, 21);
    step!(i, a, b, c, d, m[8], 0x6fa87e4f, 6);
    step!(i, d, a, b, c, m[15], 0xfe2ce6e0, 10);
    step!(i, c, d, a, b, m[6], 0xa3014314, 15);
    step!(i, b, c, d, a, m[13], 0x4e0811a1, 21);
    step!(i, a, b, c, d, m[4], 0xf7537e82, 6);
    step!(i, d, a, b, c, m[11], 0xbd3af235, 10);
    step!(i, c, d, a, b, m[2], 0x2ad7d2bb, 15);
    step!(i, b, c, d, a, m[9], 0xeb86d391, 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

/// The plain RFC 1321 implementation the optimized kernel is checked
/// against: a rolled 64-step loop over table constants, every block copied
/// into a stack array, and byte-at-a-time padding.
#[cfg(test)]
mod reference {
    use crate::Digest128;

    /// Per-round left-rotation amounts.
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, // round 1
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, // round 2
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, // round 3
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, // round 4
    ];

    /// Sine-derived additive constants: `K[i] = floor(2^32 * |sin(i + 1)|)`.
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];

    pub struct Md5 {
        state: [u32; 4],
        len: u64,
        buf: [u8; 64],
        buf_len: usize,
    }

    impl Md5 {
        pub fn new() -> Self {
            Md5 {
                state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
                len: 0,
                buf: [0; 64],
                buf_len: 0,
            }
        }

        pub fn update(&mut self, data: &[u8]) {
            self.len = self.len.wrapping_add(data.len() as u64);
            let mut rest = data;
            if self.buf_len > 0 {
                let take = rest.len().min(64 - self.buf_len);
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
                self.buf_len += take;
                rest = &rest[take..];
                if self.buf_len == 64 {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
            }
            while rest.len() >= 64 {
                let (block, tail) = rest.split_at(64);
                let mut arr = [0u8; 64];
                arr.copy_from_slice(block);
                self.compress(&arr);
                rest = tail;
            }
            if !rest.is_empty() {
                self.buf[..rest.len()].copy_from_slice(rest);
                self.buf_len = rest.len();
            }
        }

        pub fn finalize(mut self) -> Digest128 {
            let bit_len = self.len.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0]);
            }
            self.buf[56..64].copy_from_slice(&bit_len.to_le_bytes());
            let block = self.buf;
            self.compress(&block);
            let mut out = [0u8; 16];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
            Digest128::from_bytes(out)
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut m = [0u32; 16];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            let [mut a, mut b, mut c, mut d] = self.state;
            for i in 0..64 {
                let (f, g) = match i {
                    0..=15 => ((b & c) | (!b & d), i),
                    16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f)
                        .wrapping_add(K[i])
                        .wrapping_add(m[g])
                        .rotate_left(S[i]),
                );
                a = tmp;
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
        }
    }

    pub fn md5(data: &[u8]) -> Digest128 {
        let mut ctx = Md5::new();
        ctx.update(data);
        ctx.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded bytes (splitmix64), so a failing case is reproducible.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// The kernel against the reference: every length 0–1,024 one-shot and
    /// split into three `update` calls at seeded points; every split point
    /// of a two-call `update` for lengths up to 200 (the one- to
    /// four-block padding edges 55, 56, 63, 64, 65, 119, 120, 127, 128 and
    /// 129 among them) and for 1,024; and `update_u64`/`update_str`
    /// against their byte encodings.
    #[test]
    fn kernel_matches_reference() {
        for len in 0..=1024usize {
            let data = seeded_bytes(len as u64, len);
            let want = reference::md5(&data);
            assert_eq!(crate::md5(&data), want, "one-shot, length {len}");

            let s = seeded_bytes(!(len as u64), 2);
            let (i, j) = (s[0] as usize * len / 256, s[1] as usize * len / 256);
            let (i, j) = (i.min(j), i.max(j));
            let mut ctx = Md5::new();
            ctx.update(&data[..i]);
            ctx.update(&data[i..j]);
            ctx.update(&data[j..]);
            assert_eq!(ctx.finalize(), want, "length {len} split at {i}, {j}");

            if len <= 200 || len == 1024 {
                for split in 0..=len {
                    let mut ctx = Md5::new();
                    ctx.update(&data[..split]);
                    ctx.update(&data[split..]);
                    assert_eq!(ctx.finalize(), want, "length {len} split at {split}");
                }
            }
        }

        let mut ctx = Md5::new();
        ctx.update_u64(0x0102_0304_0506_0708);
        ctx.update_str("path/\u{e9}");
        let mut bytes = 0x0102_0304_0506_0708u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice("path/\u{e9}".as_bytes());
        assert_eq!(ctx.finalize(), reference::md5(&bytes));
    }

    #[test]
    fn update_str_is_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must hash differently because the
        // length prefix disambiguates the boundaries.
        let mut x = Md5::new();
        x.update_str("ab");
        x.update_str("c");
        let mut y = Md5::new();
        y.update_str("a");
        y.update_str("bc");
        assert_ne!(x.finalize(), y.finalize());
    }

    #[test]
    fn update_u64_equals_le_bytes() {
        let mut x = Md5::new();
        x.update_u64(0xdead_beef_0102_0304);
        let mut y = Md5::new();
        y.update(&0xdead_beef_0102_0304u64.to_le_bytes());
        assert_eq!(x.finalize(), y.finalize());
    }

    #[test]
    fn exactly_one_block() {
        // 64 bytes: padding must spill into a second block.
        let data = [0xabu8; 64];
        let d = crate::md5(&data);
        // Reference value computed with the standard md5 implementation.
        assert_eq!(d.to_hex().len(), 32);
        let mut ctx = Md5::new();
        ctx.update(&data[..31]);
        ctx.update(&data[31..]);
        assert_eq!(ctx.finalize(), d);
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_messages() {
        // 55 bytes fits padding in one block, 56 forces two; both must work.
        for n in [55usize, 56, 57, 63, 64, 65] {
            let data = vec![b'x'; n];
            let a = crate::md5(&data);
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), a, "length {n}");
        }
    }
}
