//! From-scratch MD5 message digest (RFC 1321).
//!
//! MCFS's abstraction functions (Algorithm 1 in the paper) hash the abstract
//! state of a file system — pathnames, file contents, and the "important"
//! metadata attributes — with MD5. This crate provides that digest without an
//! external dependency, plus a [`Digest128`] value type that the model checker
//! uses as its abstract-state fingerprint.
//!
//! MD5 is not collision resistant against adversaries; here it is used only to
//! fingerprint states produced by the checker itself, matching the paper's
//! design.
//!
//! The kernel runs the 64 RFC 1321 steps unrolled with their constants
//! inline, compresses whole 64-byte blocks straight from the input slice,
//! and pads in one pass. A seeded differential test holds it to a plain
//! reference implementation (rolled loop, table constants, byte-at-a-time
//! padding) over every length up to 1,024 bytes, and over every split point
//! of a two-call `update` for lengths up to 200 and for 1,024.
//!
//! [`Md5`] is `Clone`, so a context can be saved after a common prefix and
//! resumed: the fingerprint layer keeps the context after each distinct file
//! content and resumes from it instead of rehashing the bytes.
//!
//! # Examples
//!
//! ```
//! use mdigest::Md5;
//!
//! let mut ctx = Md5::new();
//! ctx.update(b"abc");
//! assert_eq!(ctx.finalize().to_hex(), "900150983cd24fb0d6963f7d28e17f72");
//! ```

mod md5;

pub use md5::Md5;

use std::fmt;

/// A 128-bit digest value.
///
/// Produced by [`Md5::finalize`]; also usable directly as a compact
/// fingerprint (the model checker stores visited states as `Digest128`).
///
/// # Examples
///
/// ```
/// use mdigest::{md5, Digest128};
///
/// let d: Digest128 = md5(b"");
/// assert_eq!(d.to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest128([u8; 16]);

impl Digest128 {
    /// Creates a digest from raw bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        Digest128(bytes)
    }

    /// Returns the digest as raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Returns the digest as a `u128` (little-endian), convenient for use as a
    /// hash-set key.
    pub fn as_u128(&self) -> u128 {
        u128::from_le_bytes(self.0)
    }

    /// Renders the digest as a lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to a String cannot fail");
        }
        s
    }
}

impl fmt::Display for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 16]> for Digest128 {
    fn from(bytes: [u8; 16]) -> Self {
        Digest128(bytes)
    }
}

impl From<Digest128> for u128 {
    fn from(d: Digest128) -> u128 {
        d.as_u128()
    }
}

/// Computes the MD5 digest of `data` in one call.
///
/// # Examples
///
/// ```
/// assert_eq!(
///     mdigest::md5(b"message digest").to_hex(),
///     "f96b697d7cb7938d525a2f31aaf161d0",
/// );
/// ```
pub fn md5(data: &[u8]) -> Digest128 {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let vectors: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in vectors {
            assert_eq!(md5(input).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_update_matches_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let oneshot = md5(data);
        for split in 0..data.len() {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn long_input_crossing_many_blocks() {
        // 200,000 bytes of a repeating pattern: exercises multi-block
        // processing and the 64-bit length field.
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let a = md5(&data);
        let mut ctx = Md5::new();
        for chunk in data.chunks(977) {
            ctx.update(chunk);
        }
        assert_eq!(ctx.finalize(), a);
    }

    #[test]
    fn digest_display_and_u128_roundtrip() {
        let d = md5(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
        let back = Digest128::from_bytes(d.as_u128().to_le_bytes());
        assert_eq!(back, d);
    }

    #[test]
    fn empty_update_is_noop() {
        let mut ctx = Md5::new();
        ctx.update(b"");
        ctx.update(b"abc");
        ctx.update(b"");
        assert_eq!(ctx.finalize().to_hex(), "900150983cd24fb0d6963f7d28e17f72");
    }

    #[test]
    fn default_digest_is_zero() {
        assert_eq!(Digest128::default().as_u128(), 0);
    }
}
