//! Directory-content records.
//!
//! Directory files contain a packed sequence of records:
//!
//! ```text
//! ino: u32 | ftype: u8 | name_len: u8 | name bytes
//! ```
//!
//! Records keep insertion order (new entries append), so `getdents` returns
//! entries in creation order — different from VeriFS's sorted order, which is
//! one of the benign cross-file-system differences MCFS must normalize
//! (paper §3.4).

use vfs::{Errno, VfsResult};

/// One parsed directory record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirRecord {
    /// Inode the entry points at.
    pub ino: u32,
    /// On-disk file-type tag ([`crate::layout::FT_REG`] etc.).
    pub ftype: u8,
    /// Entry name.
    pub name: String,
}

/// Parses directory content bytes into records.
///
/// # Errors
///
/// `EIO` if the content is structurally invalid (truncated record or
/// non-UTF-8 name) — i.e. directory corruption.
pub fn parse(content: &[u8]) -> VfsResult<Vec<DirRecord>> {
    match salvage(content) {
        (records, false) => Ok(records),
        (_, true) => Err(Errno::EIO),
    }
}

/// Parses as many whole records as possible, stopping at the first
/// structural error (instead of rejecting the whole directory the way
/// [`parse`] does — fsck keeps what it can). Returns the salvaged prefix and
/// whether anything was dropped.
pub fn salvage(content: &[u8]) -> (Vec<DirRecord>, bool) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < content.len() {
        let Some((ino, ftype, name)) = record_at(content, pos) else {
            return (out, true);
        };
        out.push(DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        });
        pos += 6 + name.len();
    }
    (out, false)
}

/// The record starting at `pos` (`ino`, `ftype`, name), borrowed from
/// `content`; `None` if it is truncated or its name is not UTF-8.
fn record_at(content: &[u8], pos: usize) -> Option<(u32, u8, &str)> {
    let head = content.get(pos..pos + 6)?;
    let ino = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let name = content.get(pos + 6..pos + 6 + head[5] as usize)?;
    Some((ino, head[4], std::str::from_utf8(name).ok()?))
}

/// The inode of the first record named `name`, scanning `content` in
/// place: [`parse`] followed by [`find`], without building the records.
///
/// # Errors
///
/// `EIO` exactly when [`parse`] fails: any structurally invalid record,
/// before or after the match.
pub fn lookup(content: &[u8], name: &str) -> VfsResult<Option<u32>> {
    let mut found = None;
    let mut pos = 0usize;
    while pos < content.len() {
        let (ino, _, rec) = record_at(content, pos).ok_or(Errno::EIO)?;
        if found.is_none() && rec == name {
            found = Some(ino);
        }
        pos += 6 + rec.len();
    }
    Ok(found)
}

/// Serializes records back to content bytes.
pub fn serialize(records: &[DirRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&r.ino.to_le_bytes());
        out.push(r.ftype);
        out.push(r.name.len() as u8);
        out.extend_from_slice(r.name.as_bytes());
    }
    out
}

/// Finds a record by name.
pub fn find<'r>(records: &'r [DirRecord], name: &str) -> Option<&'r DirRecord> {
    records.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{FT_DIR, FT_REG};

    #[test]
    fn roundtrip_preserves_order() {
        let recs = vec![
            DirRecord {
                ino: 5,
                ftype: FT_REG,
                name: "zeta".into(),
            },
            DirRecord {
                ino: 9,
                ftype: FT_DIR,
                name: "alpha".into(),
            },
        ];
        let bytes = serialize(&recs);
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed, recs, "insertion order must survive");
        assert_eq!(find(&parsed, "alpha").unwrap().ino, 9);
        assert!(find(&parsed, "nope").is_none());
    }

    #[test]
    fn empty_content_is_empty_dir() {
        assert!(parse(&[]).unwrap().is_empty());
        assert!(serialize(&[]).is_empty());
    }

    #[test]
    fn truncated_record_is_corruption() {
        let recs = vec![DirRecord {
            ino: 1,
            ftype: FT_REG,
            name: "file".into(),
        }];
        let bytes = serialize(&recs);
        assert_eq!(parse(&bytes[..bytes.len() - 1]), Err(Errno::EIO));
        assert_eq!(parse(&bytes[..3]), Err(Errno::EIO));
    }

    #[test]
    fn non_utf8_name_is_corruption() {
        let mut bytes = serialize(&[DirRecord {
            ino: 1,
            ftype: FT_REG,
            name: "ab".into(),
        }]);
        let len = bytes.len();
        bytes[len - 1] = 0xFF;
        assert_eq!(parse(&bytes), Err(Errno::EIO));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// `lookup` is `parse` + `find` on valid contents and on contents
        /// with a byte flipped or the tail cut (truncated records, overlong
        /// name lengths, non-UTF-8 names), `EIO` included.
        #[test]
        fn lookup_is_parse_then_find(
            names in proptest::collection::vec(0u8..6, 0..8),
            damage in 0u8..3,
            at in proptest::prelude::any::<usize>(),
            byte in proptest::prelude::any::<u8>(),
            probe in 0u8..7,
        ) {
            let pool = ["a", "bb", "a", "lost+found", "\u{e9}t\u{e9}", "zz"];
            let records: Vec<DirRecord> = names
                .iter()
                .enumerate()
                .map(|(i, &n)| DirRecord {
                    ino: i as u32 + 2,
                    ftype: FT_REG,
                    name: pool[n as usize].into(),
                })
                .collect();
            let mut content = serialize(&records);
            if !content.is_empty() {
                let at = at % content.len();
                match damage {
                    0 => {}
                    1 => content[at] = byte,
                    _ => content.truncate(at),
                }
            }
            let name = pool.get(probe as usize).copied().unwrap_or("missing");
            let expected = parse(&content).map(|recs| find(&recs, name).map(|r| r.ino));
            proptest::prop_assert_eq!(lookup(&content, name), expected);
        }
    }
}
