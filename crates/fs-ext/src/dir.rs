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
        if pos + 6 > content.len() {
            return (out, true);
        }
        let ino = u32::from_le_bytes([
            content[pos],
            content[pos + 1],
            content[pos + 2],
            content[pos + 3],
        ]);
        let ftype = content[pos + 4];
        let name_len = content[pos + 5] as usize;
        if pos + 6 + name_len > content.len() {
            return (out, true);
        }
        let Ok(name) = std::str::from_utf8(&content[pos + 6..pos + 6 + name_len]) else {
            return (out, true);
        };
        out.push(DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        });
        pos += 6 + name_len;
    }
    (out, false)
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
}
