//! The file-system syscall engine: bounded operation/parameter pools and
//! operation execution.
//!
//! The paper's engine is a Promela `do ... od` loop whose entries issue
//! file-system operations with parameters drawn from a predefined bounded
//! pool (§4). Because exploration is bounded, so is the state space. The
//! engine issues *meta-operations* where a bare syscall would depend on
//! kernel state that remounting destroys: `create_file` creates then closes;
//! `write_file` opens, writes, and closes.
//!
//! Both valid and invalid sequences arise naturally (e.g. `unlink` of a
//! never-created path): invalid ones exercise error paths, "where bugs often
//! lurk" (§2), and their errnos are compared across file systems like any
//! other result.

use vfs::{
    AccessMode, Errno, FileMode, FileSystem, FileType, FsCapabilities, OpenFlags, VfsResult,
    XattrFlags,
};

/// One nondeterministic operation with concrete parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FsOp {
    /// Meta-op: `creat(path, mode)` then `close` (paper §4).
    CreateFile {
        /// Target path.
        path: String,
        /// Permission bits.
        mode: u16,
    },
    /// Meta-op: `open`, `lseek(offset)`, `write(size deterministic bytes)`,
    /// `close`.
    WriteFile {
        /// Target path.
        path: String,
        /// Absolute write offset.
        offset: u64,
        /// Bytes written.
        size: u64,
        /// Seed for the deterministic data pattern.
        seed: u8,
    },
    /// `truncate(path, size)`.
    Truncate {
        /// Target path.
        path: String,
        /// New size.
        size: u64,
    },
    /// `mkdir(path, mode)`.
    Mkdir {
        /// Target path.
        path: String,
        /// Permission bits.
        mode: u16,
    },
    /// `rmdir(path)`.
    Rmdir {
        /// Target path.
        path: String,
    },
    /// `unlink(path)`.
    Unlink {
        /// Target path.
        path: String,
    },
    /// `rename(src, dst)`.
    Rename {
        /// Source path.
        src: String,
        /// Destination path.
        dst: String,
    },
    /// `link(existing, new)`.
    Hardlink {
        /// Existing file.
        src: String,
        /// New link path.
        dst: String,
    },
    /// `symlink(target, linkpath)`.
    Symlink {
        /// Link target (stored verbatim).
        target: String,
        /// Where the link is created.
        linkpath: String,
    },
    /// Meta-op: `open`, `lseek`, `read(size)`, `close`; the data read is part
    /// of the compared outcome.
    ReadFile {
        /// Target path.
        path: String,
        /// Absolute read offset.
        offset: u64,
        /// Bytes to read.
        size: u64,
    },
    /// `lstat(path)`; the important attributes are compared.
    Stat {
        /// Target path.
        path: String,
    },
    /// `getdents(path)`; entries are sorted before comparison (§3.4).
    Getdents {
        /// Target path.
        path: String,
    },
    /// `chmod(path, mode)`.
    Chmod {
        /// Target path.
        path: String,
        /// New permission bits.
        mode: u16,
    },
    /// `setxattr(path, name, value)`.
    SetXattr {
        /// Target path.
        path: String,
        /// Attribute name.
        name: String,
        /// Seed for the deterministic value bytes.
        seed: u8,
    },
    /// `removexattr(path, name)`.
    RemoveXattr {
        /// Target path.
        path: String,
        /// Attribute name.
        name: String,
    },
    /// `access(path, R_OK|W_OK)`.
    Access {
        /// Target path.
        path: String,
    },
    /// Pseudo-op: a power cut and reboot between operations. All in-memory
    /// file-system state and unflushed device writes are lost, then every
    /// target remounts and its recovery runs (the crash oracle checks the
    /// recovered state is prefix-consistent). Only offered by the harness
    /// when crash exploration is enabled and every target supports it.
    Crash,
    /// Pseudo-op: run every target's scan-and-repair fsck between
    /// operations. The fsck oracle checks the repair changed nothing on a
    /// healthy volume, converged to the same abstract state on every
    /// target, and is idempotent (a second run right after reports clean).
    /// Only offered by the harness when fsck exploration is enabled and
    /// every target supports it.
    Fsck,
}

impl FsOp {
    /// Short operation name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FsOp::CreateFile { .. } => "create_file",
            FsOp::WriteFile { .. } => "write_file",
            FsOp::Truncate { .. } => "truncate",
            FsOp::Mkdir { .. } => "mkdir",
            FsOp::Rmdir { .. } => "rmdir",
            FsOp::Unlink { .. } => "unlink",
            FsOp::Rename { .. } => "rename",
            FsOp::Hardlink { .. } => "link",
            FsOp::Symlink { .. } => "symlink",
            FsOp::ReadFile { .. } => "read_file",
            FsOp::Stat { .. } => "stat",
            FsOp::Getdents { .. } => "getdents",
            FsOp::Chmod { .. } => "chmod",
            FsOp::SetXattr { .. } => "setxattr",
            FsOp::RemoveXattr { .. } => "removexattr",
            FsOp::Access { .. } => "access",
            FsOp::Crash => "crash",
            FsOp::Fsck => "fsck",
        }
    }

    /// Whether the operation can mutate file-system state (read-only ops
    /// need no state checkpointing afterwards).
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            FsOp::ReadFile { .. } | FsOp::Stat { .. } | FsOp::Getdents { .. } | FsOp::Access { .. }
        )
    }

    /// Paths this operation touches — the conflict footprint used by
    /// partial-order reduction.
    pub fn touched_paths(&self) -> Vec<&str> {
        match self {
            FsOp::CreateFile { path, .. }
            | FsOp::WriteFile { path, .. }
            | FsOp::Truncate { path, .. }
            | FsOp::Mkdir { path, .. }
            | FsOp::Rmdir { path }
            | FsOp::Unlink { path }
            | FsOp::ReadFile { path, .. }
            | FsOp::Stat { path }
            | FsOp::Getdents { path }
            | FsOp::Chmod { path, .. }
            | FsOp::SetXattr { path, .. }
            | FsOp::RemoveXattr { path, .. }
            | FsOp::Access { path } => vec![path],
            FsOp::Rename { src, dst } | FsOp::Hardlink { src, dst } => vec![src, dst],
            FsOp::Symlink { target, linkpath } => vec![target, linkpath],
            // A crash touches *everything* unsynced; it has no path
            // footprint, and the harness's independence relation
            // special-cases it as dependent on every operation. Fsck
            // likewise scans and may rewrite the whole volume.
            FsOp::Crash | FsOp::Fsck => Vec::new(),
        }
    }

    /// Whether the capability set allows this op.
    pub fn allowed_by(&self, caps: FsCapabilities) -> bool {
        match self {
            FsOp::Rename { .. } => caps.rename,
            FsOp::Hardlink { .. } => caps.hardlink,
            FsOp::Symlink { .. } => caps.symlink,
            FsOp::SetXattr { .. } | FsOp::RemoveXattr { .. } => caps.xattr,
            FsOp::Access { .. } => caps.access,
            _ => true,
        }
    }
}

/// The op a trace element carries — the view trace minimization repairs
/// dependencies on ([`crate::shrink`]).
impl AsRef<FsOp> for FsOp {
    fn as_ref(&self) -> &FsOp {
        self
    }
}

impl std::fmt::Display for FsOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsOp::CreateFile { path, mode } => write!(f, "create_file({path}, {mode:04o})"),
            FsOp::WriteFile {
                path,
                offset,
                size,
                seed,
            } => write!(
                f,
                "write_file({path}, off={offset}, len={size}, seed={seed})"
            ),
            FsOp::Truncate { path, size } => write!(f, "truncate({path}, {size})"),
            FsOp::Mkdir { path, mode } => write!(f, "mkdir({path}, {mode:04o})"),
            FsOp::Rmdir { path } => write!(f, "rmdir({path})"),
            FsOp::Unlink { path } => write!(f, "unlink({path})"),
            FsOp::Rename { src, dst } => write!(f, "rename({src}, {dst})"),
            FsOp::Hardlink { src, dst } => write!(f, "link({src}, {dst})"),
            FsOp::Symlink { target, linkpath } => write!(f, "symlink({target}, {linkpath})"),
            FsOp::ReadFile { path, offset, size } => {
                write!(f, "read_file({path}, off={offset}, len={size})")
            }
            FsOp::Stat { path } => write!(f, "stat({path})"),
            FsOp::Getdents { path } => write!(f, "getdents({path})"),
            FsOp::Chmod { path, mode } => write!(f, "chmod({path}, {mode:04o})"),
            FsOp::SetXattr { path, name, seed } => {
                write!(f, "setxattr({path}, {name}, seed={seed})")
            }
            FsOp::RemoveXattr { path, name } => write!(f, "removexattr({path}, {name})"),
            FsOp::Access { path } => write!(f, "access({path}, R_OK|W_OK)"),
            FsOp::Crash => write!(f, "crash"),
            FsOp::Fsck => write!(f, "fsck"),
        }
    }
}

/// The observable outcome of one operation — what the integrity check
/// compares across file systems (return values, error codes, data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// Success with no interesting payload.
    Ok,
    /// Success returning data (read contents).
    Data(Vec<u8>),
    /// Success returning comparable stat attributes
    /// `(type char, mode, nlink, uid, gid, size or None for dirs)`.
    Attrs {
        /// File type character.
        ftype: char,
        /// Permission bits.
        mode: u16,
        /// Link count.
        nlink: u32,
        /// Owner uid/gid.
        owner: (u32, u32),
        /// Size; `None` for directories (implementation defined — §3.4).
        size: Option<u64>,
    },
    /// Success returning sorted directory entries `(name, type char)`.
    Entries(Vec<(String, char)>),
    /// Success returning a symlink target or xattr value.
    Bytes(Vec<u8>),
    /// Failure with an errno.
    Err(Errno),
}

impl OpOutcome {
    fn from_result<T>(r: VfsResult<T>, map: impl FnOnce(T) -> OpOutcome) -> OpOutcome {
        match r {
            Ok(v) => map(v),
            Err(e) => OpOutcome::Err(e),
        }
    }
}

/// Deterministic data pattern for writes: `size` bytes derived from `seed`.
pub fn pattern(seed: u8, size: u64) -> Vec<u8> {
    (0..size)
        .map(|i| {
            (seed as u64)
                .wrapping_mul(131)
                .wrapping_add(i.wrapping_mul(31)) as u8
        })
        .collect()
}

/// Executes `op` against one file system, translating meta-operations into
/// their syscall sequences and collecting the comparable outcome.
///
/// Entry lists are sorted (§3.4 workaround) and the names on `exceptions`
/// are filtered out of directory listings; directory sizes are suppressed.
pub fn execute(fs: &mut dyn FileSystem, op: &FsOp, exceptions: &[String]) -> OpOutcome {
    execute_with(fs, op, exceptions, true)
}

/// [`execute`] with the §3.4 getdents-sorting workaround toggleable —
/// `sort_entries = false` reintroduces the entry-order false positive for
/// the demonstration benchmark.
pub fn execute_with(
    fs: &mut dyn FileSystem,
    op: &FsOp,
    exceptions: &[String],
    sort_entries: bool,
) -> OpOutcome {
    match op {
        FsOp::CreateFile { path, mode } => match fs.create(path, FileMode::new(*mode)) {
            Ok(fd) => OpOutcome::from_result(fs.close(fd), |_| OpOutcome::Ok),
            Err(e) => OpOutcome::Err(e),
        },
        FsOp::WriteFile {
            path,
            offset,
            size,
            seed,
        } => {
            let fd = match fs.open(path, OpenFlags::write_only(), FileMode::REG_DEFAULT) {
                Ok(fd) => fd,
                Err(e) => return OpOutcome::Err(e),
            };
            let res = fs
                .lseek(fd, *offset)
                .and_then(|_| fs.write(fd, &pattern(*seed, *size)));
            let close = fs.close(fd);
            match (res, close) {
                (Ok(_), Ok(())) => OpOutcome::Ok,
                (Err(e), _) | (_, Err(e)) => OpOutcome::Err(e),
            }
        }
        FsOp::Truncate { path, size } => {
            OpOutcome::from_result(fs.truncate(path, *size), |_| OpOutcome::Ok)
        }
        FsOp::Mkdir { path, mode } => {
            OpOutcome::from_result(fs.mkdir(path, FileMode::new(*mode)), |_| OpOutcome::Ok)
        }
        FsOp::Rmdir { path } => OpOutcome::from_result(fs.rmdir(path), |_| OpOutcome::Ok),
        FsOp::Unlink { path } => OpOutcome::from_result(fs.unlink(path), |_| OpOutcome::Ok),
        FsOp::Rename { src, dst } => OpOutcome::from_result(fs.rename(src, dst), |_| OpOutcome::Ok),
        FsOp::Hardlink { src, dst } => OpOutcome::from_result(fs.link(src, dst), |_| OpOutcome::Ok),
        FsOp::Symlink { target, linkpath } => {
            OpOutcome::from_result(fs.symlink(target, linkpath), |_| OpOutcome::Ok)
        }
        FsOp::ReadFile { path, offset, size } => {
            let fd = match fs.open(path, OpenFlags::read_only(), FileMode::REG_DEFAULT) {
                Ok(fd) => fd,
                Err(e) => return OpOutcome::Err(e),
            };
            let mut buf = vec![0u8; *size as usize];
            let res = fs.lseek(fd, *offset).and_then(|_| fs.read(fd, &mut buf));
            let close = fs.close(fd);
            match (res, close) {
                (Ok(n), Ok(())) => {
                    buf.truncate(n);
                    OpOutcome::Data(buf)
                }
                (Err(e), _) | (_, Err(e)) => OpOutcome::Err(e),
            }
        }
        FsOp::Stat { path } => OpOutcome::from_result(fs.stat(path), |st| OpOutcome::Attrs {
            ftype: st.ftype.as_char(),
            mode: st.mode.bits(),
            nlink: st.nlink,
            owner: (st.uid, st.gid),
            // Directory sizes are implementation defined: ignored (§3.4).
            size: if st.ftype == FileType::Directory {
                None
            } else {
                Some(st.size)
            },
        }),
        FsOp::Getdents { path } => OpOutcome::from_result(fs.getdents(path), |mut entries| {
            // Sort and filter special entries before comparing (§3.4).
            entries.retain(|e| !exceptions.contains(&e.name));
            let mut names: Vec<(String, char)> = entries
                .into_iter()
                .map(|e| (e.name, e.ftype.as_char()))
                .collect();
            if sort_entries {
                names.sort();
            }
            OpOutcome::Entries(names)
        }),
        FsOp::Chmod { path, mode } => {
            OpOutcome::from_result(fs.chmod(path, FileMode::new(*mode)), |_| OpOutcome::Ok)
        }
        FsOp::SetXattr { path, name, seed } => OpOutcome::from_result(
            fs.setxattr(path, name, &pattern(*seed, 16), XattrFlags::Any),
            |_| OpOutcome::Ok,
        ),
        FsOp::RemoveXattr { path, name } => {
            OpOutcome::from_result(fs.removexattr(path, name), |_| OpOutcome::Ok)
        }
        FsOp::Access { path } => {
            let mode = AccessMode {
                read: true,
                write: true,
                exec: false,
            };
            OpOutcome::from_result(fs.access(path, mode), |_| OpOutcome::Ok)
        }
        // The harness intercepts `Crash` before per-file-system execution
        // (it is a whole-system event, not a syscall); against a single
        // file system it is a successful no-op.
        FsOp::Crash | FsOp::Fsck => OpOutcome::Ok,
    }
}

/// Bounded parameter pools from which the operation set is generated.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Candidate file paths.
    pub files: Vec<String>,
    /// Candidate directory paths.
    pub dirs: Vec<String>,
    /// Candidate write/truncate sizes.
    pub sizes: Vec<u64>,
    /// Candidate write/read offsets.
    pub offsets: Vec<u64>,
    /// Candidate permission modes.
    pub modes: Vec<u16>,
    /// Candidate xattr names.
    pub xattr_names: Vec<String>,
    /// Data-pattern seeds.
    pub seeds: Vec<u8>,
}

impl PoolConfig {
    /// A small pool for exhaustive DFS within tests: 2 files, 1 directory,
    /// tiny sizes.
    pub fn small() -> Self {
        PoolConfig {
            files: vec!["/f0".into(), "/f1".into(), "/d0/f2".into()],
            dirs: vec!["/d0".into()],
            sizes: vec![0, 10],
            offsets: vec![0],
            modes: vec![0o644],
            xattr_names: vec!["user.m0".into()],
            seeds: vec![1],
        }
    }

    /// The default pool: a few files across two directories, several sizes
    /// and offsets — comparable to the paper's bounded parameter space.
    pub fn medium() -> Self {
        PoolConfig {
            files: vec![
                "/f0".into(),
                "/f1".into(),
                "/d0/f2".into(),
                "/d0/d1/f3".into(),
            ],
            dirs: vec!["/d0".into(), "/d0/d1".into(), "/d2".into()],
            sizes: vec![0, 1, 100, 4096],
            offsets: vec![0, 50, 5000],
            modes: vec![0o644, 0o400],
            xattr_names: vec!["user.m0".into(), "user.m1".into()],
            seeds: vec![1, 2],
        }
    }

    /// Generates the full bounded operation set (before capability
    /// filtering).
    pub fn ops(&self) -> Vec<FsOp> {
        let mut out = Vec::new();
        for f in &self.files {
            for &m in &self.modes {
                out.push(FsOp::CreateFile {
                    path: f.clone(),
                    mode: m,
                });
            }
            for &size in &self.sizes {
                for &offset in &self.offsets {
                    for &seed in &self.seeds {
                        out.push(FsOp::WriteFile {
                            path: f.clone(),
                            offset,
                            size,
                            seed,
                        });
                    }
                    out.push(FsOp::ReadFile {
                        path: f.clone(),
                        offset,
                        size: size.max(16),
                    });
                }
                out.push(FsOp::Truncate {
                    path: f.clone(),
                    size,
                });
            }
            out.push(FsOp::Unlink { path: f.clone() });
            out.push(FsOp::Stat { path: f.clone() });
            for &m in &self.modes {
                out.push(FsOp::Chmod {
                    path: f.clone(),
                    mode: m,
                });
            }
            for name in &self.xattr_names {
                for &seed in &self.seeds {
                    out.push(FsOp::SetXattr {
                        path: f.clone(),
                        name: name.clone(),
                        seed,
                    });
                }
                out.push(FsOp::RemoveXattr {
                    path: f.clone(),
                    name: name.clone(),
                });
            }
            out.push(FsOp::Access { path: f.clone() });
        }
        for d in &self.dirs {
            for &m in &self.modes {
                out.push(FsOp::Mkdir {
                    path: d.clone(),
                    mode: m,
                });
            }
            out.push(FsOp::Rmdir { path: d.clone() });
            out.push(FsOp::Getdents { path: d.clone() });
            out.push(FsOp::Stat { path: d.clone() });
        }
        out.push(FsOp::Getdents { path: "/".into() });
        // Renames and links between the first few files/dirs.
        for (i, src) in self.files.iter().enumerate() {
            for dst in self.files.iter().skip(i + 1) {
                out.push(FsOp::Rename {
                    src: src.clone(),
                    dst: dst.clone(),
                });
                out.push(FsOp::Hardlink {
                    src: src.clone(),
                    dst: dst.clone(),
                });
            }
        }
        if let (Some(f), Some(l)) = (self.files.first(), self.files.get(1)) {
            out.push(FsOp::Symlink {
                target: f.clone(),
                linkpath: format!("{l}.ln"),
            });
            out.push(FsOp::Unlink {
                path: format!("{l}.ln"),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifs::VeriFs;

    #[test]
    fn pattern_is_deterministic_and_seed_sensitive() {
        assert_eq!(pattern(1, 16), pattern(1, 16));
        assert_ne!(pattern(1, 16), pattern(2, 16));
        assert_eq!(pattern(3, 0).len(), 0);
    }

    #[test]
    fn pool_generates_bounded_set() {
        let ops = PoolConfig::small().ops();
        assert!(!ops.is_empty());
        let again = PoolConfig::small().ops();
        assert_eq!(ops, again, "pool generation is deterministic");
        // Bounded: every path is from the pool.
        for op in &ops {
            for p in op.touched_paths() {
                assert!(p.starts_with('/'), "{op}");
            }
        }
    }

    #[test]
    fn capability_filter_removes_unsupported() {
        let caps_v1 = VeriFs::v1().capabilities();
        let ops = PoolConfig::medium().ops();
        let filtered: Vec<_> = ops.iter().filter(|o| o.allowed_by(caps_v1)).collect();
        assert!(filtered.iter().all(|o| !matches!(
            o,
            FsOp::Rename { .. }
                | FsOp::Hardlink { .. }
                | FsOp::Symlink { .. }
                | FsOp::SetXattr { .. }
                | FsOp::RemoveXattr { .. }
                | FsOp::Access { .. }
        )));
        assert!(filtered.len() < ops.len());
    }

    #[test]
    fn execute_create_write_read_roundtrip() {
        let mut fs = VeriFs::v2();
        use vfs::FileSystem;
        fs.mount().unwrap();
        let create = FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        };
        assert_eq!(execute(&mut fs, &create, &[]), OpOutcome::Ok);
        let write = FsOp::WriteFile {
            path: "/f0".into(),
            offset: 0,
            size: 10,
            seed: 1,
        };
        assert_eq!(execute(&mut fs, &write, &[]), OpOutcome::Ok);
        let read = FsOp::ReadFile {
            path: "/f0".into(),
            offset: 0,
            size: 16,
        };
        assert_eq!(
            execute(&mut fs, &read, &[]),
            OpOutcome::Data(pattern(1, 10))
        );
    }

    #[test]
    fn execute_invalid_sequences_report_errnos() {
        let mut fs = VeriFs::v2();
        use vfs::FileSystem;
        fs.mount().unwrap();
        let unlink = FsOp::Unlink {
            path: "/nope".into(),
        };
        assert_eq!(
            execute(&mut fs, &unlink, &[]),
            OpOutcome::Err(Errno::ENOENT)
        );
        let write = FsOp::WriteFile {
            path: "/nope".into(),
            offset: 0,
            size: 4,
            seed: 0,
        };
        assert_eq!(execute(&mut fs, &write, &[]), OpOutcome::Err(Errno::ENOENT));
    }

    #[test]
    fn getdents_outcome_is_sorted_and_filtered() {
        let mut fs = VeriFs::v2();
        use vfs::FileSystem;
        fs.mount().unwrap();
        for p in ["/zz", "/aa", "/lost+found"] {
            execute(
                &mut fs,
                &FsOp::CreateFile {
                    path: p.into(),
                    mode: 0o644,
                },
                &[],
            );
        }
        let out = execute(
            &mut fs,
            &FsOp::Getdents { path: "/".into() },
            &["lost+found".to_string()],
        );
        assert_eq!(
            out,
            OpOutcome::Entries(vec![("aa".into(), '-'), ("zz".into(), '-')])
        );
    }

    #[test]
    fn stat_outcome_suppresses_dir_size() {
        let mut fs = VeriFs::v2();
        use vfs::FileSystem;
        fs.mount().unwrap();
        execute(
            &mut fs,
            &FsOp::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            },
            &[],
        );
        execute(
            &mut fs,
            &FsOp::CreateFile {
                path: "/d/x".into(),
                mode: 0o644,
            },
            &[],
        );
        match execute(&mut fs, &FsOp::Stat { path: "/d".into() }, &[]) {
            OpOutcome::Attrs { size, ftype, .. } => {
                assert_eq!(ftype, 'd');
                assert_eq!(size, None, "dir sizes are implementation defined");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn op_metadata_helpers() {
        let op = FsOp::Rename {
            src: "/a".into(),
            dst: "/b".into(),
        };
        assert_eq!(op.name(), "rename");
        assert!(op.is_mutation());
        assert_eq!(op.touched_paths(), vec!["/a", "/b"]);
        assert!(!FsOp::Stat { path: "/a".into() }.is_mutation());
        assert!(op.to_string().contains("/a"));
    }
}

#[cfg(test)]
mod more_pool_tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::FileSystem;

    #[test]
    fn medium_pool_is_substantially_larger_than_small() {
        let small = PoolConfig::small().ops().len();
        let medium = PoolConfig::medium().ops().len();
        assert!(medium > small * 2, "{small} vs {medium}");
    }

    #[test]
    fn execute_with_unsorted_entries_reflects_fs_order() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        for name in ["/zz", "/aa"] {
            execute(
                &mut fs,
                &FsOp::CreateFile {
                    path: name.into(),
                    mode: 0o644,
                },
                &[],
            );
        }
        let op = FsOp::Getdents { path: "/".into() };
        // VeriFS returns sorted order natively (BTreeMap), so both calls
        // agree here; the unsorted variant's purpose is to surface orders
        // that differ across implementations (exercised in the
        // false_positives bench against ext/xfs).
        let sorted = execute_with(&mut fs, &op, &[], true);
        let raw = execute_with(&mut fs, &op, &[], false);
        assert_eq!(sorted, raw);
    }

    #[test]
    fn rename_and_symlink_ops_execute_end_to_end() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::CreateFile {
                    path: "/f0".into(),
                    mode: 0o644
                },
                &[]
            ),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::Rename {
                    src: "/f0".into(),
                    dst: "/f1".into()
                },
                &[]
            ),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::Symlink {
                    target: "/f1".into(),
                    linkpath: "/ln".into()
                },
                &[]
            ),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(&mut fs, &FsOp::Stat { path: "/f0".into() }, &[]),
            OpOutcome::Err(Errno::ENOENT)
        );
        // Hardlink then stat: nlink visible in the comparable attrs.
        execute(
            &mut fs,
            &FsOp::Hardlink {
                src: "/f1".into(),
                dst: "/f2".into(),
            },
            &[],
        );
        match execute(&mut fs, &FsOp::Stat { path: "/f2".into() }, &[]) {
            OpOutcome::Attrs { nlink, .. } => assert_eq!(nlink, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn xattr_and_access_ops_execute() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        execute(
            &mut fs,
            &FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            &[],
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::SetXattr {
                    path: "/f0".into(),
                    name: "user.a".into(),
                    seed: 1
                },
                &[]
            ),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::RemoveXattr {
                    path: "/f0".into(),
                    name: "user.a".into()
                },
                &[]
            ),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::RemoveXattr {
                    path: "/f0".into(),
                    name: "user.a".into()
                },
                &[]
            ),
            OpOutcome::Err(Errno::ENODATA)
        );
        assert_eq!(
            execute(&mut fs, &FsOp::Access { path: "/f0".into() }, &[]),
            OpOutcome::Ok
        );
        assert_eq!(
            execute(
                &mut fs,
                &FsOp::Access {
                    path: "/gone".into()
                },
                &[]
            ),
            OpOutcome::Err(Errno::ENOENT)
        );
    }

    #[test]
    fn display_round_trips_key_parameters() {
        let ops = PoolConfig::medium().ops();
        for op in &ops {
            let shown = op.to_string();
            // Every touched path appears in the rendering (reports must be
            // actionable).
            for p in op.touched_paths() {
                assert!(shown.contains(p), "{shown} missing {p}");
            }
        }
    }
}
