//! A POSIX-conformance battery run identically over every file system in
//! the workspace — VeriFS1, VeriFS2 (bare and behind FUSE), ext2, ext4,
//! XFS, and JFFS2.
//!
//! MCFS's premise is that all these implementations agree on observable
//! behaviour; this suite pins the common semantics down implementation by
//! implementation so a divergence fails here before it confuses the
//! model-checking layers above.

use vfs::{AccessMode, Errno, FileMode, FileSystem, OpenFlags, XattrFlags};

/// Every registry backend, fresh, mounted and labelled.
fn all_filesystems() -> Vec<(&'static str, Box<dyn FileSystem>)> {
    mcfs::backends::all()
        .iter()
        .map(|b| (b.name, b.fresh().expect(b.name)))
        .collect()
}

fn write_file(fs: &mut dyn FileSystem, p: &str, data: &[u8]) {
    let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
    fs.write(fd, data).unwrap();
    fs.close(fd).unwrap();
}

fn read_file(fs: &mut dyn FileSystem, p: &str) -> Vec<u8> {
    let fd = fs
        .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
        .unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = fs.read(fd, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    fs.close(fd).unwrap();
    out
}

#[test]
fn create_write_read_stat() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/file", b"contents here");
        assert_eq!(read_file(fs.as_mut(), "/file"), b"contents here", "{name}");
        let st = fs.stat("/file").unwrap();
        assert_eq!(st.size, 13, "{name}");
        assert_eq!(st.nlink, 1, "{name}");
        assert_eq!(st.mode, FileMode::REG_DEFAULT, "{name}");
    }
}

#[test]
fn double_create_is_eexist() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/dup", b"");
        assert_eq!(
            fs.create("/dup", FileMode::REG_DEFAULT).unwrap_err(),
            Errno::EEXIST,
            "{name}"
        );
    }
}

#[test]
fn missing_paths_are_enoent() {
    for (name, mut fs) in all_filesystems() {
        assert_eq!(fs.stat("/missing").unwrap_err(), Errno::ENOENT, "{name}");
        assert_eq!(fs.unlink("/missing").unwrap_err(), Errno::ENOENT, "{name}");
        assert_eq!(
            fs.open("/missing", OpenFlags::read_only(), FileMode::REG_DEFAULT)
                .unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
        assert_eq!(
            fs.create("/no/such/parent", FileMode::REG_DEFAULT)
                .unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
    }
}

#[test]
fn paths_through_files_are_enotdir() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/plain", b"");
        assert_eq!(
            fs.create("/plain/child", FileMode::REG_DEFAULT)
                .unwrap_err(),
            Errno::ENOTDIR,
            "{name}"
        );
    }
}

#[test]
fn mkdir_rmdir_lifecycle() {
    for (name, mut fs) in all_filesystems() {
        fs.mkdir("/dir", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(
            fs.mkdir("/dir", FileMode::DIR_DEFAULT).unwrap_err(),
            Errno::EEXIST,
            "{name}"
        );
        write_file(fs.as_mut(), "/dir/inner", b"x");
        assert_eq!(fs.rmdir("/dir").unwrap_err(), Errno::ENOTEMPTY, "{name}");
        assert_eq!(fs.unlink("/dir").unwrap_err(), Errno::EISDIR, "{name}");
        fs.unlink("/dir/inner").unwrap();
        fs.rmdir("/dir").unwrap();
        assert_eq!(fs.stat("/dir").unwrap_err(), Errno::ENOENT, "{name}");
    }
}

#[test]
fn truncate_extends_with_zeros() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/t", &[0xAB; 64]);
        fs.truncate("/t", 8).unwrap();
        fs.truncate("/t", 64).unwrap();
        let content = read_file(fs.as_mut(), "/t");
        assert_eq!(&content[..8], &[0xAB; 8], "{name}");
        assert!(content[8..].iter().all(|&b| b == 0), "{name}: stale bytes");
    }
}

#[test]
fn sparse_writes_read_zero_holes() {
    for (name, mut fs) in all_filesystems() {
        let fd = fs.create("/sparse", FileMode::REG_DEFAULT).unwrap();
        fs.lseek(fd, 1000).unwrap();
        fs.write(fd, b"tail").unwrap();
        fs.close(fd).unwrap();
        let content = read_file(fs.as_mut(), "/sparse");
        assert_eq!(content.len(), 1004, "{name}");
        assert!(content[..1000].iter().all(|&b| b == 0), "{name}");
        assert_eq!(&content[1000..], b"tail", "{name}");
    }
}

#[test]
fn append_mode_appends() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/log", b"one,");
        let fd = fs
            .open(
                "/log",
                OpenFlags::write_only().with_append(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(read_file(fs.as_mut(), "/log"), b"one,two", "{name}");
    }
}

#[test]
fn open_excl_and_trunc_flags() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/f", b"body");
        assert_eq!(
            fs.open(
                "/f",
                OpenFlags::write_only().with_create().with_excl(),
                FileMode::REG_DEFAULT
            )
            .unwrap_err(),
            Errno::EEXIST,
            "{name}"
        );
        let fd = fs
            .open(
                "/f",
                OpenFlags::write_only().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 0, "{name}");
    }
}

#[test]
fn descriptor_permissions_enforced() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/f", b"data");
        let ro = fs
            .open("/f", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        assert_eq!(fs.write(ro, b"x").unwrap_err(), Errno::EBADF, "{name}");
        fs.close(ro).unwrap();
        let wo = fs
            .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        assert_eq!(
            fs.read(wo, &mut [0u8; 4]).unwrap_err(),
            Errno::EBADF,
            "{name}"
        );
        fs.close(wo).unwrap();
        assert_eq!(
            fs.close(wo).unwrap_err(),
            Errno::EBADF,
            "{name}: double close"
        );
    }
}

#[test]
fn chmod_chown_roundtrip() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/f", b"");
        fs.chmod("/f", FileMode::new(0o640)).unwrap();
        fs.chown("/f", 12, 34).unwrap();
        let st = fs.stat("/f").unwrap();
        assert_eq!(st.mode, FileMode::new(0o640), "{name}");
        assert_eq!((st.uid, st.gid), (12, 34), "{name}");
    }
}

#[test]
fn getdents_lists_created_entries() {
    for (name, mut fs) in all_filesystems() {
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(fs.as_mut(), "/d/a", b"");
        write_file(fs.as_mut(), "/d/b", b"");
        let mut names: Vec<String> = fs
            .getdents("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort(); // orders differ by design (§3.4); sort to compare
        assert_eq!(names, vec!["a", "b"], "{name}");
        assert_eq!(fs.getdents("/d/a").unwrap_err(), Errno::ENOTDIR, "{name}");
    }
}

#[test]
fn invalid_paths_rejected_uniformly() {
    for (name, mut fs) in all_filesystems() {
        for bad in ["relative", "/a//b", "/a/../b", "/trailing/"] {
            assert_eq!(fs.stat(bad).unwrap_err(), Errno::EINVAL, "{name}: {bad:?}");
        }
        let long = format!("/{}", "n".repeat(300));
        assert_eq!(fs.stat(&long).unwrap_err(), Errno::ENAMETOOLONG, "{name}");
    }
}

/// The optional-feature suite: every file system advertising a capability
/// must implement the same semantics for it.
#[test]
fn optional_features_match_capabilities() {
    for (name, mut fs) in all_filesystems() {
        let caps = fs.capabilities();
        write_file(fs.as_mut(), "/src", b"origin");
        if caps.rename {
            fs.rename("/src", "/dst").unwrap();
            assert_eq!(fs.stat("/src").unwrap_err(), Errno::ENOENT, "{name}");
            assert_eq!(read_file(fs.as_mut(), "/dst"), b"origin", "{name}");
            fs.rename("/dst", "/src").unwrap();
        } else {
            assert_eq!(
                fs.rename("/src", "/dst").unwrap_err(),
                Errno::ENOSYS,
                "{name}"
            );
        }
        if caps.hardlink {
            fs.link("/src", "/hard").unwrap();
            assert_eq!(fs.stat("/hard").unwrap().nlink, 2, "{name}");
            fs.unlink("/hard").unwrap();
        }
        if caps.symlink {
            fs.symlink("/src", "/sym").unwrap();
            assert_eq!(fs.readlink("/sym").unwrap(), "/src", "{name}");
            assert_eq!(
                fs.open("/sym", OpenFlags::read_only(), FileMode::REG_DEFAULT)
                    .unwrap_err(),
                Errno::ELOOP,
                "{name}"
            );
            fs.unlink("/sym").unwrap();
        }
        if caps.xattr {
            fs.setxattr("/src", "user.k", b"v", XattrFlags::Any)
                .unwrap();
            assert_eq!(fs.getxattr("/src", "user.k").unwrap(), b"v", "{name}");
            assert_eq!(fs.listxattr("/src").unwrap(), vec!["user.k"], "{name}");
            fs.removexattr("/src", "user.k").unwrap();
            assert_eq!(
                fs.getxattr("/src", "user.k").unwrap_err(),
                Errno::ENODATA,
                "{name}"
            );
        }
        if caps.access {
            fs.chmod("/src", FileMode::new(0o400)).unwrap();
            assert_eq!(fs.access("/src", AccessMode::read()), Ok(()), "{name}");
            assert_eq!(
                fs.access("/src", AccessMode::write()).unwrap_err(),
                Errno::EACCES,
                "{name}"
            );
        }
    }
}

/// Durability: everything above survives an unmount/mount cycle on the
/// persistent file systems.
#[test]
fn state_survives_remount_on_persistent_filesystems() {
    for (name, mut fs) in all_filesystems() {
        write_file(fs.as_mut(), "/keep", b"persist me");
        fs.mkdir("/kd", FileMode::DIR_DEFAULT).unwrap();
        write_file(fs.as_mut(), "/kd/deep", &[7u8; 3000]);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(fs.as_mut(), "/keep"), b"persist me", "{name}");
        assert_eq!(
            read_file(fs.as_mut(), "/kd/deep"),
            vec![7u8; 3000],
            "{name}"
        );
    }
}
