//! The user-space FUSE daemon: a separate "process" wrapping a file system.
//!
//! FUSE file systems run as independent processes that talk to the kernel
//! through the `/dev/fuse` character device (paper §3.1). The daemon wrapper
//! records exactly that: which device handles the process holds. CRIU-style
//! process snapshotting (the `snapshot` crate) refuses processes with open
//! character or block devices, so this handle list is what made CRIU unusable
//! for FUSE file systems in the paper (§5).

use crate::proto::{FuseOpKind, FuseTraffic};

/// A device handle held by a simulated process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeviceHandle {
    /// A character device, e.g. `/dev/fuse`.
    Char(String),
    /// A block device, e.g. `/dev/ram0`.
    Block(String),
}

impl DeviceHandle {
    /// The device path.
    pub fn path(&self) -> &str {
        match self {
            DeviceHandle::Char(p) | DeviceHandle::Block(p) => p,
        }
    }
}

/// The user-space daemon process hosting a file system `F`.
///
/// All requests arrive through [`handle`](FuseDaemon::handle), which counts
/// the message and hands the embedded file system to the given closure — the
/// daemon's dispatch loop in real libfuse.
#[derive(Debug)]
pub struct FuseDaemon<F> {
    fs: F,
    handles: Vec<DeviceHandle>,
    traffic: FuseTraffic,
}

impl<F> FuseDaemon<F> {
    /// Starts a daemon for `fs`. Opening the FUSE connection claims
    /// `/dev/fuse`.
    pub fn new(fs: F) -> Self {
        FuseDaemon {
            fs,
            handles: vec![DeviceHandle::Char("/dev/fuse".to_string())],
            traffic: FuseTraffic::new(),
        }
    }

    /// Device handles the daemon process currently holds.
    pub fn device_handles(&self) -> &[DeviceHandle] {
        &self.handles
    }

    /// Records an additional device handle (e.g. a FUSE file system backed by
    /// a block device, like fuse-ext2).
    pub fn add_device_handle(&mut self, handle: DeviceHandle) {
        self.handles.push(handle);
    }

    /// Per-kind request counters.
    pub fn traffic(&self) -> &FuseTraffic {
        &self.traffic
    }

    /// Dispatches one request of `kind` to the embedded file system.
    pub fn handle<R>(&mut self, kind: FuseOpKind, op: impl FnOnce(&mut F) -> R) -> R {
        self.traffic.record(kind);
        op(&mut self.fs)
    }

    /// Direct access to the embedded file system (setup and assertions only —
    /// real traffic goes through [`handle`](Self::handle)).
    pub fn fs_mut(&mut self) -> &mut F {
        &mut self.fs
    }

    /// Shared access to the embedded file system.
    pub fn fs(&self) -> &F {
        &self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_holds_dev_fuse() {
        let d = FuseDaemon::new(());
        assert_eq!(
            d.device_handles(),
            &[DeviceHandle::Char("/dev/fuse".into())]
        );
        assert_eq!(d.device_handles()[0].path(), "/dev/fuse");
    }

    #[test]
    fn handle_counts_traffic() {
        let mut d = FuseDaemon::new(5u32);
        let out = d.handle(FuseOpKind::Read, |v| *v + 1);
        assert_eq!(out, 6);
        assert_eq!(d.traffic().count(FuseOpKind::Read), 1);
        assert_eq!(d.traffic().total(), 1);
    }

    #[test]
    fn extra_handles_recorded() {
        let mut d = FuseDaemon::new(());
        d.add_device_handle(DeviceHandle::Block("/dev/ram0".into()));
        assert_eq!(d.device_handles().len(), 2);
    }
}
