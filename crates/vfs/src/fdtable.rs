//! A generic file-descriptor table.
//!
//! Every simulated file system needs a descriptor table mapping [`Fd`]s to its
//! open-file state; this generic one enforces the lowest-free-slot allocation
//! rule and the per-process descriptor limit.

use crate::errno::{Errno, VfsResult};
use crate::types::Fd;

/// Default maximum number of simultaneously open descriptors.
pub const DEFAULT_MAX_FDS: usize = 256;

/// A file-descriptor table holding per-descriptor state `T`.
///
/// # Examples
///
/// ```
/// use vfs::FdTable;
///
/// let mut table: FdTable<String> = FdTable::new(16);
/// let fd = table.insert("open file".to_string()).unwrap();
/// assert_eq!(table.get(fd).unwrap(), "open file");
/// table.remove(fd).unwrap();
/// assert!(table.get(fd).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdTable<T> {
    slots: Vec<Option<T>>,
    max_fds: usize,
    open_count: usize,
}

impl<T> FdTable<T> {
    /// Creates a table allowing at most `max_fds` simultaneous descriptors.
    pub fn new(max_fds: usize) -> Self {
        FdTable {
            slots: Vec::new(),
            max_fds,
            open_count: 0,
        }
    }

    /// Allocates the lowest free descriptor for `state` (POSIX requires
    /// lowest-numbered allocation).
    ///
    /// # Errors
    ///
    /// [`Errno::EMFILE`] when the table is full.
    pub fn insert(&mut self, state: T) -> VfsResult<Fd> {
        if self.open_count >= self.max_fds {
            return Err(Errno::EMFILE);
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(state);
                self.open_count += 1;
                return Ok(Fd(i as u32));
            }
        }
        self.slots.push(Some(state));
        self.open_count += 1;
        Ok(Fd((self.slots.len() - 1) as u32))
    }

    /// Borrows the state for `fd`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for unknown descriptors.
    pub fn get(&self, fd: Fd) -> VfsResult<&T> {
        self.slots
            .get(fd.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(Errno::EBADF)
    }

    /// Mutably borrows the state for `fd`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for unknown descriptors.
    pub fn get_mut(&mut self, fd: Fd) -> VfsResult<&mut T> {
        self.slots
            .get_mut(fd.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(Errno::EBADF)
    }

    /// Closes `fd`, returning its state.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for unknown descriptors.
    pub fn remove(&mut self, fd: Fd) -> VfsResult<T> {
        let slot = self.slots.get_mut(fd.0 as usize).ok_or(Errno::EBADF)?;
        let state = slot.take().ok_or(Errno::EBADF)?;
        self.open_count -= 1;
        Ok(state)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.open_count
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.open_count == 0
    }

    /// Closes every descriptor (used on unmount).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.open_count = 0;
    }

    /// Iterates over `(fd, state)` for open descriptors.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (Fd(i as u32), t)))
    }

    /// Iterates mutably over `(fd, state)` for open descriptors.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Fd, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|t| (Fd(i as u32), t)))
    }
}

impl<T> Default for FdTable<T> {
    fn default() -> Self {
        FdTable::new(DEFAULT_MAX_FDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_free_slot_allocation() {
        let mut t: FdTable<u32> = FdTable::new(8);
        let a = t.insert(10).unwrap();
        let b = t.insert(20).unwrap();
        let c = t.insert(30).unwrap();
        assert_eq!((a, b, c), (Fd(0), Fd(1), Fd(2)));
        t.remove(b).unwrap();
        let d = t.insert(40).unwrap();
        assert_eq!(d, Fd(1), "reuses the lowest free slot");
    }

    #[test]
    fn emfile_when_full() {
        let mut t: FdTable<()> = FdTable::new(2);
        t.insert(()).unwrap();
        t.insert(()).unwrap();
        assert_eq!(t.insert(()), Err(Errno::EMFILE));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bad_fd_errors() {
        let mut t: FdTable<u8> = FdTable::new(4);
        assert_eq!(t.get(Fd(0)), Err(Errno::EBADF));
        assert_eq!(t.get_mut(Fd(3)), Err(Errno::EBADF));
        assert_eq!(t.remove(Fd(9)), Err(Errno::EBADF));
        let fd = t.insert(1).unwrap();
        t.remove(fd).unwrap();
        assert_eq!(t.remove(fd), Err(Errno::EBADF), "double close");
    }

    #[test]
    fn clear_and_iter() {
        let mut t: FdTable<u8> = FdTable::new(4);
        t.insert(1).unwrap();
        t.insert(2).unwrap();
        let pairs: Vec<_> = t.iter().map(|(fd, v)| (fd.0, *v)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
        for (_, v) in t.iter_mut() {
            *v += 10;
        }
        assert_eq!(*t.get(Fd(0)).unwrap(), 11);
        t.clear();
        assert!(t.is_empty());
    }
}
