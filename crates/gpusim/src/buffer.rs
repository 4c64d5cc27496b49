//! Simulated device and pinned-host buffers.
//!
//! In [`DataMode::Full`](crate::DataMode::Full) a buffer owns real bytes
//! behind an `Rc<RefCell<Vec<u8>>>`; copies and kernels operate on them when
//! their simulated op completes. In `Virtual` mode only the length exists.
//!
//! Handles are cheaply cloneable and shareable across the ranks of one
//! world — the virtual-memory isolation of real processes is modeled by
//! *API discipline*: ranks only learn about each other's device buffers
//! through [`IpcMemHandle`](crate::IpcMemHandle) exchange, as on real CUDA.

use std::cell::RefCell;
use std::rc::Rc;

/// Shared byte storage (present only in full-data mode).
pub(crate) type Storage = Rc<RefCell<Vec<u8>>>;

/// Where a buffer physically lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Device memory of the global GPU id.
    Device(usize),
    /// Pinned host memory on `(node, socket)`.
    Host(usize, usize),
}

/// A simulated memory allocation (device or pinned host).
#[derive(Clone)]
pub struct Buffer {
    pub(crate) placement: Placement,
    pub(crate) len: u64,
    pub(crate) data: Option<Storage>,
}

impl Buffer {
    pub(crate) fn new(placement: Placement, len: u64, with_data: bool) -> Self {
        Buffer {
            placement,
            len,
            data: if with_data {
                Some(Rc::new(RefCell::new(vec![0u8; len as usize])))
            } else {
                None
            },
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the buffer lives.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Global GPU id, if this is a device buffer.
    pub fn device(&self) -> Option<usize> {
        match self.placement {
            Placement::Device(d) => Some(d),
            Placement::Host(..) => None,
        }
    }

    /// Whether real bytes back this buffer (full-data mode).
    pub fn has_data(&self) -> bool {
        self.data.is_some()
    }

    /// Read bytes out (host-side debugging / initialization / verification;
    /// free in virtual time). Panics in virtual data mode or out of range.
    pub fn read(&self, offset: u64, out: &mut [u8]) {
        let data = self.data.as_ref().expect("read from virtual-mode buffer");
        let s = offset as usize;
        let g = data.borrow();
        out.copy_from_slice(&g[s..s + out.len()]);
    }

    /// Write bytes in (initialization; free in virtual time). Panics in
    /// virtual data mode or out of range.
    pub fn write(&self, offset: u64, src: &[u8]) {
        let data = self.data.as_ref().expect("write to virtual-mode buffer");
        let s = offset as usize;
        let mut g = data.borrow_mut();
        g[s..s + src.len()].copy_from_slice(src);
    }

    /// Run `f` with mutable access to the backing bytes (used by simulated
    /// kernels for in-place compute). Panics in virtual data mode.
    pub fn with_data<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let data = self
            .data
            .as_ref()
            .expect("with_data on virtual-mode buffer");
        let mut g = data.borrow_mut();
        f(&mut g)
    }

    /// Copy `len` bytes from `src[src_off..]` into `self[dst_off..]`,
    /// handling the aliasing (same allocation) case. No-op in virtual mode.
    /// This is the zero-time data-plane primitive the simulated transports
    /// invoke when their op completes.
    pub fn copy_from(&self, dst_off: u64, src: &Buffer, src_off: u64, len: u64) {
        let (Some(d), Some(s)) = (self.data.as_ref(), src.data.as_ref()) else {
            return;
        };
        let (dst_off, src_off, len) = (dst_off as usize, src_off as usize, len as usize);
        if Rc::ptr_eq(d, s) {
            let mut g = d.borrow_mut();
            g.copy_within(src_off..src_off + len, dst_off);
        } else {
            let mut dg = d.borrow_mut();
            let sg = s.borrow();
            dg[dst_off..dst_off + len].copy_from_slice(&sg[src_off..src_off + len]);
        }
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Buffer({:?}, {}B, {})",
            self.placement,
            self.len,
            if self.data.is_some() {
                "full"
            } else {
                "virtual"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let b = Buffer::new(Placement::Device(0), 16, true);
        b.write(4, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        b.read(4, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert_eq!(b.device(), Some(0));
    }

    #[test]
    fn copy_between_buffers() {
        let a = Buffer::new(Placement::Device(0), 8, true);
        let b = Buffer::new(Placement::Host(0, 0), 8, true);
        a.write(0, &[9; 8]);
        b.copy_from(2, &a, 1, 4);
        let mut out = [0u8; 8];
        b.read(0, &mut out);
        assert_eq!(out, [0, 0, 9, 9, 9, 9, 0, 0]);
        assert_eq!(b.device(), None);
    }

    #[test]
    fn aliased_copy_uses_copy_within() {
        let a = Buffer::new(Placement::Device(0), 8, true);
        a.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let a2 = a.clone();
        a.copy_from(0, &a2, 4, 4); // overlapping allocation, disjoint ranges
        let mut out = [0u8; 8];
        a.read(0, &mut out);
        assert_eq!(out, [5, 6, 7, 8, 5, 6, 7, 8]);
    }

    #[test]
    fn virtual_buffers_skip_data() {
        let a = Buffer::new(Placement::Device(0), 1 << 40, false); // 1 TiB, no alloc
        let b = Buffer::new(Placement::Device(1), 1 << 40, false);
        assert!(!a.has_data());
        b.copy_from(0, &a, 0, 1 << 39); // no-op, must not panic
    }

    #[test]
    #[should_panic(expected = "virtual-mode")]
    fn reading_virtual_buffer_panics() {
        let a = Buffer::new(Placement::Device(0), 8, false);
        let mut out = [0u8; 1];
        a.read(0, &mut out);
    }
}
