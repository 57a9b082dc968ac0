//! Simulated physical memory: one flat byte buffer plus a per-frame
//! *known-zero* bit.
//!
//! The bit records a fact the simulator already knows for free — this frame
//! reads all zero — so that the two paths that move whole frames of host
//! memory can skip work without changing a single simulated byte:
//!
//! * [`PhysMem::zero_frame`] skips the host `memset` when the frame is
//!   already zero. Zero-on-free during boot aging frees every frame of a
//!   freshly booted machine, all of which the host handed over as zero.
//! * [`PhysMem::clone`] allocates the copy zeroed (so the host maps it
//!   lazily) and copies only the frames that may hold data.
//!
//! Mutable access exists only through methods that maintain the bit, so no
//! write path can leave a stale "known zero" behind.

use crate::{FrameId, PAGE_SIZE};
use std::ops::Deref;

/// Frame bytes plus the known-zero bits. Reads go through `Deref<[u8]>`;
/// there is deliberately no `DerefMut`.
#[derive(Debug)]
pub(crate) struct PhysMem {
    bytes: Vec<u8>,
    /// `known_zero[i]` ⇒ frame `i` reads all zero. The converse need not
    /// hold: a frame written with zeros through [`Self::frame_mut`] is not
    /// known zero, it is merely zero.
    known_zero: Vec<bool>,
}

impl PhysMem {
    /// `num_frames` frames of zeroed memory, all known zero.
    pub(crate) fn new(num_frames: usize) -> Self {
        Self {
            bytes: vec![0u8; num_frames * PAGE_SIZE],
            known_zero: vec![true; num_frames],
        }
    }

    /// Whether frame `f` is known to read all zero.
    pub(crate) fn is_known_zero(&self, f: FrameId) -> bool {
        self.known_zero[f.0]
    }

    /// Clears frame `f` and marks it known zero. The host write happens only
    /// when the frame may hold data.
    pub(crate) fn zero_frame(&mut self, f: FrameId) {
        if !self.known_zero[f.0] {
            self.bytes[f.base()..f.base() + PAGE_SIZE].fill(0);
            self.known_zero[f.0] = true;
        }
    }

    /// The bytes of frame `f`, for writing. Clears the known-zero bit.
    pub(crate) fn frame_mut(&mut self, f: FrameId) -> &mut [u8] {
        self.known_zero[f.0] = false;
        &mut self.bytes[f.base()..f.base() + PAGE_SIZE]
    }

    /// Copies frame `src` over frame `dst`; `dst` inherits `src`'s bit.
    pub(crate) fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        if self.known_zero[src.0] {
            self.zero_frame(dst);
        } else {
            self.bytes
                .copy_within(src.base()..src.base() + PAGE_SIZE, dst.base());
            self.known_zero[dst.0] = false;
        }
    }

    /// A copy of the bytes that writes only the frames that may hold data;
    /// the rest stay untouched calloc memory.
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.bytes.len()];
        for (i, &zero) in self.known_zero.iter().enumerate() {
            if !zero {
                let r = i * PAGE_SIZE..(i + 1) * PAGE_SIZE;
                out[r.clone()].copy_from_slice(&self.bytes[r]);
            }
        }
        out
    }
}

impl Clone for PhysMem {
    fn clone(&self) -> Self {
        Self {
            bytes: self.to_vec(),
            known_zero: self.known_zero.clone(),
        }
    }
}

impl Deref for PhysMem {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_clear_the_bit_and_zeroing_restores_it() {
        let mut m = PhysMem::new(2);
        assert!(m.is_known_zero(FrameId(0)) && m.is_known_zero(FrameId(1)));
        m.frame_mut(FrameId(1))[7] = 0xAB;
        assert!(!m.is_known_zero(FrameId(1)));
        assert!(m.is_known_zero(FrameId(0)));
        m.zero_frame(FrameId(1));
        assert!(m.is_known_zero(FrameId(1)));
        assert!(m.iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_frame_carries_bytes_and_bit() {
        let mut m = PhysMem::new(3);
        m.frame_mut(FrameId(0)).fill(0x5A);
        m.frame_mut(FrameId(2)).fill(0x11);
        m.copy_frame(FrameId(0), FrameId(1));
        assert!(!m.is_known_zero(FrameId(1)));
        assert_eq!(&m[PAGE_SIZE..2 * PAGE_SIZE], &m[..PAGE_SIZE]);
        // Copying a known-zero frame clears the destination's stale bytes.
        m.zero_frame(FrameId(0));
        m.copy_frame(FrameId(0), FrameId(2));
        assert!(m.is_known_zero(FrameId(2)));
        assert!(m[2 * PAGE_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn clone_copies_only_data_frames_but_equals_the_original() {
        let mut m = PhysMem::new(4);
        m.frame_mut(FrameId(2))[0] = 1;
        m.frame_mut(FrameId(3))[PAGE_SIZE - 1] = 2;
        m.zero_frame(FrameId(3));
        let c = m.clone();
        assert_eq!(&*c, &*m);
        assert_eq!(c.known_zero, m.known_zero);
    }
}
