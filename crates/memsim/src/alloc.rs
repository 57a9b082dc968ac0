//! The physical page allocator: hot/cold free lists over a high-watermark
//! pool, mirroring the per-CPU page lists of the 2.6 kernel's
//! `free_hot_cold_page` path (the function the paper patches).

use crate::FrameId;

/// Free-frame bookkeeping.
///
/// Frames are handed out in this order: hot list (LIFO — most recently freed
/// first), then the cold stack (also most-recently-spilled first, matching
/// the buddy allocator's head-insertion of freed pages), then never-yet-used
/// frames from the watermark. The overall most-recently-freed-first order is
/// deliberately faithful: it is what makes freshly freed, secret-bearing
/// pages the *first* thing a subsequent kernel allocation (such as an ext2
/// directory block) receives.
#[derive(Debug, Clone)]
pub(crate) struct FreeLists {
    hot: Vec<FrameId>,
    cold: Vec<FrameId>,
    hot_max: usize,
    /// First frame that has never been allocated; all frames at or above this
    /// index are pristine zeros.
    watermark: usize,
    total_frames: usize,
}

impl FreeLists {
    pub(crate) fn new(total_frames: usize, hot_max: usize) -> Self {
        Self {
            hot: Vec::new(),
            cold: Vec::new(),
            hot_max: hot_max.max(1),
            watermark: 0,
            total_frames,
        }
    }

    /// Takes a frame, preferring recently freed ones.
    pub(crate) fn alloc(&mut self) -> Option<FrameId> {
        if let Some(f) = self.hot.pop() {
            return Some(f);
        }
        if let Some(f) = self.cold.pop() {
            return Some(f);
        }
        if self.watermark < self.total_frames {
            let f = FrameId(self.watermark);
            self.watermark += 1;
            return Some(f);
        }
        None
    }

    /// Returns a frame to the hot list, spilling the oldest hot frame onto
    /// the cold stack when the hot list is full.
    pub(crate) fn free(&mut self, frame: FrameId) {
        self.hot.push(frame);
        if self.hot.len() > self.hot_max {
            let spilled = self.hot.remove(0);
            self.cold.push(spilled);
        }
    }

    /// Number of frames currently available without OOM.
    pub(crate) fn available(&self) -> usize {
        self.hot.len() + self.cold.len() + (self.total_frames - self.watermark)
    }

    /// Frames sitting on a free list (excludes never-used frames).
    pub(crate) fn listed(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Every frame the allocator can hand out: the listed ones, then the
    /// never-used ones at and above the watermark.
    pub(crate) fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.hot
            .iter()
            .chain(&self.cold)
            .copied()
            .chain((self.watermark..self.total_frames).map(FrameId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_from_empty_lists_uses_watermark_in_order() {
        let mut fl = FreeLists::new(4, 2);
        assert_eq!(fl.alloc(), Some(FrameId(0)));
        assert_eq!(fl.alloc(), Some(FrameId(1)));
        assert_eq!(fl.available(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fl = FreeLists::new(2, 2);
        assert!(fl.alloc().is_some());
        assert!(fl.alloc().is_some());
        assert_eq!(fl.alloc(), None);
        assert_eq!(fl.available(), 0);
    }

    #[test]
    fn freed_frame_is_reused_lifo() {
        let mut fl = FreeLists::new(8, 4);
        let a = fl.alloc().unwrap();
        let b = fl.alloc().unwrap();
        fl.free(a);
        fl.free(b);
        // Most recently freed first — the hot-list behaviour the ext2 attack
        // exploits.
        assert_eq!(fl.alloc(), Some(b));
        assert_eq!(fl.alloc(), Some(a));
    }

    #[test]
    fn reuse_order_is_most_recently_freed_first_across_spill() {
        let mut fl = FreeLists::new(16, 2);
        let frames: Vec<FrameId> = (0..4).map(|_| fl.alloc().unwrap()).collect();
        for &f in &frames {
            fl.free(f);
        }
        // hot holds the last 2 freed (frames[2], frames[3]); the earlier
        // frees spilled to the cold stack with the most recent spill on top.
        assert_eq!(fl.alloc(), Some(frames[3]));
        assert_eq!(fl.alloc(), Some(frames[2]));
        assert_eq!(fl.alloc(), Some(frames[1]));
        assert_eq!(fl.alloc(), Some(frames[0]));
    }

    #[test]
    fn listed_counts_only_freed_frames() {
        let mut fl = FreeLists::new(8, 4);
        assert_eq!(fl.listed(), 0);
        let a = fl.alloc().unwrap();
        fl.free(a);
        assert_eq!(fl.listed(), 1);
    }
}
