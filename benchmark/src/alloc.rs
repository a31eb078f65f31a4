//! Counting global allocator: live bytes and a high-water mark, counted
//! only while armed. Disarmed, every call costs one relaxed load and a
//! branch on top of the system allocator, so the timed phase runs with the
//! counters off and only the heap pass pays for them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct CountingAlloc {
    armed: AtomicBool,
    /// Signed: memory allocated before arming and freed while armed takes
    /// the count below its starting point.
    live: AtomicIsize,
    peak: AtomicIsize,
}

#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc {
    armed: AtomicBool::new(false),
    live: AtomicIsize::new(0),
    peak: AtomicIsize::new(0),
};

impl CountingAlloc {
    /// Start counting from zero.
    pub fn arm(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
        self.armed.store(true, Ordering::Relaxed);
    }

    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Bytes live now, relative to the moment of arming.
    pub fn live(&self) -> isize {
        self.live.load(Ordering::Relaxed)
    }

    /// Drop the high-water mark to the current live level and return that
    /// level; [`Self::peak`] then covers only what is allocated from here.
    pub fn reset_peak(&self) -> isize {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    pub fn peak(&self) -> isize {
        self.peak.load(Ordering::Relaxed)
    }

    #[inline]
    fn adjust(&self, old: usize, new: usize) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let delta = new as isize - old as isize;
        let live = self.live.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.adjust(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        self.adjust(layout.size(), 0);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.adjust(0, layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` meet `System.realloc`'s
        // requirements because they meet this method's identical ones.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.adjust(layout.size(), new_size);
        }
        p
    }
}

/// Bytes as MiB.
pub fn mib(bytes: isize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
