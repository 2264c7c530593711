//! Measurement support for the benchmark in `perfbench/`: the counting
//! allocator behind its allocation and peak-memory figures, and the
//! JSON string escaping its result documents use.
//!
//! Timing itself lives in `perfbench/`; this module keeps only what a
//! measuring binary needs from the library side.

/// Heap-allocation accounting for bench runs.
///
/// [`CountingAlloc`] wraps the system allocator and keeps global counters:
/// allocation events, bytes requested, live bytes, and a high-water mark.
/// A binary opts in with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: xkit::bench::alloc::CountingAlloc = xkit::bench::alloc::CountingAlloc;
/// ```
///
/// after which [`snapshot`](alloc::snapshot) deltas report how many heap
/// allocations a stage performed — the regression signal the time columns
/// can hide. Without the opt-in every counter just stays at zero, so the
/// API is safe to call unconditionally.
pub mod alloc {
    // `GlobalAlloc` is an unsafe trait: implementing it is the single
    // sanctioned use of `unsafe` in this crate (see lib.rs). The impl adds
    // no pointer arithmetic of its own — it only updates atomics and
    // forwards to `System`.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }

    fn on_dealloc(size: u64) {
        LIVE.fetch_sub(size, Relaxed);
    }

    /// A [`System`]-backed allocator that counts every allocation.
    pub struct CountingAlloc;

    // SAFETY: every method forwards to `System` with the caller's exact
    // layout and pointer, so `System`'s own contract is what holds; the
    // counter updates are lock- and alloc-free atomics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: `layout` is forwarded unchanged to `System.alloc`.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: `layout` is forwarded unchanged to `System`.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr`/`layout` come from a matching `alloc` on
            // `System` (every alloc path above forwards to it).
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged
            // to `System.realloc`, which owns the allocation.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                // Count a realloc as one allocation event; live bytes move
                // by the size delta so the peak tracks true working set.
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    /// Point-in-time view of the global counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocSnapshot {
        /// Allocation events since process start.
        pub allocs: u64,
        /// Bytes requested since process start.
        pub bytes: u64,
        /// Bytes currently live.
        pub live: u64,
        /// High-water mark of live bytes (since start or last
        /// [`reset_peak`]).
        pub peak: u64,
    }

    /// Read the counters.
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live: LIVE.load(Relaxed),
            peak: PEAK.load(Relaxed),
        }
    }

    /// Reset the peak-live mark to the current live size, so the next
    /// [`snapshot`] reports the peak *within* the stage that follows.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
