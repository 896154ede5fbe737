//! Crate-internal helper for disjoint parallel writes.
//!
//! The layout phases fan independent work items across
//! [`syndcim_ir::parallel_map_threads`] workers, and every item owns a
//! *disjoint* set of output indices by construction (each instance
//! belongs to exactly one floorplan strip; in the DRC member table,
//! each band's slice holds one cursor range per footprint chunk).
//! [`DisjointWriter`] lets those workers write their slots of one
//! shared output buffer directly — no per-worker result vectors, no
//! serial scatter pass afterwards — which is what keeps the serial
//! fraction of placement small enough for the ≥2× multi-core bar the
//! layout bench pins.

/// A raw shared view of a `&mut [T]` for workers that write disjoint
/// index sets.
///
/// # Safety contract (callers inside this crate)
///
/// * every index is written by **at most one** worker;
/// * no other access to the underlying slice happens while workers run
///   (the borrow is re-established only after the scoped threads join);
/// * indices stay in bounds (`len` is checked on every write).
pub(crate) struct DisjointWriter<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Sync for DisjointWriter<T> {}
unsafe impl<T: Send> Send for DisjointWriter<T> {}

impl<T> DisjointWriter<T> {
    /// Wrap `slice` for disjoint writes from scoped workers.
    pub(crate) fn new(slice: &mut [T]) -> Self {
        DisjointWriter { ptr: slice.as_mut_ptr(), len: slice.len() }
    }

    /// Overwrite slot `i`. Bounds-checked; disjointness is the
    /// caller's obligation (see the struct docs).
    #[inline]
    pub(crate) fn set(&self, i: usize, value: T) {
        assert!(i < self.len, "disjoint write out of bounds: {i} >= {}", self.len);
        // SAFETY: in-bounds (checked above); the crate-internal callers
        // guarantee each index is written by exactly one worker while
        // no other reference to the slice is live.
        unsafe { self.ptr.add(i).write(value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_ir::parallel_map_threads;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut data = vec![0u32; 64];
        let w = DisjointWriter::new(&mut data);
        let jobs: Vec<usize> = (0..8).collect();
        parallel_map_threads(jobs, 4, |_, chunk| {
            for i in (chunk * 8)..(chunk * 8 + 8) {
                w.set(i, i as u32 + 1);
            }
        });
        assert_eq!(data, (1..=64).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let mut data = vec![0u8; 4];
        let w = DisjointWriter::new(&mut data);
        w.set(4, 1);
    }
}
