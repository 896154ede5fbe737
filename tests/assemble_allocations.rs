//! Allocation pin for `assemble`: building a macro's netlist makes
//! fewer heap allocations than half the macro's instance count.
//!
//! The netlist stores names in byte arenas, pins in one table and each
//! distinct group path once, so no net, instance or group allocates on
//! its own, and the array generator keeps each row's read bit lines in
//! a fixed array; what remains is the arenas' amortised growth and the
//! generators' per-column scratch vectors. A counting
//! global allocator wraps `System` for this whole test binary (it holds
//! one test, so no other test allocates concurrently) and counts every
//! `alloc`, `alloc_zeroed` and `realloc` call.
//!
//! Under `SYNDCIM_SLOW_TESTS=1` the test also reports the 256×256
//! scale tier's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_pdk::CellLibrary;

/// Allocation calls made through [`Counting`] so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every call that hands out a block.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `assemble` makes for `spec`, and the instance count
/// of the module it returns.
fn assemble_allocations(lib: &CellLibrary, spec: &MacroSpec) -> (u64, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mac = assemble(lib, spec, &DesignChoice::default());
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, mac.module.instance_count())
}

#[test]
fn assemble_allocates_less_than_once_per_instance() {
    let lib = CellLibrary::syn40();
    let mut specs = vec![("paper chip", MacroSpec::paper_test_chip())];
    if std::env::var("SYNDCIM_SLOW_TESTS").is_ok_and(|v| v == "1") {
        let scale = MacroSpec {
            h: 256,
            w: 256,
            fp_precisions: vec![],
            f_mac_mhz: 500.0,
            f_wu_mhz: 500.0,
            ..MacroSpec::paper_test_chip()
        };
        specs.push(("scale tier", scale));
    }
    for (what, spec) in specs {
        let (allocations, instances) = assemble_allocations(&lib, &spec);
        println!(
            "{what}: assemble made {allocations} allocations for {instances} instances ({:.2} per instance)",
            allocations as f64 / instances as f64
        );
        assert!(
            allocations < instances as u64 / 2,
            "{what}: assemble made {allocations} allocations for {instances} instances"
        );
    }
}
