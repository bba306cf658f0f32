//! Forking a platform from its boot snapshot, and dropping the fork, must
//! not allocate per cache line: each storage structure is a few flat
//! buffers, so a fork costs a bounded number of heap allocations whatever
//! the cache geometry.
//!
//! A counting global allocator tallies allocations and frees per thread,
//! so the test harness's own threads add no noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teesec_tee::platform::PlatformSnapshot;
use teesec_tee::sm::SmOptions;
use teesec_tee::{HostVm, Platform};
use teesec_uarch::config::CoreConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counters are
// const-initialized thread-locals without destructors: bumping them never
// allocates, and `try_with` skips the count instead of panicking once the
// thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations and frees it made
/// on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    (out, a1 - a0, f1 - f0)
}

/// Ceiling on heap operations per fork or drop. A fork copies a few flat
/// buffers per structure, so its count does not grow with cache size;
/// the presets have 2,560 (BOOM) and 6,144 (XiangShan) cache lines.
const BOUND: u64 = 100;

fn forks_are_allocation_bounded(cfg: CoreConfig) {
    let name = cfg.name.clone();
    let snap = PlatformSnapshot::capture(cfg.clone(), &SmOptions::default(), HostVm::Bare)
        .expect("boot snapshot");

    let (built, allocs, _) = counted(|| Platform::builder(cfg).build_from(&snap));
    let built = built.expect("fork from snapshot");
    assert!(
        allocs < BOUND,
        "{name}: build_from made {allocs} allocations"
    );

    let (fork, allocs, _) = counted(|| built.clone());
    assert!(
        allocs < BOUND,
        "{name}: Platform::clone made {allocs} allocations"
    );

    let ((), _, frees) = counted(|| drop(fork));
    assert!(frees < BOUND, "{name}: dropping a fork made {frees} frees");
}

#[test]
fn boom_fork_is_allocation_bounded() {
    forks_are_allocation_bounded(CoreConfig::boom());
}

#[test]
fn xiangshan_fork_is_allocation_bounded() {
    forks_are_allocation_bounded(CoreConfig::xiangshan());
}
