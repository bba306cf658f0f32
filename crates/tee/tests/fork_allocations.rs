//! Forking a platform from its boot snapshot, and dropping the fork, must
//! not allocate per entry: each slotted structure is one live-slot table
//! of a few flat buffers, so a fork into a new platform costs a bounded
//! number of heap allocations whatever the geometry. A fork written into
//! a platform that already ran a case, as the runner's snapshot cache
//! makes it, reuses every buffer (the derived `clone_from` passes each
//! field its own buffer) and allocates nothing. Stepping a warmed
//! platform through L1 hits, or through loads that all miss the L1D, must
//! not allocate at all: the LSU hands completions to the core in buffers
//! the two keep reusing, and every fill passes through a kept line buffer.
//! That holds with the trace off, and with it on and a sink attached: the
//! sink borrows each fill's line, so no fill payload is built.
//!
//! A counting global allocator tallies allocations and frees per thread,
//! so the test harness's own threads add no noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teesec_isa::asm::Assembler;
use teesec_isa::reg::Reg;
use teesec_tee::layout;
use teesec_tee::platform::PlatformSnapshot;
use teesec_tee::sm::SmOptions;
use teesec_tee::{HostVm, Platform};
use teesec_uarch::config::CoreConfig;
use teesec_uarch::trace::{HpcEvent, TraceEvent, TraceEventKind, TraceSink};
use teesec_uarch::RunExit;

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

    let (built, allocs, _) = counted(|| Platform::builder(cfg).build_from(&snap, None));
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

/// A host program that leaves every structure a fork copies in use:
/// stores and loads over 64 lines of host data (L1D, L2 and fill-buffer
/// lines), a loop branch (BTB entries) and the fetches of its own code.
fn touch_lines(a: &mut Assembler) {
    a.li(Reg::T0, layout::HOST_DATA);
    a.li(Reg::T1, 64);
    a.label("loop");
    a.sd(Reg::T1, Reg::T0, 0);
    a.ld(Reg::T2, Reg::T0, 0);
    a.addi(Reg::T0, Reg::T0, 64);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "loop");
}

/// Forks the boot snapshot into a platform that already ran a case, as
/// the runner's snapshot cache does, and returns the heap operations of
/// that `clone_from`.
fn recycled_fork_heap_ops(cfg: CoreConfig) -> (u64, u64) {
    let name = cfg.name.clone();
    let snap = PlatformSnapshot::capture(cfg.clone(), &SmOptions::default(), HostVm::Bare)
        .expect("boot snapshot");
    let mut platform = Platform::builder(cfg)
        .host_code(touch_lines)
        .build_from(&snap, None)
        .expect("fork from snapshot");
    assert_eq!(
        platform.run(1_000_000),
        RunExit::Halted,
        "{name}: the case halts"
    );
    let core = &mut platform.core;
    assert!(
        core.lsu.l1d.slots().live_count() >= 64,
        "{name}: the case filled the L1D"
    );
    let ((), allocs, frees) = counted(|| core.clone_from(snap.core()));
    assert_eq!(
        core.cycle,
        snap.core().cycle,
        "{name}: forked back to the boot"
    );
    (allocs, frees)
}

/// A recycled fork reuses every buffer of the platform it writes into:
/// no cache, BTB, TLB or fill-buffer storage, nor anything else. Its
/// frees are the memory pages and trace events only the finished case
/// held.
#[test]
fn recycled_forks_allocate_nothing() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let name = cfg.name.clone();
        let (allocs, frees) = recycled_fork_heap_ops(cfg);
        assert_eq!(
            allocs, 0,
            "{name}: the recycled fork made {allocs} allocations ({frees} frees)"
        );
    }
}

/// A host loop over one load that hits the L1D.
fn hitting_load(a: &mut Assembler) {
    a.li(Reg::T0, layout::HOST_DATA);
    a.li(Reg::T1, 1_000_000);
    a.label("loop");
    a.ld(Reg::T2, Reg::T0, 0);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "loop");
}

/// A host loop over loads that all miss the L1D: one line in every KiB of
/// a 128 KiB buffer, more lines than both presets' L1D can hold in the
/// sets they map to.
fn missing_loads(a: &mut Assembler) {
    const BUF: u64 = 0x9000_0000;
    a.li(Reg::T3, BUF + 0x2_0000);
    a.label("wrap");
    a.li(Reg::T0, BUF);
    a.label("loop");
    a.ld(Reg::T2, Reg::T0, 0);
    a.addi(Reg::T0, Reg::T0, 1024);
    a.bltu(Reg::T0, Reg::T3, "loop");
    a.j("wrap");
}

/// A sink that allocates nothing itself: it counts the fills it is handed
/// and the bytes of the lines it borrows.
#[derive(Default)]
struct Tally {
    fills: u64,
    line_bytes: u64,
}

impl TraceSink for Tally {
    fn on_record(&mut self, event: &TraceEvent, line: &[u8]) {
        if matches!(event.kind, TraceEventKind::Fill { .. }) {
            self.fills += 1;
            self.line_bytes += line.len() as u64;
        }
    }
}

/// Steps a forked platform whose host runs `host`, with tracing off, or
/// on with a [`Tally`] attached when `sink` is set, so nothing is
/// buffered either way, and counts the heap operations of `CYCLES`
/// cycles after a warm-up, in which at least `min_loads` loads retire.
/// Returns the L1D misses those cycles counted and the fills the sink
/// was handed in them (0 without a sink).
fn stepping_is_allocation_free(
    cfg: CoreConfig,
    host: fn(&mut Assembler),
    min_loads: u64,
    sink: bool,
) -> (u64, u64) {
    const CYCLES: u64 = 4_000;
    let name = format!("{} (sink: {sink})", cfg.name);
    let line_size = cfg.line_size;
    let snap = PlatformSnapshot::capture(cfg.clone(), &SmOptions::default(), HostVm::Bare)
        .expect("boot snapshot");
    let mut platform = Platform::builder(cfg)
        .host_code(host)
        .build_from(&snap, None)
        .expect("fork from snapshot");
    let core = &mut platform.core;
    let buffered = core.trace.len();
    if sink {
        core.trace.set_sink(Box::new(Tally::default()));
    } else {
        core.trace.set_enabled(false);
    }
    // Warm-up: every buffer is at its steady-state capacity.
    for _ in 0..CYCLES {
        core.step();
    }
    let before = core.retired();
    let misses_before = core.csr.hpm[HpcEvent::L1dMiss.counter_index()];
    let ((), allocs, frees) = counted(|| {
        for _ in 0..CYCLES {
            core.step();
        }
    });
    assert!(!core.halted, "{name}: the load loop outlasts the test");
    // Three instructions per iteration, one of them the load.
    let loads = (core.retired() - before) / 3;
    let misses = core.csr.hpm[HpcEvent::L1dMiss.counter_index()] - misses_before;
    assert!(loads >= min_loads, "{name}: only {loads} loads completed");
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "{name}: {CYCLES} cycles ({loads} loads, {misses} L1D misses) made {allocs} allocations and {frees} frees"
    );
    assert_eq!(core.trace.len(), buffered, "{name}: nothing is buffered");
    let fills = core.trace.take_sink().map_or(0, |tally| {
        let tally: Box<dyn std::any::Any> = tally;
        let tally = tally.downcast::<Tally>().expect("the tally");
        assert_eq!(
            tally.line_bytes,
            tally.fills * line_size,
            "{name}: every fill lends the sink a whole line"
        );
        tally.fills
    });
    (misses, fills)
}

#[test]
fn boom_stepping_is_allocation_free() {
    for sink in [false, true] {
        stepping_is_allocation_free(CoreConfig::boom(), hitting_load, 201, sink);
    }
}

#[test]
fn xiangshan_stepping_is_allocation_free() {
    for sink in [false, true] {
        stepping_is_allocation_free(CoreConfig::xiangshan(), hitting_load, 201, sink);
    }
}

/// Every load misses the L1D, so fills complete throughout, and with a
/// sink attached each one lends it the line.
#[test]
fn l1d_missing_loads_are_allocation_free() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        for sink in [false, true] {
            let name = format!("{} (sink: {sink})", cfg.name);
            let (misses, fills) =
                stepping_is_allocation_free(cfg.clone(), missing_loads, 500, sink);
            assert!(misses >= 500, "{name}: only {misses} L1D misses");
            assert!(
                !sink || fills >= misses,
                "{name}: {fills} fills for {misses} L1D misses"
            );
        }
    }
}
