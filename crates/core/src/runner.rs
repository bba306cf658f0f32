//! Lowers test cases onto the Keystone platform and executes them on the
//! cycle-driven core — the "RTL simulation" phase of the framework.
//!
//! Three execution paths exist:
//!
//! - **fresh**: assemble the security monitor, build page tables, and
//!   simulate the SM boot from reset for every case;
//! - **boot-forked**: cases sharing a boot configuration fork a
//!   copy-on-write [`PlatformSnapshot`] captured once per configuration
//!   just before the first host fetch ([`SnapshotCache`]), skipping the
//!   SM assembly, page-table build, and boot simulation entirely;
//! - **prefix-forked**: interrupt-timing sweep cases — identical except
//!   for the cycle their external interrupt lands — fork a checkpoint of
//!   the fully built platform *run up to the first interrupt candidate*,
//!   skipping the shared setup-gadget prefix's simulation entirely and
//!   re-simulating only the post-interrupt tail. A capture with a checker
//!   feeds it the prefix online and parks it at the checkpoint, which
//!   then keeps no prefix events: a fork's checker starts as a copy of it
//!   instead of re-scanning the prefix. A capture without a checker
//!   buffers the prefix's events for its siblings to replay. The engine
//!   builds its cache from the corpus it runs, so a checkpoint lives only
//!   until its family's last case has forked it, and its platform then
//!   serves the next family's capture.
//!
//! All paths produce cycle-exact identical platforms and reports
//! (asserted by the `stream_equivalence` suite), so the choice is one of
//! speed alone: the engine passes every case its run's [`SnapshotCache`],
//! and [`run_case`] builds fresh.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use teesec_tee::layout;
use teesec_tee::platform::{BuildError, HostVm, Platform, PlatformBuilder, PlatformSnapshot};
use teesec_tee::sm::SmOptions;
use teesec_trace::TraceCtx;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::core::{Core, RunExit};
use teesec_uarch::trace::Trace;

use crate::checker::replay;
use crate::diff::{self, DiffOptions, DiffVerdict, Lockstep};
use crate::stream::StreamingChecker;
use crate::testcase::{lower_steps, TestCase};

/// How a case's platform came to be: the snapshot-cache tier (if any)
/// that produced it. Carried on [`RunOutcome`] so traces and events can
/// attribute build cost to the right path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// Assembled and booted from reset (no cache, or cache bypassed).
    Fresh,
    /// This case captured the boot snapshot for its configuration.
    BootCaptured,
    /// Forked an existing boot snapshot.
    BootForked,
    /// This case captured the setup-prefix checkpoint for its sweep
    /// family.
    PrefixCaptured,
    /// Forked an existing setup-prefix checkpoint.
    PrefixForked,
}

impl BuildKind {
    /// Short label for trace args and metrics (`fresh`, `boot_fork`, ...).
    pub fn label(self) -> &'static str {
        match self {
            BuildKind::Fresh => "fresh",
            BuildKind::BootCaptured => "boot_capture",
            BuildKind::BootForked => "boot_fork",
            BuildKind::PrefixCaptured => "prefix_capture",
            BuildKind::PrefixForked => "prefix_fork",
        }
    }
}

/// The product of running one test case.
#[derive(Debug)]
pub struct RunOutcome {
    /// The platform after the run (trace, caches, CSRs all inspectable).
    pub platform: Platform,
    /// How the run ended.
    pub exit: RunExit,
    /// Cycles consumed.
    pub cycles: u64,
    /// Wall-clock cost of assembling and building the platform, separated
    /// from simulation proper for the engine's per-phase histograms.
    pub build_us: u128,
    /// Which build path produced the platform.
    pub build: BuildKind,
    /// The checker passed in through [`RunOptions::checker`], having
    /// observed every event of the run; `None` when none was passed.
    pub checker: Option<StreamingChecker>,
    /// The differential oracle's verdict on this run; `Some` iff
    /// [`RunOptions::oracle`] was set.
    pub diff: Option<DiffVerdict>,
}

/// Builds and runs `tc` on a core configured by `cfg`.
///
/// # Errors
///
/// Propagates [`BuildError`] when the lowered program does not assemble or
/// overflows a region.
pub fn run_case(tc: &TestCase, cfg: &CoreConfig) -> Result<RunOutcome, BuildError> {
    run_case_opts(tc, cfg, RunOptions::default())
}

/// Execution options for [`run_case_opts`].
#[derive(Default)]
pub struct RunOptions<'c> {
    /// Simulated-cycle watchdog: the effective cycle limit is
    /// `min(tc.max_cycles, budget)`, so a budget-blown case exits with
    /// [`RunExit::CycleLimit`] instead of running out its full
    /// `max_cycles`.
    pub budget: Option<u64>,
    /// Fork the platform from a shared boot snapshot when one applies.
    pub snapshot_cache: Option<&'c SnapshotCache>,
    /// Checker fed every event as the run records it, handed back in
    /// [`RunOutcome::checker`]. When the platform is snapshot-forked, the
    /// checker first catches up on the events simulated before the fork,
    /// so it observes the exact sequence a fresh run would have produced:
    /// a boot fork replays its boot prefix into it, and a setup-prefix
    /// fork replaces it with a copy of the checker parked at the
    /// checkpoint (or replays the prefix too, when the capture ran
    /// without a checker). As the trace's sink, it keeps the trace from
    /// retaining events: peak retained events stay O(boot prefix) instead
    /// of O(simulated cycles), on a setup-prefix fork too. The engine
    /// passes one for every case. Without one the trace buffers every
    /// event, for [`check_case`](crate::check_case); such a case forks a
    /// setup-prefix checkpoint only if the checkpoint buffered its prefix,
    /// and the boot snapshot otherwise.
    pub checker: Option<StreamingChecker>,
    /// Differential oracle observing the run: a lockstep ISS compares
    /// every retire of this very run, and its verdict lands in
    /// [`RunOutcome::diff`]. A boot-forked run resumes the lockstep parked
    /// at its boot snapshot, so retires count from reset and nothing is
    /// simulated twice. Cases outside the oracle's model (see
    /// [`diff_case`](crate::diff::diff_case)) get their `Skipped` verdict
    /// without an ISS.
    pub oracle: Option<DiffOptions>,
    /// Span-recording context: when its tracer is set, the run emits
    /// `build` and `simulate` spans (under the context's parent span)
    /// plus periodic `sim_cycles` counter samples. The oracle's ISS runs
    /// inside `simulate`.
    pub trace: TraceCtx<'c>,
}

/// Simulated cycles between `sim_cycles` counter samples on a traced run
/// (a handful of samples for a typical case, so sampling cost stays
/// negligible next to simulation).
const SIM_SAMPLE_CYCLES: u64 = 50_000;

/// [`run_case`] with full control over budget, snapshot reuse, and
/// online checking ([`RunOptions`]).
///
/// # Errors
///
/// Propagates [`BuildError`] exactly as [`run_case`] does.
pub fn run_case_opts(
    tc: &TestCase,
    cfg: &CoreConfig,
    mut opts: RunOptions<'_>,
) -> Result<RunOutcome, BuildError> {
    let build_start = std::time::Instant::now();
    let mut build_span = opts.trace.span("build");
    let limit = opts.budget.map_or(tc.max_cycles, |b| b.min(tc.max_cycles));
    let checker = opts.checker.take();
    let Built {
        mut platform,
        kind: build,
        boot,
        checker,
    } = match opts.snapshot_cache {
        Some(cache) => cache.platform_for(tc, cfg, limit, checker)?,
        None => Built::replayed(
            case_builder(tc, cfg).build()?,
            BuildKind::Fresh,
            None,
            checker,
        ),
    };
    let mut oracle = opts.oracle.as_ref().map(|o| {
        let core = &mut platform.core;
        match (diff::out_of_model(tc), boot, build) {
            (Some(skipped), ..) => Oracle::Settled(skipped),
            (None, Some(boot), _) => Oracle::Observing(boot.oracle.fork(core, o)),
            (None, None, BuildKind::Fresh) => Oracle::Observing(Lockstep::new(core, o)),
            // Only interrupt cases fork setup-prefix checkpoints, and the
            // oracle skips those before this point.
            (None, None, _) => Oracle::Settled(DiffVerdict::Skipped {
                reason: "setup-prefix checkpoints carry no ISS state".into(),
            }),
        }
    });
    if let Some(checker) = checker {
        platform.core.trace.set_sink(Box::new(checker));
    }
    build_span.arg("cache", build.label());
    drop(build_span);
    if matches!(build, BuildKind::BootCaptured | BuildKind::PrefixCaptured) {
        opts.trace.mark("snapshot_capture");
    }
    let build_us = build_start.elapsed().as_micros();
    let lockstep = match &mut oracle {
        Some(Oracle::Observing(lockstep)) => Some(lockstep),
        _ => None,
    };
    let exit = if opts.trace.active() {
        let mut sim_span = opts.trace.span("simulate");
        let exit = simulate_traced(&mut platform.core, limit, lockstep, opts.trace);
        sim_span.arg("cycles", platform.core.cycle);
        sim_span.arg("cache", build.label());
        exit
    } else if let Some(lockstep) = lockstep {
        platform
            .core
            .run_observed(limit, |core| lockstep.observe(core))
    } else {
        platform.run(limit)
    };
    let diff = oracle.map(|oracle| match oracle {
        Oracle::Observing(lockstep) => lockstep.finish(&mut platform.core, exit, limit),
        Oracle::Settled(verdict) => verdict,
    });
    let cycles = platform.core.cycle;
    // Forks never carry a sink (`Trace::clone` drops it), so the only one
    // attached is the checker from `opts`.
    let checker = take_checker(&mut platform.core.trace);
    Ok(RunOutcome {
        platform,
        exit,
        cycles,
        build_us,
        build,
        checker,
        diff,
    })
}

/// The checker attached as `trace`'s sink, taken back.
fn take_checker(trace: &mut Trace) -> Option<StreamingChecker> {
    trace.take_sink().map(|sink| {
        let sink: Box<dyn Any> = sink;
        *sink
            .downcast::<StreamingChecker>()
            .expect("the runner attaches no sink but the checker")
    })
}

/// The differential oracle of one run. One short-lived local per run, so
/// its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Oracle {
    /// A lockstep observing the run.
    Observing(Lockstep),
    /// A verdict reached before the run, without an ISS.
    Settled(DiffVerdict),
}

/// A platform ready to run, as [`SnapshotCache::platform_for`] hands it
/// out.
struct Built {
    platform: Platform,
    kind: BuildKind,
    /// The boot snapshot a boot fork came from.
    boot: Option<Arc<BootSnapshot>>,
    /// The run's checker, caught up on every event the platform simulated
    /// before this run.
    checker: Option<StreamingChecker>,
}

impl Built {
    /// `platform` with `checker` caught up by replaying the events the
    /// platform buffered before this run: a boot fork's boot prefix, and
    /// none for a fresh build.
    fn replayed(
        platform: Platform,
        kind: BuildKind,
        boot: Option<Arc<BootSnapshot>>,
        checker: Option<StreamingChecker>,
    ) -> Built {
        let checker = checker.map(|checker| replay(checker, &platform.core.trace));
        Built {
            platform,
            kind,
            boot,
            checker,
        }
    }
}

/// The traced run: `core` runs to `limit` under the lockstep, if any, and
/// a `sim_cycles` counter sample is taken about every
/// [`SIM_SAMPLE_CYCLES`] simulated cycles and once at exit. Samples are
/// taken from the per-cycle observer, which the core calls only for the
/// cycles it steps ([`Core::run_observed`]), so each lands on the first
/// stepped cycle at or after its boundary.
fn simulate_traced(
    core: &mut Core,
    limit: u64,
    mut lockstep: Option<&mut Lockstep>,
    tctx: TraceCtx<'_>,
) -> RunExit {
    let mut next_sample = core.cycle + SIM_SAMPLE_CYCLES;
    let exit = core.run_observed(limit, |core| {
        if let Some(lockstep) = lockstep.as_deref_mut() {
            lockstep.observe(core);
        }
        if core.cycle >= next_sample {
            tctx.counter_sample("sim_cycles", core.cycle);
            next_sample += SIM_SAMPLE_CYCLES;
        }
    });
    tctx.counter_sample("sim_cycles", core.cycle);
    exit
}

/// Hit/miss/bypass counters of a [`SnapshotCache`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotCacheMetrics {
    /// Cases that forked an existing checkpoint (boot or setup-prefix).
    pub hits: u64,
    /// Cases that captured a new checkpoint (first case per
    /// configuration or sweep family).
    pub misses: u64,
    /// Cases that fell back to a fresh build (checkpointing inapplicable:
    /// an external interrupt scheduled inside the boot prefix, or a
    /// capture failure for the configuration).
    pub bypasses: u64,
    /// Total wall-clock µs spent capturing checkpoints (boot snapshots
    /// plus setup-prefix builds) — the one-time cost the hits amortize.
    pub capture_us: u64,
}

/// Retained setup-prefix checkpoints are bounded: each holds a
/// copy-on-write platform (shared pages, plus the prefix's events when the
/// capture ran without a checker) and the checker fed over that prefix,
/// so the cache evicts the oldest sweep family beyond this many. A cache
/// built from its corpus also lets a checkpoint go as soon as its family's
/// last case has forked it, so this bound only bites when more families
/// than this are in flight at once.
const PREFIX_CAP: usize = 64;

/// A keyed cache of copy-on-write platform checkpoints, shared across
/// engine workers (interior mutability; take a `&SnapshotCache` per
/// worker). Forks write into the platforms of finished cases: the engine
/// hands each case's platform back ([`SnapshotCache::recycle`]), and the
/// next fork reuses its buffers instead of allocating and freeing a
/// platform per case. So a run keeps one spare per worker, owned by the
/// cache and dropped with it, plus the platform of each setup-prefix
/// checkpoint it has let go until the next capture takes it. Two tiers:
///
/// - **Boot snapshots**, keyed by everything the boot prefix depends on:
///   the design name plus the setup knobs lowered into the security
///   monitor image and host page tables — `(design, host_sv39,
///   mcounteren, sm_clear_hpcs, irq enabled)`. Everything else a case
///   varies (host/enclave programs, secret seeds, the interrupt cycle) is
///   applied *after* the fork by [`PlatformBuilder::build_from`]. The
///   capture's boot runs under the differential oracle, whose lockstep is
///   parked beside the snapshot for oracle runs to fork.
/// - **Setup-prefix checkpoints** for interrupt-timing sweeps, keyed by
///   the design name plus the *entire case minus its interrupt cycle*
///   (name, access path and cycle budget are execution-irrelevant and
///   left out), compared field by field. The first case of a sweep family
///   builds the full platform, simulates the shared setup prefix up to
///   one cycle before its interrupt, and checkpoints there; every sibling
///   whose interrupt lands later forks the checkpoint and re-simulates
///   only the tail.
///   When the capturing case runs with a checker, the checker is fed the
///   prefix online and a copy is parked beside the platform, whose trace
///   then keeps no prefix events. A sibling that runs with a checker
///   starts from a copy of it under its own case name and path, the only
///   checker state the key leaves out, instead of replaying the prefix;
///   a sibling without one forks the boot snapshot (tier two), still
///   counted as a hit. When the capturing case runs without a checker,
///   the platform buffers the prefix, and every sibling forks it. Debug
///   builds check every copy of a parked checker against a replay of the
///   prefix.
///
///   A cache built from the corpus it serves ([`SnapshotCache::for_corpus`])
///   knows how many cases each sweep family has. Once it has served a
///   family's last case, whichever tier served it, it drops the family's
///   checkpoint and keeps the checkpoint's platform as a spare, so the
///   next capture builds into one spare and forks into another. A run
///   that submits its sweeps family by family thus holds one checkpoint
///   at a time. A cache built with [`SnapshotCache::new`] keeps every
///   checkpoint until 64 newer families evict it (`PREFIX_CAP`).
#[derive(Debug, Default)]
pub struct SnapshotCache {
    boots: Mutex<HashMap<BootKey, Option<Arc<BootSnapshot>>>>,
    prefixes: Mutex<PrefixMap>,
    /// Platforms of finished cases, for the next forks to write into.
    spares: Mutex<Vec<Platform>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    capture_us: AtomicU64,
}

type BootKey = (String, bool, u64, bool, bool);

/// Setup-prefix checkpoints, oldest first, and the sweep families of the
/// corpus the cache was built from (none for [`SnapshotCache::new`]).
#[derive(Debug, Default)]
struct PrefixMap {
    entries: VecDeque<PrefixEntry>,
    families: Vec<Family>,
}

/// One sweep family of the corpus a cache was built from: the design and
/// a case that stand for it, and how many of its cases the cache has yet
/// to serve.
#[derive(Debug)]
struct Family {
    design: String,
    case: TestCase,
    unserved: usize,
}

/// One sweep family's checkpoint: the design and the case that captured
/// it, which stand for the family, and the checkpoint (`None` when the
/// capture failed, so siblings skip straight to tier two).
#[derive(Debug)]
struct PrefixEntry {
    design: String,
    case: TestCase,
    snap: Option<Arc<PrefixSnapshot>>,
}

/// A boot snapshot and the lockstep oracle that compared its boot,
/// parked at the capture point ([`Lockstep::park`]).
#[derive(Debug)]
struct BootSnapshot {
    snap: PlatformSnapshot,
    oracle: Lockstep,
}

/// A fully built platform checkpointed mid-run, after the setup-gadget
/// prefix shared by an interrupt-timing sweep family. It lives in its
/// family's [`PrefixEntry`] until [`PREFIX_CAP`] newer families evict it
/// or, in a cache built from its corpus, until the family's last case has
/// forked it.
#[derive(Debug)]
struct PrefixSnapshot {
    /// The checkpointed platform. Its trace buffers the whole prefix when
    /// the capture ran without a checker; otherwise it holds only what was
    /// buffered before the capture attached its checker: a boot fork's
    /// boot prefix, shared with the boot snapshot.
    platform: Platform,
    /// The cycle the checkpoint was taken at. Forking is sound only for
    /// interrupts scheduled strictly later: before this cycle the
    /// captured execution and a fresh run are indistinguishable.
    prefix_cycles: u64,
    /// The capturing case's checker, fed every event of the prefix;
    /// `None` when that case ran without one.
    checker: Option<StreamingChecker>,
    /// Debug builds: the trace of the prefix simulated once more without a
    /// checker, whose replay [`PrefixSnapshot::catch_up`] checks every
    /// copy of the parked checker against. Empty when none is parked.
    #[cfg(debug_assertions)]
    reference: Trace,
}

impl PrefixSnapshot {
    /// `checker` caught up on the prefix a fork of this checkpoint skips:
    /// a copy of the parked checker, or a replay of the buffered prefix
    /// when the capture ran without a checker. In debug builds the copy is
    /// checked against a replay of the prefix.
    fn catch_up(&self, checker: StreamingChecker, tc: &TestCase) -> StreamingChecker {
        let Some(parked) = &self.checker else {
            return replay(checker, &self.platform.core.trace);
        };
        let forked = parked.fork_as(&checker);
        #[cfg(debug_assertions)]
        assert!(
            forked == replay(checker, &self.reference),
            "the checker parked at a setup-prefix checkpoint differs from replaying the prefix \
             for case {}",
            tc.name
        );
        #[cfg(not(debug_assertions))]
        let _ = tc;
        forked
    }
}

impl SnapshotCache {
    /// Creates an empty cache.
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
    }

    /// Creates an empty cache for running `corpus` on `design`. It counts
    /// the cases of each sweep family (cases with an external interrupt,
    /// grouped by their sweep-family key) and lets a family's checkpoint
    /// go once it has served them all. Serve it only the cases of
    /// `corpus`, each once.
    pub fn for_corpus(design: &str, corpus: &[TestCase]) -> SnapshotCache {
        let mut families: Vec<Family> = Vec::new();
        for tc in corpus.iter().filter(|tc| tc.irq_at.is_some()) {
            // Newest first: a sweep lists a family's cases together.
            match families.iter_mut().rev().find(|f| same_family(&f.case, tc)) {
                Some(family) => family.unserved += 1,
                None => families.push(Family {
                    design: design.to_string(),
                    case: tc.clone(),
                    unserved: 1,
                }),
            }
        }
        SnapshotCache {
            prefixes: Mutex::new(PrefixMap {
                families,
                ..PrefixMap::default()
            }),
            ..SnapshotCache::default()
        }
    }

    /// Takes back the platform of a finished case, which a later fork
    /// will overwrite. Hand back only a platform whose run is over and
    /// whose results are collected.
    pub fn recycle(&self, platform: Platform) {
        self.spares
            .lock()
            .expect("spare platforms poisoned")
            .push(platform);
    }

    /// A platform a finished case left behind, if any.
    fn spare(&self) -> Option<Platform> {
        self.spares.lock().expect("spare platforms poisoned").pop()
    }

    /// A fork of `platform`, written into a spare when there is one.
    fn fork(&self, platform: &Platform) -> Platform {
        match self.spare() {
            Some(mut spare) => {
                spare.clone_from(platform);
                spare
            }
            None => platform.clone(),
        }
    }

    /// Current counter values.
    pub fn metrics(&self) -> SnapshotCacheMetrics {
        SnapshotCacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            capture_us: self.capture_us.load(Ordering::Relaxed),
        }
    }

    /// Produces a ready-to-run platform for `tc`, forking the deepest
    /// applicable checkpoint (setup-prefix, then boot) and falling back
    /// to a fresh build, with `checker` caught up on the fork's prefix.
    /// Exactly one of hits/misses/bypasses is counted per call, so the
    /// three always sum to the number of cases run. Then `tc` counts as
    /// served for its sweep family, which lets the family's checkpoint go
    /// after its last case.
    fn platform_for(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        limit: u64,
        checker: Option<StreamingChecker>,
    ) -> Result<Built, BuildError> {
        let built = self.fork_or_build(tc, cfg, limit, checker);
        if tc.irq_at.is_some() {
            self.served(&cfg.name, tc);
        }
        built
    }

    /// Counts `tc` served for its sweep family, if it belongs to one of
    /// the corpus this cache was built from. After the family's last case
    /// the checkpoint leaves the map, and its platform becomes a spare
    /// unless another worker still holds the checkpoint.
    fn served(&self, design: &str, tc: &TestCase) {
        let released = {
            let mut map = self.prefixes.lock().expect("prefix cache poisoned");
            map.served(design, tc)
        };
        if let Some(snap) = released.and_then(Arc::into_inner) {
            self.recycle(snap.platform);
        }
    }

    /// [`SnapshotCache::platform_for`] before `tc` counts as served.
    fn fork_or_build(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        limit: u64,
        checker: Option<StreamingChecker>,
    ) -> Result<Built, BuildError> {
        // Tier one: setup-prefix checkpoints for interrupt-timing sweeps.
        // Only sound when the interrupt lands strictly inside the cycle
        // budget — otherwise a fresh run would hit the limit first.
        let mut counted = false;
        if let Some(at) = tc.irq_at.filter(|&at| at > 0 && at - 1 < limit) {
            let cached = {
                let map = self.prefixes.lock().expect("prefix cache poisoned");
                map.get(&cfg.name, tc).cloned()
            };
            match cached {
                Some(Some(snap)) if at > snap.prefix_cycles => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if checker.is_some() || snap.checker.is_none() {
                        let mut platform = self.fork(&snap.platform);
                        platform.core.schedule_external_interrupt(at);
                        return Ok(Built {
                            platform,
                            kind: BuildKind::PrefixForked,
                            boot: None,
                            checker: checker.map(|checker| snap.catch_up(checker, tc)),
                        });
                    }
                    // A checker-less case cannot catch up on a checkpoint
                    // that parked a checker instead of buffering the
                    // prefix's events: tier two, already counted as a hit.
                    counted = true;
                }
                // Captured but inapplicable (interrupt inside the captured
                // prefix, or the family's capture failed): tier two.
                Some(_) => {}
                None => return self.capture_prefix(tc, cfg, at, checker),
            }
        }
        // Tier two: boot snapshots.
        let count = |counter: &AtomicU64| {
            if !counted {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let (boot, fresh_capture) = self.boot_snapshot_for(tc, cfg);
        match boot {
            Some(boot) if boot_fork_applies(tc, &boot.snap) => {
                let (counter, kind) = if fresh_capture {
                    (&self.misses, BuildKind::BootCaptured)
                } else {
                    (&self.hits, BuildKind::BootForked)
                };
                count(counter);
                let platform = case_builder(tc, cfg).build_from(&boot.snap, self.spare())?;
                Ok(Built::replayed(platform, kind, Some(boot), checker))
            }
            _ => {
                count(&self.bypasses);
                let platform = case_builder(tc, cfg).build()?;
                Ok(Built::replayed(platform, BuildKind::Fresh, None, checker))
            }
        }
    }

    /// First case of a sweep family: build the full platform (forking the
    /// boot snapshot when possible), simulate the shared setup prefix up
    /// to one cycle before this case's interrupt, checkpoint there with
    /// `checker` fed over the prefix online, and hand this case a fork of
    /// the fresh checkpoint and the fed checker. Without a checker the
    /// checkpoint buffers the prefix instead.
    fn capture_prefix(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        at: u64,
        checker: Option<StreamingChecker>,
    ) -> Result<Built, BuildError> {
        let (boot, _) = self.boot_snapshot_for(tc, cfg);
        // Boot-capture cost (when this call did one) is accounted by
        // `boot_snapshot_for`; time only the prefix build + run here.
        let t0 = std::time::Instant::now();
        let built = match boot {
            Some(boot) if boot_fork_applies(tc, &boot.snap) => {
                case_builder_with(tc, cfg, false).build_from(&boot.snap, self.spare())
            }
            _ => case_builder_with(tc, cfg, false).build(),
        };
        let mut platform = match built {
            Ok(p) => p,
            Err(e) => {
                // Remember the failure so siblings skip the capture
                // attempt; the case itself surfaces the build error.
                let mut map = self.prefixes.lock().expect("prefix cache poisoned");
                map.insert_bounded(&cfg.name, tc, None);
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // Debug builds: the prefix as a checker-less run buffers it, the
        // reference `catch_up` checks each copy of the parked checker with.
        #[cfg(debug_assertions)]
        let reference = if checker.is_some() {
            let mut reference = platform.clone();
            reference.run(at - 1);
            reference.core.trace
        } else {
            Trace::default()
        };
        // A checker catches up on what the platform buffered so far (a
        // boot fork's boot prefix) and then takes the setup prefix online,
        // so the checkpoint keeps none of the prefix's events.
        if let Some(checker) = checker {
            let checker = replay(checker, &platform.core.trace);
            platform.core.trace.set_sink(Box::new(checker));
        }
        // The prefix run is interrupt-free by construction (the builder
        // above never schedules one), so it is bit-identical to a fresh
        // run's first `at - 1` cycles: the interrupt only asserts from
        // cycle `at` onward.
        platform.run(at - 1);
        let checker = take_checker(&mut platform.core.trace);
        if checker.is_none() {
            // Freeze the buffered setup prefix: sibling forks share it by
            // refcount instead of deep-copying the event buffer.
            platform.core.trace.freeze();
        }
        self.capture_us.fetch_add(
            t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(PrefixSnapshot {
            prefix_cycles: platform.core.cycle,
            platform,
            checker: checker.clone(),
            #[cfg(debug_assertions)]
            reference,
        });
        let mut forked = self.fork(&snap.platform);
        forked.core.schedule_external_interrupt(at);
        let mut map = self.prefixes.lock().expect("prefix cache poisoned");
        map.insert_bounded(&cfg.name, tc, Some(snap));
        Ok(Built {
            platform: forked,
            kind: BuildKind::PrefixCaptured,
            boot: None,
            checker,
        })
    }

    /// The boot snapshot for `tc`'s configuration, capturing it on first
    /// use (uncounted: callers attribute the case to exactly one
    /// counter). The flag reports whether this call did the capture.
    fn boot_snapshot_for(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
    ) -> (Option<Arc<BootSnapshot>>, bool) {
        let key: BootKey = (
            cfg.name.clone(),
            tc.host_sv39,
            tc.mcounteren,
            tc.sm_clear_hpcs,
            tc.irq_at.is_some(),
        );
        let mut fresh_capture = false;
        let entry = {
            let mut map = self.boots.lock().expect("snapshot cache poisoned");
            map.entry(key)
                .or_insert_with(|| {
                    fresh_capture = true;
                    let (snap, mut oracle) = capture_boot(tc, cfg).ok()?;
                    oracle.park(snap.core());
                    Some(Arc::new(BootSnapshot { snap, oracle }))
                })
                .clone()
        };
        if fresh_capture {
            if let Some(boot) = &entry {
                self.capture_us
                    .fetch_add(boot.snap.capture_us(), Ordering::Relaxed);
            }
        }
        (entry, fresh_capture)
    }
}

/// Captures the boot snapshot for `tc`'s configuration with a lockstep
/// oracle observing the boot from reset.
fn capture_boot(
    tc: &TestCase,
    cfg: &CoreConfig,
) -> Result<(PlatformSnapshot, Lockstep), BuildError> {
    let mut oracle = None;
    let (snap, _) = PlatformSnapshot::capture_observed(
        cfg.clone(),
        &sm_options_for(tc, cfg),
        host_vm_for(tc),
        |core| {
            let lockstep = oracle.insert(Lockstep::new(core, &DiffOptions::default()));
            |core: &mut Core| lockstep.observe(core)
        },
    )?;
    let oracle = oracle.expect("the capture builds its observer");
    Ok((snap, oracle))
}

impl PrefixMap {
    /// Where `tc`'s sweep family on `design` sits. The search runs newest
    /// first, since a sweep submits a family's cases together.
    fn position(&self, design: &str, tc: &TestCase) -> Option<usize> {
        (self.entries.iter()).rposition(|e| e.design == design && same_family(&e.case, tc))
    }

    /// The checkpoint slot of `tc`'s sweep family on `design`.
    fn get(&self, design: &str, tc: &TestCase) -> Option<&Option<Arc<PrefixSnapshot>>> {
        self.position(design, tc).map(|i| &self.entries[i].snap)
    }

    /// Inserts, or replaces the checkpoint of a family already present,
    /// evicting the oldest family beyond [`PREFIX_CAP`] so retained
    /// checkpoint memory stays bounded.
    fn insert_bounded(&mut self, design: &str, tc: &TestCase, snap: Option<Arc<PrefixSnapshot>>) {
        if let Some(i) = self.position(design, tc) {
            self.entries[i].snap = snap;
            return;
        }
        self.entries.push_back(PrefixEntry {
            design: design.to_string(),
            case: tc.clone(),
            snap,
        });
        if self.entries.len() > PREFIX_CAP {
            self.entries.pop_front();
        }
    }

    /// Counts `tc` served for its family in [`PrefixMap::families`]. When
    /// that was the family's last case, removes the family and its
    /// checkpoint entry and returns the checkpoint.
    fn served(&mut self, design: &str, tc: &TestCase) -> Option<Arc<PrefixSnapshot>> {
        // Oldest first: finished families leave the list, so a run that
        // goes family by family finds its family at the front.
        let i =
            (self.families.iter()).position(|f| f.design == design && same_family(&f.case, tc))?;
        self.families[i].unserved -= 1;
        if self.families[i].unserved > 0 {
            return None;
        }
        self.families.remove(i);
        let entry = self.entries.remove(self.position(design, tc)?)?;
        entry.snap
    }
}

/// Whether forking the boot snapshot reproduces a fresh run exactly: an
/// external interrupt scheduled at (or inside) the boot prefix could not
/// be taken at the same cycle a fresh run would.
fn boot_fork_applies(tc: &TestCase, snap: &PlatformSnapshot) -> bool {
    tc.irq_at.is_none_or(|at| at > snap.boot_cycles() + 1)
}

/// The sweep-family key: whether `a` and `b` are equal in every field but
/// the execution-irrelevant ones (name, access-path label, cycle budget)
/// and the swept interrupt cycle. Two such cases build and run
/// bit-identically up to their first interrupt. `a` is destructured
/// whole, so a field added to [`TestCase`] must be sorted into one group
/// or the other.
fn same_family(a: &TestCase, b: &TestCase) -> bool {
    let TestCase {
        name: _,
        path: _,
        host_steps,
        enclave_steps,
        secrets,
        host_sv39,
        mcounteren,
        sm_clear_hpcs,
        irq_at: _,
        max_cycles: _,
    } = a;
    *host_sv39 == b.host_sv39
        && *mcounteren == b.mcounteren
        && *sm_clear_hpcs == b.sm_clear_hpcs
        && *host_steps == b.host_steps
        && *enclave_steps == b.enclave_steps
        && secrets.records() == b.secrets.records()
}

fn host_vm_for(tc: &TestCase) -> HostVm {
    if tc.host_sv39 {
        HostVm::Sv39
    } else {
        HostVm::Bare
    }
}

fn sm_options_for(tc: &TestCase, cfg: &CoreConfig) -> SmOptions {
    SmOptions {
        mcounteren: tc.mcounteren,
        clear_hpcs_on_switch: tc.sm_clear_hpcs,
        hpm_counters: cfg.hpm_counters,
        enable_external_irq: tc.irq_at.is_some(),
    }
}

/// Lowers `tc` onto a fresh platform without running it. Building is
/// deterministic: two calls with the same inputs produce identical memory
/// images and reset state.
///
/// # Errors
///
/// Propagates [`BuildError`] exactly as [`run_case`] does.
pub fn build_platform(tc: &TestCase, cfg: &CoreConfig) -> Result<Platform, BuildError> {
    case_builder(tc, cfg).build()
}

/// Lowers `tc` into a configured [`PlatformBuilder`], ready for either
/// [`PlatformBuilder::build`] or [`PlatformBuilder::build_from`].
fn case_builder(tc: &TestCase, cfg: &CoreConfig) -> PlatformBuilder<'static> {
    case_builder_with(tc, cfg, true)
}

/// [`case_builder`] with control over whether the case's external
/// interrupt is scheduled on the core. Prefix capture builds with it
/// unscheduled (the SM image still enables the interrupt path — that
/// depends only on `irq_at.is_some()`), then each fork schedules its own
/// sweep cycle.
fn case_builder_with(
    tc: &TestCase,
    cfg: &CoreConfig,
    schedule_irq: bool,
) -> PlatformBuilder<'static> {
    let mut builder = Platform::builder(cfg.clone())
        .host_vm(host_vm_for(tc))
        .sm_options(sm_options_for(tc, cfg));
    let host_steps = tc.host_steps.clone();
    builder = builder.host_code(move |a| {
        lower_steps(a, &host_steps, layout::HOST_BASE, "h");
    });
    for (i, steps) in tc.enclave_steps.iter().enumerate() {
        // An enclave needs a code image (at least the implicit stop
        // terminator) whenever the host actually enters it.
        let entered = tc.host_steps.iter().any(|s| {
            matches!(s, crate::testcase::Step::Sbi { call, enclave }
                if *enclave == i as u64
                    && matches!(call, teesec_tee::SbiCall::RunEnclave | teesec_tee::SbiCall::ResumeEnclave))
        });
        if steps.is_empty() && !entered {
            continue;
        }
        let steps = steps.clone();
        let base = layout::enclave_base(i);
        builder = builder.enclave_code(i, move |a| {
            lower_steps(a, &steps, base, &format!("e{i}"));
        });
    }
    for rec in tc.secrets.records() {
        builder = builder.seed_u64(rec.addr, rec.value);
    }
    if let Some(at) = tc.irq_at.filter(|_| schedule_irq) {
        builder = builder.external_interrupt_at(at);
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::{assemble_case, CaseParams};
    use crate::paths::AccessPath;
    use crate::testcase::Step;
    use teesec_uarch::trace::Domain;

    #[test]
    fn default_case_runs_to_completion() {
        let cfg = CoreConfig::boom();
        let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg).unwrap();
        let out = run_case(&tc, &cfg).expect("build");
        assert_eq!(out.exit, RunExit::Halted, "case must halt: {}", tc.name);
        assert!(out.cycles > 100);
        assert!(!out.platform.core.trace.is_empty());
    }

    /// An interrupt-timing sweep family must fork the setup-prefix
    /// checkpoint (one miss, then hits) and stay cycle- and
    /// counter-exact with fresh builds at every swept cycle.
    #[test]
    fn prefix_forked_irq_sweep_matches_fresh_builds() {
        let cfg = CoreConfig::boom();
        let cache = SnapshotCache::new();
        for (k, tc) in sweeps(&cfg, 1, 4).remove(0).iter().enumerate() {
            let fresh = run_case(tc, &cfg).expect("fresh build");
            let forked = run_case_opts(
                tc,
                &cfg,
                RunOptions {
                    snapshot_cache: Some(&cache),
                    ..RunOptions::default()
                },
            )
            .expect("forked build");
            assert_eq!(forked.exit, fresh.exit, "sweep step {k}");
            assert_eq!(forked.cycles, fresh.cycles, "cycle-exact at step {k}");
            assert_eq!(
                forked.platform.core.counters(),
                fresh.platform.core.counters(),
                "microarch counter digests at step {k}"
            );
            assert_eq!(
                forked.platform.core.trace.len(),
                fresh.platform.core.trace.len(),
                "trace length at step {k}"
            );
        }
        let m = cache.metrics();
        assert_eq!(m.misses, 1, "one capture for the family: {m:?}");
        assert_eq!(m.hits, 3, "siblings fork the checkpoint: {m:?}");
        assert_eq!(m.bypasses, 0, "{m:?}");
    }

    /// `families` interrupt sweep families of `steps` cases on `cfg`, one
    /// per secret offset, each listed in interrupt order.
    fn sweeps(cfg: &CoreConfig, families: u64, steps: u64) -> Vec<Vec<TestCase>> {
        (0..families)
            .map(|f| {
                (0..steps)
                    .map(|k| {
                        let params = CaseParams {
                            restricted_counters: true,
                            offset: 8 * f,
                            irq_at: Some(2_000 + 37 * k),
                            ..CaseParams::default()
                        };
                        assemble_case(AccessPath::HpcRead, params, cfg).unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    /// Where `platform` keeps its L1I payloads. A fork written into a
    /// spare keeps the spare's buffers, so this tells which platform a
    /// fork was written into.
    fn buffers(platform: &Platform) -> *const u8 {
        platform.core.l1i.slots().bytes(0).as_ptr()
    }

    /// Runs `tc` through `cache` as the engine does, with a checker, and
    /// hands its platform back; returns where that platform's buffers are.
    fn engine_run(cache: &SnapshotCache, tc: &TestCase, cfg: &CoreConfig) -> *const u8 {
        let opts = RunOptions {
            snapshot_cache: Some(cache),
            checker: Some(StreamingChecker::new(tc, cfg)),
            ..RunOptions::default()
        };
        let out = run_case_opts(tc, cfg, opts).expect("sweep build");
        let at = buffers(&out.platform);
        cache.recycle(out.platform);
        at
    }

    /// Where the checkpoint `cache` holds for `tc`'s family keeps its
    /// buffers, if it holds one.
    fn checkpoint(cache: &SnapshotCache, tc: &TestCase, cfg: &CoreConfig) -> Option<*const u8> {
        let map = cache.prefixes.lock().unwrap();
        let snap = map
            .get(&cfg.name, tc)?
            .as_ref()
            .expect("the capture succeeds");
        Some(buffers(&snap.platform))
    }

    /// A cache built from its corpus keeps a family's checkpoint until
    /// the family's last case has forked it and then makes its platform a
    /// spare: the next family's capture forks into it instead of cloning
    /// a new platform.
    #[test]
    fn a_checkpoint_goes_after_its_familys_last_case_and_the_next_capture_forks_into_it() {
        let cfg = CoreConfig::boom();
        let families = sweeps(&cfg, 2, 3);
        let (a, b) = (&families[0], &families[1]);
        let cache = SnapshotCache::for_corpus(&cfg.name, &families.concat());
        engine_run(&cache, &a[0], &cfg);
        let a_checkpoint = checkpoint(&cache, &a[0], &cfg).expect("the first case captures");
        engine_run(&cache, &a[1], &cfg);
        assert_eq!(
            checkpoint(&cache, &a[1], &cfg),
            Some(a_checkpoint),
            "kept while the family has cases left"
        );
        let a_last = engine_run(&cache, &a[2], &cfg);
        assert_eq!(
            checkpoint(&cache, &a[2], &cfg),
            None,
            "gone after the family's last case"
        );
        assert!(cache.prefixes.lock().unwrap().entries.is_empty());
        let spares: Vec<_> = cache.spares.lock().unwrap().iter().map(buffers).collect();
        assert_eq!(
            spares,
            [a_checkpoint, a_last],
            "the checkpoint's platform is a spare beside the last case's"
        );

        // The capture builds into the last case's platform and forks into
        // the released checkpoint's: no platform is cloned anew. (The
        // checkpoint's platform is still alive, as a spare, when the fork
        // runs, so a new clone could not take its buffers' address.)
        let b_first = engine_run(&cache, &b[0], &cfg);
        assert_eq!(
            b_first, a_checkpoint,
            "the capture forks into the released checkpoint's platform"
        );
        assert_eq!(
            checkpoint(&cache, &b[0], &cfg),
            Some(a_last),
            "the capture builds into the last case's platform"
        );
        engine_run(&cache, &b[1], &cfg);
        engine_run(&cache, &b[2], &cfg);
        let map = cache.prefixes.lock().unwrap();
        assert!(map.entries.is_empty() && map.families.is_empty());
        let m = cache.metrics();
        assert_eq!((m.misses, m.hits, m.bypasses), (2, 4, 0), "{m:?}");
    }

    /// In an interleaved order (A0 B0 C0 A1 ...) every family keeps its
    /// checkpoint from its first case to its last, so each captures once;
    /// a cache built without a corpus keeps them all to the end.
    #[test]
    fn an_interleaved_corpus_releases_no_checkpoint_early() {
        let cfg = CoreConfig::boom();
        let families = sweeps(&cfg, 3, 2);
        let corpus: Vec<TestCase> = (0..2)
            .flat_map(|k| families.iter().map(move |f| f[k].clone()))
            .collect();
        for (cache, from_corpus) in [
            (SnapshotCache::for_corpus(&cfg.name, &corpus), true),
            (SnapshotCache::new(), false),
        ] {
            for (i, tc) in corpus.iter().enumerate() {
                engine_run(&cache, tc, &cfg);
                for family in &families {
                    let ours = |t: &TestCase| same_family(t, &family[0]);
                    let started = corpus[..=i].iter().any(ours);
                    let left = corpus[i + 1..].iter().any(ours);
                    assert_eq!(
                        checkpoint(&cache, &family[0], &cfg).is_some(),
                        started && (left || !from_corpus),
                        "after case {i}, corpus-built: {from_corpus}"
                    );
                }
            }
            let m = cache.metrics();
            assert_eq!((m.misses, m.hits, m.bypasses), (3, 3, 0), "{m:?}");
        }
    }

    /// The setup-prefix map keys a sweep family on the design and every
    /// field of the case but its name, path label, cycle budget and
    /// interrupt cycle: cases that differ only in those share a
    /// checkpoint, and a case that differs in anything else does not.
    #[test]
    fn sweep_family_key_leaves_out_exactly_the_swept_and_unexecuted_fields() {
        let cfg = CoreConfig::boom();
        let params = CaseParams {
            restricted_counters: true,
            irq_at: Some(2_000),
            ..CaseParams::default()
        };
        let base = assemble_case(AccessPath::HpcRead, params, &cfg).unwrap();
        let mut map = PrefixMap::default();
        map.insert_bounded(&cfg.name, &base, None);
        type Edit = (&'static str, fn(&mut TestCase));
        let edited = |edit: fn(&mut TestCase)| {
            let mut tc = base.clone();
            edit(&mut tc);
            tc
        };
        let shared: [Edit; 4] = [
            ("name", |tc| tc.name.push_str("_irq1")),
            ("path label", |tc| tc.path = AccessPath::LoadL1Hit),
            ("cycle budget", |tc| tc.max_cycles += 1),
            ("interrupt cycle", |tc| tc.irq_at = Some(2_037)),
        ];
        for (field, edit) in shared {
            let tc = edited(edit);
            assert!(
                same_family(&base, &tc) && same_family(&tc, &base),
                "{field}"
            );
            assert!(
                map.get(&cfg.name, &tc).is_some(),
                "{field}: shares the checkpoint"
            );
        }
        let apart: [Edit; 6] = [
            ("one host step", |tc| tc.host_steps[0] = Step::Nops(7)),
            ("one enclave step", |tc| {
                tc.enclave_steps[1].push(Step::ReadCycle)
            }),
            ("one secret", |tc| {
                tc.secrets.seed(layout::enclave_data(1), Domain::Enclave(1));
            }),
            ("mcounteren", |tc| tc.mcounteren ^= 1),
            ("host_sv39", |tc| tc.host_sv39 = !tc.host_sv39),
            ("sm_clear_hpcs", |tc| tc.sm_clear_hpcs = !tc.sm_clear_hpcs),
        ];
        for (field, edit) in apart {
            let tc = edited(edit);
            assert!(
                !same_family(&base, &tc) && !same_family(&tc, &base),
                "{field}"
            );
            assert!(map.get(&cfg.name, &tc).is_none(), "{field}: another family");
        }
        assert!(
            map.get("xiangshan", &base).is_none(),
            "the design is part of the key"
        );
    }

    /// Every boot configuration the cache keys is a clean point to fork
    /// the oracle's ISS at: after the capture's boot ran in lockstep, the
    /// lockstep matched, the LSU is quiescent, core and ISS memories are
    /// equal, and the ISS is about to execute the host's first
    /// instruction. So a fork that points the ISS at its own memory
    /// compares against the same memory a fresh build would.
    #[test]
    fn boot_capture_is_a_clean_iss_fork_point() {
        let designs = [
            CoreConfig::boom(),
            CoreConfig::xiangshan(),
            CoreConfig::hardened_reference(),
        ];
        for cfg in designs {
            for key in 0..16u32 {
                let mut tc = TestCase::new("boot_key", AccessPath::LoadL1Hit);
                tc.host_sv39 = key & 1 != 0;
                tc.mcounteren = if key & 2 != 0 { u64::MAX } else { 0 };
                tc.sm_clear_hpcs = key & 4 != 0;
                tc.irq_at = (key & 8 != 0).then_some(1_000_000);
                let what = format!("{} boot key {key:04b}", cfg.name);
                let (snap, mut oracle) = capture_boot(&tc, &cfg).expect("the boot captures");
                assert_eq!(oracle.settled(), None, "{what}: the boot lockstep matched");
                let core = snap.core();
                assert!(core.lsu.quiescent(), "{what}: LSU quiescent");
                assert_eq!(
                    core.mem.first_difference(&oracle.iss().mem),
                    None,
                    "{what}: core and ISS memory equal"
                );
                assert_eq!(oracle.iss().pc, layout::HOST_BASE, "{what}");
                oracle.park(core);
                assert_eq!(oracle.settled(), None, "{what}: parked forkable");
            }
        }
    }

    #[test]
    fn all_default_cases_halt_on_both_designs() {
        for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
            for path in AccessPath::all() {
                let Ok(tc) = assemble_case(*path, CaseParams::default(), &cfg) else {
                    continue;
                };
                let out = run_case(&tc, &cfg).expect("build");
                assert_eq!(
                    out.exit,
                    RunExit::Halted,
                    "case {} must halt on {} (ran {} cycles)",
                    tc.name,
                    cfg.name,
                    out.cycles
                );
            }
        }
    }
}
