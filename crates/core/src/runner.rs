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
//!   re-simulating only the post-interrupt tail. The checkpoint also
//!   parks the checker its capture fed over the prefix, and a fork's
//!   checker starts as a copy of it instead of re-scanning the prefix.
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
    /// of O(simulated cycles). The engine passes one for every case.
    /// Without one the trace buffers every event, for
    /// [`check_case`](crate::check_case).
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
    let checker = platform.core.trace.take_sink().map(|sink| {
        let sink: Box<dyn Any> = sink;
        *sink
            .downcast::<StreamingChecker>()
            .expect("the runner attaches no sink but the checker")
    });
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
/// copy-on-write platform (shared pages plus the buffered prefix trace)
/// and the checker fed over that prefix, so the cache evicts the oldest
/// sweep family beyond this many.
const PREFIX_CAP: usize = 64;

/// A keyed cache of copy-on-write platform checkpoints, shared across
/// engine workers (interior mutability; take a `&SnapshotCache` per
/// worker). Two tiers:
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
///   canonicalized out). The first case of a sweep family builds the full
///   platform, simulates the shared setup prefix up to one cycle before
///   its interrupt, and checkpoints there; every sibling whose interrupt
///   lands later forks the checkpoint and re-simulates only the tail.
///   When the capturing case runs with a checker, the checker is fed the
///   prefix once and a copy is parked beside the platform. A sibling that
///   runs with a checker starts from a copy of it under its own case name
///   and path, the only checker state the key leaves out, instead of
///   replaying the prefix. Debug builds check every such copy against the
///   replay it replaces.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    boots: Mutex<HashMap<BootKey, Option<Arc<BootSnapshot>>>>,
    prefixes: Mutex<PrefixMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    capture_us: AtomicU64,
}

type BootKey = (String, bool, u64, bool, bool);
type PrefixKey = (String, String);

/// Insertion-ordered map of setup-prefix checkpoints (`None` marks a
/// family whose capture failed, so siblings skip straight to tier two).
#[derive(Debug, Default)]
struct PrefixMap {
    entries: HashMap<PrefixKey, Option<Arc<PrefixSnapshot>>>,
    order: VecDeque<PrefixKey>,
}

/// A boot snapshot and the lockstep oracle that compared its boot,
/// parked at the capture point ([`Lockstep::park`]).
#[derive(Debug)]
struct BootSnapshot {
    snap: PlatformSnapshot,
    oracle: Lockstep,
}

/// A fully built platform checkpointed mid-run, after the setup-gadget
/// prefix shared by an interrupt-timing sweep family.
#[derive(Debug)]
struct PrefixSnapshot {
    platform: Platform,
    /// The cycle the checkpoint was taken at. Forking is sound only for
    /// interrupts scheduled strictly later: before this cycle the
    /// captured execution and a fresh run are indistinguishable.
    prefix_cycles: u64,
    /// The capturing case's checker, fed every event of the prefix;
    /// `None` when that case ran without one.
    checker: Option<StreamingChecker>,
}

impl PrefixSnapshot {
    /// `checker` caught up on the prefix a fork of this checkpoint skips:
    /// a copy of the parked checker, or a replay of the prefix when the
    /// capture ran without a checker. In debug builds the copy is checked
    /// against that replay.
    fn catch_up(&self, checker: StreamingChecker, tc: &TestCase) -> StreamingChecker {
        let trace = &self.platform.core.trace;
        let Some(parked) = &self.checker else {
            return replay(checker, trace);
        };
        let forked = parked.fork_as(&checker);
        debug_assert!(
            forked == replay(checker, trace),
            "the checker parked at a setup-prefix checkpoint differs from replaying the prefix \
             for case {}",
            tc.name
        );
        forked
    }
}

impl SnapshotCache {
    /// Creates an empty cache.
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
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
    /// three always sum to the number of cases run.
    fn platform_for(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        limit: u64,
        checker: Option<StreamingChecker>,
    ) -> Result<Built, BuildError> {
        // Tier one: setup-prefix checkpoints for interrupt-timing sweeps.
        // Only sound when the interrupt lands strictly inside the cycle
        // budget — otherwise a fresh run would hit the limit first.
        if let Some(at) = tc.irq_at.filter(|&at| at > 0 && at - 1 < limit) {
            let key: PrefixKey = (cfg.name.clone(), prefix_fingerprint(tc));
            let cached = {
                let map = self.prefixes.lock().expect("prefix cache poisoned");
                map.entries.get(&key).cloned()
            };
            match cached {
                Some(Some(snap)) if at > snap.prefix_cycles => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let mut platform = snap.platform.clone();
                    platform.core.schedule_external_interrupt(at);
                    return Ok(Built {
                        platform,
                        kind: BuildKind::PrefixForked,
                        boot: None,
                        checker: checker.map(|checker| snap.catch_up(checker, tc)),
                    });
                }
                // Captured but inapplicable (interrupt inside the captured
                // prefix, or the family's capture failed): tier two.
                Some(_) => {}
                None => return self.capture_prefix(tc, cfg, at, key, checker),
            }
        }
        // Tier two: boot snapshots.
        let (boot, fresh_capture) = self.boot_snapshot_for(tc, cfg);
        match boot {
            Some(boot) if boot_fork_applies(tc, &boot.snap) => {
                let (counter, kind) = if fresh_capture {
                    (&self.misses, BuildKind::BootCaptured)
                } else {
                    (&self.hits, BuildKind::BootForked)
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let platform = case_builder(tc, cfg).build_from(&boot.snap)?;
                Ok(Built::replayed(platform, kind, Some(boot), checker))
            }
            _ => {
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                let platform = case_builder(tc, cfg).build()?;
                Ok(Built::replayed(platform, BuildKind::Fresh, None, checker))
            }
        }
    }

    /// First case of a sweep family: build the full platform (forking the
    /// boot snapshot when possible), simulate the shared setup prefix up
    /// to one cycle before this case's interrupt, checkpoint there with
    /// `checker` fed over the prefix, and hand this case a fork of the
    /// fresh checkpoint and the fed checker.
    fn capture_prefix(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        at: u64,
        key: PrefixKey,
        checker: Option<StreamingChecker>,
    ) -> Result<Built, BuildError> {
        let (boot, _) = self.boot_snapshot_for(tc, cfg);
        // Boot-capture cost (when this call did one) is accounted by
        // `boot_snapshot_for`; time only the prefix build + run here.
        let t0 = std::time::Instant::now();
        let built = match boot {
            Some(boot) if boot_fork_applies(tc, &boot.snap) => {
                case_builder_with(tc, cfg, false).build_from(&boot.snap)
            }
            _ => case_builder_with(tc, cfg, false).build(),
        };
        let mut platform = match built {
            Ok(p) => p,
            Err(e) => {
                // Remember the failure so siblings skip the capture
                // attempt; the case itself surfaces the build error.
                let mut map = self.prefixes.lock().expect("prefix cache poisoned");
                map.insert_bounded(key, None);
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // The prefix run is interrupt-free by construction (the builder
        // above never schedules one), so it is bit-identical to a fresh
        // run's first `at - 1` cycles: the interrupt only asserts from
        // cycle `at` onward.
        platform.run(at - 1);
        // Freeze the setup prefix: sibling forks share it by refcount
        // instead of deep-copying the event buffer.
        platform.core.trace.freeze();
        self.capture_us.fetch_add(
            t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        let checker = checker.map(|checker| replay(checker, &platform.core.trace));
        let snap = Arc::new(PrefixSnapshot {
            prefix_cycles: platform.core.cycle,
            platform,
            checker: checker.clone(),
        });
        let mut forked = snap.platform.clone();
        forked.core.schedule_external_interrupt(at);
        let mut map = self.prefixes.lock().expect("prefix cache poisoned");
        map.insert_bounded(key, Some(snap));
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
    /// Inserts, evicting the oldest family beyond [`PREFIX_CAP`] so
    /// retained checkpoint memory stays bounded.
    fn insert_bounded(&mut self, key: PrefixKey, snap: Option<Arc<PrefixSnapshot>>) {
        if self.entries.insert(key.clone(), snap).is_none() {
            self.order.push_back(key);
            while self.order.len() > PREFIX_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }
}

/// Whether forking the boot snapshot reproduces a fresh run exactly: an
/// external interrupt scheduled at (or inside) the boot prefix could not
/// be taken at the same cycle a fresh run would.
fn boot_fork_applies(tc: &TestCase, snap: &PlatformSnapshot) -> bool {
    tc.irq_at.is_none_or(|at| at > snap.boot_cycles() + 1)
}

/// The sweep-family key: the case with every execution-irrelevant field
/// (name, access-path label, cycle budget) and the swept interrupt cycle
/// canonicalized out. Two cases with equal fingerprints build and run
/// bit-identically up to their first interrupt.
fn prefix_fingerprint(tc: &TestCase) -> String {
    let mut probe = tc.clone();
    probe.name = String::new();
    probe.path = crate::paths::AccessPath::LoadL1Hit;
    probe.max_cycles = 0;
    probe.irq_at = None;
    serde_json::to_string(&probe).expect("test cases serialize")
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
        for k in 0..4u64 {
            let params = CaseParams {
                restricted_counters: true,
                irq_at: Some(2_000 + 37 * k),
                ..CaseParams::default()
            };
            let tc = assemble_case(AccessPath::HpcRead, params, &cfg).unwrap();
            let fresh = run_case(&tc, &cfg).expect("fresh build");
            let forked = run_case_opts(
                &tc,
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
