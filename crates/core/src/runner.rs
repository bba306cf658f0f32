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
//!   re-simulating only the post-interrupt tail.
//!
//! All paths produce cycle-exact identical platforms (asserted by the
//! `stream_equivalence` suite), so callers opt in purely for speed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use teesec_tee::layout;
use teesec_tee::platform::{BuildError, HostVm, Platform, PlatformBuilder, PlatformSnapshot};
use teesec_tee::sm::SmOptions;
use teesec_trace::TraceCtx;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::core::RunExit;
use teesec_uarch::trace::TraceSink;

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
    /// Trace sink receiving every event online (e.g. a
    /// [`StreamingChecker`](crate::stream::StreamingChecker)). When the
    /// platform is snapshot-forked, events already simulated before the
    /// fork are replayed into the sink first, so it observes the exact
    /// sequence a fresh run would have produced. Attaching a sink turns
    /// trace buffering off: the sink still sees every event, but peak
    /// retained events stay O(boot prefix) instead of O(simulated
    /// cycles). Without a sink the trace buffers every event.
    pub sink: Option<Box<dyn TraceSink>>,
    /// Span-recording context: when its tracer is set, the run emits
    /// `build` and `simulate` spans (under the context's parent span)
    /// plus periodic `sim_cycles` counter samples.
    pub trace: TraceCtx<'c>,
    /// Force the simulator fast path on/off for this run (`None` keeps
    /// the process default, see `teesec_uarch::fast_path_default`). Both
    /// settings are byte-identical in every checker observable; off is
    /// the reference path the equivalence harness compares against.
    pub fast_path: Option<bool>,
}

/// Simulated cycles between `sim_cycles` counter samples on a traced run
/// (a handful of samples for a typical case, so sampling cost stays
/// negligible next to simulation).
const SIM_SAMPLE_CYCLES: u64 = 50_000;

/// [`run_case`] with full control over budget, snapshot reuse, and
/// streaming ([`RunOptions`]).
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
    let (mut platform, build) = match opts.snapshot_cache {
        Some(cache) => cache.platform_for(tc, cfg, limit)?,
        None => (case_builder(tc, cfg).build()?, BuildKind::Fresh),
    };
    if let Some(on) = opts.fast_path {
        platform.core.set_fast_path(on);
    }
    if let Some(mut sink) = opts.sink.take() {
        // A forked platform's buffer already holds the boot-prefix events
        // (a fresh build's is empty): replay them so the sink sees the
        // full event sequence from reset.
        for e in platform.core.trace.iter_events() {
            sink.on_event(e);
        }
        platform.core.trace.set_sink(sink);
        platform.core.trace.set_buffering(false);
    }
    build_span.arg("cache", build.label());
    drop(build_span);
    if matches!(build, BuildKind::BootCaptured | BuildKind::PrefixCaptured) {
        opts.trace.mark("snapshot_capture");
    }
    let build_us = build_start.elapsed().as_micros();
    let exit = if opts.trace.active() {
        let mut sim_span = opts.trace.span("simulate");
        let tctx = opts.trace;
        let exit = platform.run_batched(limit, SIM_SAMPLE_CYCLES, &mut |core| {
            tctx.counter_sample("sim_cycles", core.cycle);
        });
        sim_span.arg("cycles", platform.core.cycle);
        sim_span.arg("cache", build.label());
        exit
    } else {
        platform.run(limit)
    };
    let cycles = platform.core.cycle;
    Ok(RunOutcome {
        platform,
        exit,
        cycles,
        build_us,
        build,
    })
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
/// copy-on-write platform (shared pages plus the buffered prefix trace),
/// so the cache evicts the oldest sweep family beyond this many.
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
///   applied *after* the fork by [`PlatformBuilder::build_from`].
/// - **Setup-prefix checkpoints** for interrupt-timing sweeps, keyed by
///   the design name plus the *entire case minus its interrupt cycle*
///   (name, access path and cycle budget are execution-irrelevant and
///   canonicalized out). The first case of a sweep family builds the full
///   platform, simulates the shared setup prefix up to one cycle before
///   its interrupt, and checkpoints there; every sibling whose interrupt
///   lands later forks the checkpoint and re-simulates only the tail.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    boots: Mutex<HashMap<BootKey, Option<Arc<PlatformSnapshot>>>>,
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

/// A fully built platform checkpointed mid-run, after the setup-gadget
/// prefix shared by an interrupt-timing sweep family.
#[derive(Debug)]
struct PrefixSnapshot {
    platform: Platform,
    /// The cycle the checkpoint was taken at. Forking is sound only for
    /// interrupts scheduled strictly later: before this cycle the
    /// captured execution and a fresh run are indistinguishable.
    prefix_cycles: u64,
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
    /// to a fresh build. Exactly one of hits/misses/bypasses is counted
    /// per call, so the three always sum to the number of cases run.
    fn platform_for(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        limit: u64,
    ) -> Result<(Platform, BuildKind), BuildError> {
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
                    return Ok((platform, BuildKind::PrefixForked));
                }
                // Captured but inapplicable (interrupt inside the captured
                // prefix, or the family's capture failed): tier two.
                Some(_) => {}
                None => return self.capture_prefix(tc, cfg, at, key),
            }
        }
        // Tier two: boot snapshots.
        let (snap, fresh_capture) = self.boot_snapshot_for(tc, cfg);
        match snap {
            Some(snap) if boot_fork_applies(tc, &snap) => {
                let (counter, kind) = if fresh_capture {
                    (&self.misses, BuildKind::BootCaptured)
                } else {
                    (&self.hits, BuildKind::BootForked)
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Ok((case_builder(tc, cfg).build_from(&snap)?, kind))
            }
            _ => {
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                Ok((case_builder(tc, cfg).build()?, BuildKind::Fresh))
            }
        }
    }

    /// First case of a sweep family: build the full platform (forking the
    /// boot snapshot when possible), simulate the shared setup prefix up
    /// to one cycle before this case's interrupt, checkpoint there, and
    /// hand this case a fork of the fresh checkpoint.
    fn capture_prefix(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
        at: u64,
        key: PrefixKey,
    ) -> Result<(Platform, BuildKind), BuildError> {
        let (boot, _) = self.boot_snapshot_for(tc, cfg);
        // Boot-capture cost (when this call did one) is accounted by
        // `boot_snapshot_for`; time only the prefix build + run here.
        let t0 = std::time::Instant::now();
        let built = match boot {
            Some(snap) if boot_fork_applies(tc, &snap) => {
                case_builder_with(tc, cfg, false).build_from(&snap)
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
        if platform.core.fast_path() {
            // Freeze the setup prefix: sibling forks share it by
            // refcount instead of deep-copying the event buffer.
            platform.core.trace.freeze();
        }
        let snap = Arc::new(PrefixSnapshot {
            prefix_cycles: platform.core.cycle,
            platform,
        });
        self.capture_us.fetch_add(
            t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut forked = snap.platform.clone();
        forked.core.schedule_external_interrupt(at);
        let mut map = self.prefixes.lock().expect("prefix cache poisoned");
        map.insert_bounded(key, Some(snap));
        Ok((forked, BuildKind::PrefixCaptured))
    }

    /// The boot snapshot for `tc`'s configuration, capturing it on first
    /// use (uncounted: callers attribute the case to exactly one
    /// counter). The flag reports whether this call did the capture.
    fn boot_snapshot_for(
        &self,
        tc: &TestCase,
        cfg: &CoreConfig,
    ) -> (Option<Arc<PlatformSnapshot>>, bool) {
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
                    PlatformSnapshot::capture(
                        cfg.clone(),
                        &sm_options_for(tc, cfg),
                        host_vm_for(tc),
                    )
                    .ok()
                    .map(Arc::new)
                })
                .clone()
        };
        if fresh_capture {
            if let Some(snap) = &entry {
                self.capture_us
                    .fetch_add(snap.capture_us(), Ordering::Relaxed);
            }
        }
        (entry, fresh_capture)
    }
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
        ..SmOptions::default()
    }
}

/// Lowers `tc` onto a fresh platform without running it. Building is
/// deterministic: two calls with the same inputs produce identical memory
/// images and reset state — the property the differential oracle relies on
/// to seed its reference ISS with the core's exact initial memory.
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
    builder = builder.host_code(move |a, _| {
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
        builder = builder.enclave_code(i, move |a, _| {
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
