//! Whole-trace provenance reconstruction: the reference the checker's
//! bounded provenance index is compared against.
//!
//! The checker keeps only a few "first event" records per secret and
//! structure and builds each chain from them at finalize. This oracle
//! keeps nothing: it walks the full buffered trace for every finding, so
//! it needs a run without an online checker. The equivalence suites
//! assert that every chain the checker emits equals the one built here.

use teesec::provenance::{ProvenanceChain, ProvenanceHop};
use teesec::report::{Finding, Principle};
use teesec::runner::RunOutcome;
use teesec::secret::SecretCatalog;
use teesec::testcase::TestCase;
use teesec_uarch::trace::{Structure, TraceEvent, TraceEventKind};

/// The provenance chains of `findings`, rebuilt from `outcome`'s buffered
/// trace. Findings whose mechanism cannot be located in the trace have no
/// chain, as in the checker's report.
pub fn chains(tc: &TestCase, findings: &[Finding], outcome: &RunOutcome) -> Vec<ProvenanceChain> {
    let secrets = tc.secrets.indexed();
    let events: Vec<&TraceEvent> = outcome.platform.core.trace.iter_events().collect();
    findings
        .iter()
        .enumerate()
        .filter_map(|(i, f)| trace_chain(f, i, &events, outcome.cycles, &secrets))
        .collect()
}

fn verb(kind: &TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Fill { .. } => "fill carried the secret",
        TraceEventKind::Write { .. } => "write installed the secret",
        TraceEventKind::Read { .. } => "read returned the secret",
        TraceEventKind::Flush => "flush",
        TraceEventKind::CounterBump { .. } => "counter bumped",
        TraceEventKind::DomainSwitch { .. } => "domain switch",
    }
}

fn hop_from_event(e: &TraceEvent, action: String) -> ProvenanceHop {
    ProvenanceHop {
        cycle: e.cycle,
        domain: e.domain,
        structure: Some(e.structure),
        pc: e.pc,
        action,
    }
}

/// `true` when `e` carries the 64-bit secret `value`, as a scalar
/// read/write or embedded in a fill's line data.
fn carries_secret(e: &TraceEvent, value: u64, secrets: &SecretCatalog) -> bool {
    match &e.kind {
        TraceEventKind::Write { value: v, .. } | TraceEventKind::Read { value: v, .. } => {
            *v == value
        }
        TraceEventKind::Fill { data, .. } => secrets
            .scan_bytes(data)
            .iter()
            .any(|(_, rec)| rec.value == value),
        _ => false,
    }
}

/// The chain for `findings[index]`, from the whole trace.
fn trace_chain(
    finding: &Finding,
    index: usize,
    events: &[&TraceEvent],
    end_cycle: u64,
    secrets: &SecretCatalog,
) -> Option<ProvenanceChain> {
    // The observation: trace findings carry their own cycle; snapshot
    // findings (cycle 0 or an LFB fill_cycle with no observing event) are
    // residues still present when the run ended.
    let (obs_cycle, obs_is_snapshot) = if finding.cycle == 0 || finding.pc.is_none() {
        (end_cycle, true)
    } else {
        (finding.cycle, false)
    };
    let observation = ProvenanceHop {
        cycle: obs_cycle,
        domain: finding.observer,
        structure: Some(finding.structure),
        pc: if obs_is_snapshot { None } else { finding.pc },
        action: if obs_is_snapshot {
            format!(
                "residue still valid in the {} when the run ended",
                finding.structure.display_name()
            )
        } else {
            format!(
                "observing access in {:?} domain ({})",
                finding.observer, finding.detail
            )
        },
    };

    let (owner, origin, retention) = match (&finding.secret, finding.principle) {
        // Data leaks: follow the secret value through the trace.
        (Some(rec), _) => {
            let owner = rec.owner;
            let carrying: Vec<&TraceEvent> = events
                .iter()
                .copied()
                .filter(|e| e.cycle <= obs_cycle && carries_secret(e, rec.value, secrets))
                .collect();
            // Prefer the first materialization in the owner's own domain
            // (the legitimate write); a secret that was *never* touched
            // in-domain originates at its architectural seed.
            let origin = match carrying.iter().find(|e| e.domain == owner) {
                Some(e) => hop_from_event(e, format!("{} in its owner's domain", verb(&e.kind))),
                None => ProvenanceHop {
                    cycle: 0,
                    domain: owner,
                    structure: None,
                    pc: None,
                    action: format!(
                        "secret {:#x} seeded at address {:#x} before the run",
                        rec.value, rec.addr
                    ),
                },
            };
            // Retention: later events that dragged the secret into other
            // structures, one hop per structure, observation excluded.
            let mut seen = vec![origin.structure, Some(finding.structure)];
            let mut retention = Vec::new();
            for e in &carrying {
                if e.cycle <= origin.cycle {
                    continue;
                }
                if !obs_is_snapshot && e.cycle >= obs_cycle {
                    break;
                }
                if seen.contains(&Some(e.structure)) {
                    continue;
                }
                seen.push(Some(e.structure));
                retention.push(hop_from_event(e, verb(&e.kind).to_string()));
            }
            // A snapshot residue's own arrival is part of the story too.
            if obs_is_snapshot {
                if let Some(arrival) = carrying
                    .iter()
                    .find(|e| e.structure == finding.structure && e.cycle > origin.cycle)
                {
                    retention.push(hop_from_event(
                        arrival,
                        format!("{} and was never flushed", verb(&arrival.kind)),
                    ));
                    retention.sort_by_key(|h| h.cycle);
                }
            }
            (owner, origin, retention)
        }
        // Metadata leaks, branch predictors (M2): the enclave training
        // write that installed the surviving entry.
        (None, Principle::P2) if matches!(finding.structure, Structure::Ubtb | Structure::Ftb) => {
            let train = events.iter().find(|e| {
                e.structure == finding.structure
                    && e.domain.is_enclave()
                    && matches!(e.kind, TraceEventKind::Write { .. })
                    && (finding.pc.is_none() || e.pc == finding.pc)
            })?;
            let origin = hop_from_event(
                train,
                "branch trained inside the enclave installed this entry".to_string(),
            );
            (train.domain, origin, Vec::new())
        }
        // Metadata leaks, counters (M1, HPC or its store-buffer spill):
        // the first event bump accumulated during trusted execution.
        (None, _) => {
            let trusted_bump = |e: &&&TraceEvent| {
                e.structure == Structure::Hpc
                    && e.domain.is_trusted()
                    && e.cycle < obs_cycle
                    && matches!(e.kind, TraceEventKind::CounterBump { .. })
            };
            let bump = events.iter().find(trusted_bump)?;
            let origin = hop_from_event(
                bump,
                "first event counted during trusted execution".to_string(),
            );
            // The last trusted bump bounds the accumulation window.
            let last = events
                .iter()
                .filter(trusted_bump)
                .rfind(|e| e.cycle > bump.cycle);
            let retention = last
                .map(|e| {
                    vec![hop_from_event(
                        e,
                        "last event counted during trusted execution".to_string(),
                    )]
                })
                .unwrap_or_default();
            (bump.domain, origin, retention)
        }
    };

    Some(ProvenanceChain {
        finding_index: index,
        owner,
        observer: finding.observer,
        retention_cycles: observation.cycle.saturating_sub(origin.cycle),
        origin,
        retention,
        observation,
    })
}
