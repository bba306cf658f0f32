//! Leak provenance: the causal chain *secret write → residue retention →
//! observing access* behind each [`Finding`](crate::report::Finding).
//!
//! The checker answers "**what** leaked **where**"; provenance answers
//! "**how it got there**": which event first materialized the leaking
//! state in the owner's domain, which structures retained it across the
//! domain switch, and which access finally exposed it. The checker
//! ([`StreamingChecker`](crate::stream::StreamingChecker)) builds the
//! chains from its bounded provenance index and attaches them to
//! [`CheckReport::provenance`](crate::report::CheckReport::provenance);
//! `teesec explain` renders them.

use serde::{Deserialize, Serialize};

use teesec_uarch::trace::{Domain, Structure, TraceEventKind};

/// One step of a provenance chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceHop {
    /// Simulation cycle of the step.
    pub cycle: u64,
    /// Executing domain at the step.
    pub domain: Domain,
    /// Structure touched; `None` for the architectural seed (memory).
    pub structure: Option<Structure>,
    /// PC of the associated instruction, when attributable.
    pub pc: Option<u64>,
    /// What happened at this step.
    pub action: String,
}

/// The reconstructed causal chain behind one finding.
///
/// Invariant (asserted by the provenance tests): `origin.cycle` is
/// strictly less than `observation.cycle`, and every intermediate hop
/// lies in between.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceChain {
    /// Index into
    /// [`CheckReport::findings`](crate::report::CheckReport::findings) this
    /// chain explains.
    pub finding_index: usize,
    /// Domain owning the leaked state.
    pub owner: Domain,
    /// Domain that observed (or could observe) it.
    pub observer: Domain,
    /// Where the leaking state entered the machine.
    pub origin: ProvenanceHop,
    /// Structures that retained the state between origin and observation.
    pub retention: Vec<ProvenanceHop>,
    /// The access that exposed it.
    pub observation: ProvenanceHop,
    /// Cycles the residue survived: `observation.cycle - origin.cycle`.
    pub retention_cycles: u64,
}

impl ProvenanceChain {
    /// The cycle-resolved exposure windows this chain implies, as
    /// `(structure, start_cycle, end_cycle)` triples: the secret was
    /// resident in each retention-hop structure (and the observed
    /// structure itself) from the hop that dragged it there until the
    /// observation. One window per structure, earliest arrival kept —
    /// the raw material of the `teesec_secret_residency_cycles`
    /// histograms.
    pub fn exposure_windows(&self) -> Vec<(Structure, u64, u64)> {
        let end = self.observation.cycle;
        let mut windows: Vec<(Structure, u64, u64)> = Vec::new();
        let mut push = |structure: Option<Structure>, start: u64| {
            let s = match structure {
                Some(s) => s,
                None => return, // architectural seed: memory, not uarch state
            };
            match windows.iter_mut().find(|(ws, _, _)| *ws == s) {
                Some(w) => w.1 = w.1.min(start),
                None => windows.push((s, start, end)),
            }
        };
        if let Some(s) = self.observation.structure {
            push(Some(s), self.origin.cycle);
        }
        push(self.origin.structure, self.origin.cycle);
        for hop in &self.retention {
            push(hop.structure, hop.cycle);
        }
        windows.sort_by_key(|(s, _, _)| s.index());
        windows
    }

    /// Renders the chain as an indented multi-line narrative
    /// (the `teesec explain` output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "  owner {:?} -> observer {:?} ({} cycle retention window)\n",
            self.owner, self.observer, self.retention_cycles
        ));
        s.push_str(&format!("  origin      {}\n", render_hop(&self.origin)));
        for hop in &self.retention {
            s.push_str(&format!("  retained    {}\n", render_hop(hop)));
        }
        s.push_str(&format!(
            "  observation {}\n",
            render_hop(&self.observation)
        ));
        s
    }
}

fn render_hop(hop: &ProvenanceHop) -> String {
    let place = match hop.structure {
        Some(s) => s.display_name().to_string(),
        None => "memory".to_string(),
    };
    let pc = match hop.pc {
        Some(pc) => format!(" pc={pc:#x}"),
        None => String::new(),
    };
    format!(
        "[cycle {:>8}] {:<18} {:?}{}: {}",
        hop.cycle, place, hop.domain, pc, hop.action
    )
}

pub(crate) fn event_verb(kind: &TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Fill { .. } => "fill carried the secret",
        TraceEventKind::Write { .. } => "write installed the secret",
        TraceEventKind::Read { .. } => "read returned the secret",
        TraceEventKind::Flush => "flush",
        TraceEventKind::CounterBump { .. } => "counter bumped",
        TraceEventKind::DomainSwitch { .. } => "domain switch",
    }
}
