//! Property-based differential testing: on randomly generated straight-line
//! and branchy gadget programs, the out-of-order core and the reference ISS
//! must agree at *every retire* (PC and destination value, via the same
//! lockstep machinery `teesec::diff` uses), not just at the end of the run —
//! and the minimizer must preserve whatever verdict it was asked to keep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teesec::minimize::minimize_case;
use teesec::testcase::{Actor, Step, TestCase};
use teesec_isa::inst::MemWidth;
use teesec_isa::reg::Reg;
use teesec_uarch::core::Core;
use teesec_uarch::iss::Iss;
use teesec_uarch::mem::Memory;
use teesec_uarch::CoreConfig;

#[path = "common/gadgets.rs"]
mod gadgets;
use gadgets::{gadget_program, BASE, DATA};

/// Lockstep-compares one program on one design: every retired PC and every
/// committed destination value must match the ISS, and so must the final
/// register file.
fn assert_lockstep_equivalence(seed: u64, branchy: bool, cfg: &CoreConfig) -> Result<(), String> {
    let words = gadget_program(seed, 60, branchy);
    let mut mem_core = Memory::new();
    mem_core.load_words(BASE, &words);
    let mut mem_iss = Memory::new();
    mem_iss.load_words(BASE, &words);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    for off in (0..0x400u64).step_by(8) {
        let v: u64 = rng.gen();
        mem_core.write_u64(DATA + off, v);
        mem_iss.write_u64(DATA + off, v);
    }

    let mut core = Core::new(cfg.clone(), mem_core, BASE);
    core.trace.set_enabled(false);
    core.set_retire_probe(true);
    let mut iss = Iss::new(mem_iss, BASE);

    let mut retires = 0u64;
    let mut log = Vec::new();
    while !core.halted && core.cycle < 500_000 {
        core.step();
        core.swap_retired_log(&mut log);
        for ev in &log {
            retires += 1;
            let step = iss
                .step_retire(64)
                .ok_or_else(|| format!("seed {seed}: ISS stalled at retire #{retires}"))?;
            if step.pc != ev.pc {
                return Err(format!(
                    "seed {seed}: retire #{retires} pc mismatch (core {:#x}, iss {:#x})",
                    ev.pc, step.pc
                ));
            }
            if let (Some(rd), Some(v)) = (ev.inst.dest(), ev.result) {
                if iss.reg(rd) != v {
                    return Err(format!(
                        "seed {seed}: retire #{retires} pc {:#x} {rd} core={:#x} iss={:#x}",
                        ev.pc,
                        v,
                        iss.reg(rd)
                    ));
                }
            }
        }
    }
    if !core.halted {
        return Err(format!("seed {seed}: core did not halt"));
    }
    core.drain();
    if !iss.halted {
        return Err(format!("seed {seed}: ISS did not halt with the core"));
    }
    for r in Reg::all() {
        if core.reg(r) != iss.reg(r) {
            return Err(format!(
                "seed {seed}: final {r} core={:#x} iss={:#x}",
                core.reg(r),
                iss.reg(r)
            ));
        }
    }
    if let Some(addr) = core.mem.first_difference(&iss.mem) {
        return Err(format!("seed {seed}: memory differs at {addr:#x}"));
    }
    Ok(())
}

proptest! {
    /// Straight-line random gadgets: per-retire equivalence on BOOM.
    #[test]
    fn straight_line_gadgets_match_at_every_retire(seed in any::<u64>()) {
        if let Err(e) = assert_lockstep_equivalence(seed, false, &CoreConfig::boom()) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Branchy random gadgets (forward branches + bounded loops): per-retire
    /// equivalence on XiangShan, whose speculation quirks are the nastier.
    #[test]
    fn branchy_gadgets_match_at_every_retire(seed in any::<u64>()) {
        if let Err(e) = assert_lockstep_equivalence(seed, true, &CoreConfig::xiangshan()) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The minimizer never breaks the verdict it is asked to preserve, and
    /// it removes every step the predicate does not require.
    #[test]
    fn minimizer_preserves_arbitrary_verdicts(
        payload_slots in prop::collection::vec(0usize..30, 1..4),
        noise in 30usize..60,
    ) {
        let mut tc = TestCase::new("prop_min", teesec::paths::AccessPath::LoadL1Hit);
        for i in 0..noise {
            if payload_slots.contains(&i) {
                tc.push(Actor::Host, Step::Load { addr: 0x8030_0000 + i as u64 * 8, width: MemWidth::D });
            }
            tc.push(Actor::Host, Step::Nops(1));
        }
        let wanted: usize = tc
            .host_steps
            .iter()
            .filter(|s| matches!(s, Step::Load { .. }))
            .count();
        let min = minimize_case(&tc, |c| {
            c.host_steps.iter().filter(|s| matches!(s, Step::Load { .. })).count() == wanted
        });
        // Verdict preserved...
        let kept: usize = min
            .case
            .host_steps
            .iter()
            .filter(|s| matches!(s, Step::Load { .. }))
            .count();
        prop_assert_eq!(kept, wanted);
        // ...and nothing superfluous survives.
        prop_assert_eq!(min.final_steps, wanted);
    }
}
