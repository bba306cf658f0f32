//! Cross-crate integration: the ISA assembler, the cycle-driven core, the
//! generated security-monitor firmware and the proxy kernel all composed
//! through the platform builder.

use teesec_isa::reg::Reg;
use teesec_tee::platform::{emit_sbi_call, HostVm, Platform};
use teesec_tee::{layout, SbiCall};
use teesec_uarch::trace::{Domain, Structure, TraceEventKind};
use teesec_uarch::{CoreConfig, RunExit};

#[test]
fn secrets_flow_through_real_memory_hierarchy() {
    // The enclave computes a value, stores it; the host later destroys the
    // enclave; memory must be scrubbed while the host's own data survives.
    let mut p = Platform::builder(CoreConfig::boom())
        .seed_u64(layout::HOST_DATA, 0x1111_2222)
        .enclave_code(0, |a| {
            a.li(Reg::T0, 40);
            a.addi(Reg::T0, Reg::T0, 2);
            a.li(Reg::T1, layout::enclave_data(0));
            a.sd(Reg::T0, Reg::T1, 0);
        })
        .host_code(|a| {
            emit_sbi_call(a, SbiCall::CreateEnclave, 0);
            emit_sbi_call(a, SbiCall::RunEnclave, 0);
            emit_sbi_call(a, SbiCall::DestroyEnclave, 0);
        })
        .build()
        .expect("build");
    assert_eq!(p.run(3_000_000), RunExit::Halted);
    assert_eq!(p.core.mem.read_u64(layout::enclave_data(0)), 0, "scrubbed");
    assert_eq!(
        p.core.mem.read_u64(layout::HOST_DATA),
        0x1111_2222,
        "host data intact"
    );
}

#[test]
fn sv39_and_bare_hosts_compute_identically() {
    let run = |vm: HostVm| {
        let mut p = Platform::builder(CoreConfig::xiangshan())
            .host_vm(vm)
            .host_code(|a| {
                a.li(Reg::T0, layout::SHARED_BASE);
                a.li(Reg::S2, 0);
                for k in 0..8 {
                    a.li(Reg::T1, 100 + k);
                    a.sd(Reg::T1, Reg::T0, (8 * k) as i32);
                }
                for k in 0..8 {
                    a.ld(Reg::T2, Reg::T0, 8 * k);
                    a.add(Reg::S2, Reg::S2, Reg::T2);
                }
            })
            .build()
            .expect("build");
        assert_eq!(p.run(3_000_000), RunExit::Halted);
        p.core.reg(Reg::S2)
    };
    let bare = run(HostVm::Bare);
    let sv39 = run(HostVm::Sv39);
    assert_eq!(bare, (100..108).sum::<u64>());
    assert_eq!(
        bare, sv39,
        "translation must not change architectural results"
    );
}

#[test]
fn attestation_is_content_sensitive() {
    let measure = |seed: u64| {
        let mut p = Platform::builder(CoreConfig::boom())
            .seed_u64(layout::enclave_data(0) + 0x100, seed)
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::CreateEnclave, 0);
                emit_sbi_call(a, SbiCall::AttestEnclave, 0);
                a.mv(Reg::S4, Reg::A0); // measurement
            })
            .build()
            .expect("build");
        assert_eq!(p.run(3_000_000), RunExit::Halted);
        p.core.reg(Reg::S4)
    };
    assert_ne!(
        measure(0xAAAA),
        measure(0xBBBB),
        "measurement reflects enclave content"
    );
}

#[test]
fn hardware_walks_appear_in_the_trace() {
    let mut p = Platform::builder(CoreConfig::boom())
        .host_vm(HostVm::Sv39)
        .host_code(|a| {
            a.li(Reg::T0, layout::SHARED_BASE + 0x2000);
            a.li(Reg::T1, 7);
            a.sd(Reg::T1, Reg::T0, 0);
            a.ld(Reg::S2, Reg::T0, 0);
        })
        .build()
        .expect("build");
    assert_eq!(p.run(3_000_000), RunExit::Halted);
    assert_eq!(p.core.reg(Reg::S2), 7);
    // PTW cache writes and DTLB installs were traced.
    assert!(p
        .core
        .trace
        .for_structure(Structure::PtwCache)
        .any(|e| matches!(e.kind, TraceEventKind::Write { .. })));
    assert!(p
        .core
        .trace
        .for_structure(Structure::Dtlb)
        .any(|e| matches!(e.kind, TraceEventKind::Write { .. })));
}

#[test]
fn domain_attribution_follows_lifecycle() {
    let mut p = Platform::builder(CoreConfig::xiangshan())
        .enclave_code(0, |a| {
            a.li(Reg::T0, 1);
            // Yield mid-way; the implicit terminator stops again after
            // the resume.
            a.li(Reg::A7, SbiCall::StopEnclave.id());
            a.ecall();
            a.li(Reg::T0, 2);
        })
        .host_code(|a| {
            emit_sbi_call(a, SbiCall::RunEnclave, 0);
            emit_sbi_call(a, SbiCall::ResumeEnclave, 0);
        })
        .build()
        .expect("build");
    assert_eq!(p.run(3_000_000), RunExit::Halted);
    let switches: Vec<Domain> = p
        .core
        .trace
        .iter_events()
        .filter_map(|e| match e.kind {
            TraceEventKind::DomainSwitch { to } => Some(to),
            _ => None,
        })
        .collect();
    // Boot->untrusted, run->enclave, stop->untrusted, resume->enclave,
    // stop->untrusted (SM transitions interleave as SecurityMonitor).
    let enclave_entries = switches.iter().filter(|d| d.is_enclave()).count();
    assert_eq!(enclave_entries, 2, "run + resume: {switches:?}");
    assert_eq!(p.core.domain, Domain::Untrusted);
}

#[test]
fn user_mode_transition_via_sret() {
    // The host supervisor drops to U-mode; the U-mode code runs with the
    // same PMP view (Keystone gives PMP no U/S distinction for unlocked
    // entries) and the test ends there.
    let mut p = Platform::builder(CoreConfig::boom())
        .host_code(|a| {
            a.la(Reg::T0, "user");
            a.csrw(teesec_isa::csr::SEPC, Reg::T0);
            // sstatus.SPP = 0 (user)
            a.li(Reg::T1, 0x100);
            a.inst(teesec_isa::inst::Inst::Csr {
                op: teesec_isa::inst::CsrOp::Rc,
                rd: Reg::ZERO,
                src: teesec_isa::inst::CsrSrc::Reg(Reg::T1),
                csr: teesec_isa::csr::SSTATUS,
            });
            a.sret();
            a.label("user");
            a.li(Reg::S3, 0x0E5);
        })
        .build()
        .expect("build");
    assert_eq!(p.run(2_000_000), RunExit::Halted);
    assert_eq!(p.core.reg(Reg::S3), 0x0E5, "user code executed");
    assert_eq!(p.core.priv_level, teesec_isa::priv_level::PrivLevel::User);
}
