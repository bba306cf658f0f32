//! Property-based tests of the TEESec framework layer: secret traceability,
//! checker soundness on synthetic traces, and assembler/fuzzer robustness
//! over the whole parameter space.

use proptest::prelude::*;

use teesec::assemble::{assemble_case, Attacker, CaseParams, Lifecycle, Victim};
use teesec::paths::AccessPath;
use teesec::secret::{secret_for, SecretCatalog, SecretRecord};
use teesec_isa::inst::MemWidth;
use teesec_uarch::trace::Domain;
use teesec_uarch::CoreConfig;

fn any_params() -> impl Strategy<Value = CaseParams> {
    (
        prop::sample::select(vec![Victim::Enclave, Victim::SecurityMonitor, Victim::Host]),
        prop::sample::select(vec![Attacker::Host, Attacker::Enclave1]),
        (0u64..0x100).prop_map(|o| o * 8),
        prop::sample::select(vec![MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D]),
        any::<bool>(),
        prop::sample::select(vec![
            Lifecycle::Stop,
            Lifecycle::StopResumeStop,
            Lifecycle::Exit,
        ]),
    )
        .prop_map(
            |(victim, attacker, offset, width, warm_via_stores, lifecycle)| CaseParams {
                victim,
                attacker,
                offset,
                width,
                warm_via_stores,
                lifecycle,
                irq_at: None,
                restricted_counters: false,
                reprobe: false,
            },
        )
}

fn any_path() -> impl Strategy<Value = AccessPath> {
    prop::sample::select(AccessPath::all().to_vec())
}

/// `SecretCatalog::identify` by a linear search: the last record seeded
/// with `value`, and nothing for 0.
fn identify_by_search(records: &[SecretRecord], value: u64) -> Option<SecretRecord> {
    if value == 0 {
        return None;
    }
    records.iter().rev().find(|r| r.value == value).copied()
}

proptest! {
    /// Secrets are injective over distinct addresses within any realistic
    /// region (collision would break leak attribution).
    #[test]
    fn secrets_are_injective(a in any::<u64>(), b in any::<u64>()) {
        if a != b {
            prop_assert_ne!(secret_for(a), secret_for(b));
        }
    }

    /// The catalog finds a seeded secret at any 8-aligned offset of a scan
    /// buffer and never reports false positives against random bytes.
    #[test]
    fn catalog_scan_is_exact(
        addr in 0x8000_0000u64..0x9000_0000,
        slot in 0usize..8,
        noise in prop::collection::vec(any::<u8>(), 64..65),
    ) {
        let mut c = SecretCatalog::new();
        let rec = c.seed(addr, Domain::Enclave(0));
        let mut buf = noise;
        // Avoid the astronomically unlikely accidental match in noise by
        // checking exactness instead: plant the secret, expect exactly it.
        for w in buf.chunks_exact_mut(8) {
            if u64::from_le_bytes(w.try_into().unwrap()) == rec.value {
                w[0] ^= 1;
            }
        }
        buf[slot * 8..slot * 8 + 8].copy_from_slice(&rec.value.to_le_bytes());
        let hits = c.scan_bytes(&buf);
        prop_assert_eq!(hits.len(), 1);
        prop_assert_eq!(hits[0].0, slot * 8);
        prop_assert_eq!(hits[0].1.addr, addr);
    }

    /// `identify` and `scan_bytes` agree with linear references over
    /// random catalogs, addresses seeded more than once included, whether
    /// the index was built seed by seed or by `indexed`. Probes are every
    /// seeded secret, random values and 0; the scan buffer holds the
    /// probes plus a ragged tail no 8-byte window covers.
    #[test]
    fn catalog_lookup_matches_a_linear_reference(
        seeds in prop::collection::vec((0u64..48, 0u8..4), 1..40),
        random in prop::collection::vec(any::<u64>(), 0..8),
        tail in 0usize..8,
    ) {
        let owners = [
            Domain::Enclave(0),
            Domain::Enclave(1),
            Domain::SecurityMonitor,
            Domain::Untrusted,
        ];
        let mut seeded = SecretCatalog::new();
        for &(k, owner) in &seeds {
            seeded.seed(0x8040_0000 + 8 * k, owners[owner as usize]);
        }
        let records = seeded.records().to_vec();
        let mut probes: Vec<u64> = records.iter().map(|r| r.value).collect();
        probes.extend(&random);
        probes.push(0);
        let mut buf: Vec<u8> = probes.iter().flat_map(|v| v.to_le_bytes()).collect();
        buf.extend(std::iter::repeat_n(0xA5, tail));
        let reference: Vec<(usize, SecretRecord)> = buf
            .chunks_exact(8)
            .enumerate()
            .filter_map(|(k, w)| {
                identify_by_search(&records, u64::from_le_bytes(w.try_into().unwrap()))
                    .map(|r| (k * 8, r))
            })
            .collect();
        for catalog in [&seeded, &seeded.indexed()] {
            for &v in &probes {
                prop_assert_eq!(catalog.identify(v), identify_by_search(&records, v));
            }
            prop_assert_eq!(catalog.scan_bytes(&buf), reference);
        }
    }

    /// The gadget assembler is total over the parameter space: every
    /// (path, params) pair either assembles or is explicitly skipped, and
    /// assembled cases always carry at least one seeded secret and at least
    /// one probe step.
    #[test]
    fn assembler_is_total_and_wellformed(path in any_path(), params in any_params()) {
        for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
            // An explicit skip (Err) is fine; assembled cases must be
            // well-formed.
            if let Ok(tc) = assemble_case(path, params, &cfg) {
                prop_assert!(!tc.secrets.is_empty(), "{}: no secrets", tc.name);
                prop_assert!(tc.step_count() > 0, "{}: no steps", tc.name);
                prop_assert!(tc.name.starts_with(path.id()));
            }
        }
    }

    /// Assembled cases always lower to valid, assemblable RISC-V.
    #[test]
    fn assembled_cases_lower_to_valid_code(path in any_path(), params in any_params()) {
        let cfg = CoreConfig::boom();
        if let Ok(tc) = assemble_case(path, params, &cfg) {
            let mut asm = teesec_isa::asm::Assembler::new(teesec_tee::layout::HOST_BASE);
            teesec::testcase::lower_steps(
                &mut asm,
                &tc.host_steps,
                teesec_tee::layout::HOST_BASE,
                "prop",
            );
            prop_assert!(asm.assemble().is_ok(), "host code must assemble for {}", tc.name);
            for (i, steps) in tc.enclave_steps.iter().enumerate() {
                let base = teesec_tee::layout::enclave_base(i);
                let mut easm = teesec_isa::asm::Assembler::new(base);
                teesec::testcase::lower_steps(&mut easm, steps, base, "prop_e");
                prop_assert!(easm.assemble().is_ok(), "enclave {i} code must assemble");
            }
        }
    }
}
