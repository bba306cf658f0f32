//! Shared support for the TEESec experiment harness binaries.
//!
//! Each `src/bin/tableN.rs` / `src/bin/figN.rs` regenerates one table or
//! figure of the paper (see DESIGN.md §6 for the experiment index). The
//! binaries accept `--cases N` to size the fuzzing corpus (default 250;
//! pass `--full` for the paper's 585).

use teesec::campaign::{Campaign, CampaignResult};
use teesec::fuzz::Fuzzer;
use teesec_uarch::config::{CoreConfig, MitigationSet};

/// Harness options parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Corpus size per design.
    pub cases: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts { cases: 250 }
    }
}

/// Parses `--cases N` / `--full` from `std::env::args`.
pub fn parse_args() -> HarnessOpts {
    let mut opts = HarnessOpts::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.cases = teesec::fuzz::PAPER_TEST_CASE_COUNT,
            "--cases" => {
                i += 1;
                opts.cases = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--cases requires a number"));
            }
            other => panic!("unknown argument `{other}` (supported: --cases N, --full)"),
        }
        i += 1;
    }
    opts
}

/// Runs a campaign on one design with an optional mitigation set.
pub fn run_design(mut cfg: CoreConfig, mitigations: MitigationSet, cases: usize) -> CampaignResult {
    cfg.mitigations = mitigations;
    let (result, _) = Campaign::new(cfg, Fuzzer::with_target(cases)).run();
    result
}

/// Prints a section header in the harness output style.
pub fn header(title: &str) {
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        assert_eq!(HarnessOpts::default().cases, 250);
    }

    #[test]
    fn tiny_campaign_smoke() {
        let r = run_design(CoreConfig::boom(), MitigationSet::default(), 3);
        assert_eq!(r.case_count, 3);
    }
}
