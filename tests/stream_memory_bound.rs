//! Memory-bound guard: the streaming pipeline must not buffer the trace.
//!
//! With the `StreamingChecker` attached as a sink and buffering disabled,
//! the number of retained `TraceEvent`s stays O(boot prefix) — constant in
//! the case's cycle count — while the batch pipeline's buffer grows with
//! the run. This is the whole point of the streaming checker: checking a
//! 10x longer case must not retain 10x the events.

use teesec::checker::check_case;
use teesec::paths::AccessPath;
use teesec::runner::{run_case, run_case_opts, RunOptions, RunOutcome};
use teesec::stream::StreamingChecker;
use teesec::testcase::{Actor, Step, TestCase};
use teesec_isa::inst::MemWidth;
use teesec_uarch::CoreConfig;

/// A load-heavy host case padded with `nops` no-ops so the two variants
/// differ only in run length.
fn padded_case(name: &str, nops: u32) -> TestCase {
    let mut tc = TestCase::new(name, AccessPath::LoadL1Hit);
    for i in 0..8u64 {
        tc.push(
            Actor::Host,
            Step::Load {
                addr: 0x8030_0000 + i * 64,
                width: MemWidth::D,
            },
        );
        tc.push(Actor::Host, Step::Nops(nops));
    }
    tc
}

fn streaming_run(tc: &TestCase, cfg: &CoreConfig) -> (RunOutcome, StreamingChecker) {
    let mut outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            checker: Some(StreamingChecker::new(tc, cfg)),
            ..RunOptions::default()
        },
    )
    .expect("streaming build");
    let checker = outcome.checker.take().expect("the run returns its checker");
    (outcome, checker)
}

#[test]
fn streaming_retains_constant_events_while_the_run_grows() {
    let cfg = CoreConfig::boom();
    let short = padded_case("membound_short", 16);
    let long = padded_case("membound_long", 900); // ~8k-word host region cap

    let (short_out, short_checker) = streaming_run(&short, &cfg);
    let (long_out, long_checker) = streaming_run(&long, &cfg);

    // The long case really is a much longer run, and the sink saw it all.
    assert!(
        long_out.cycles > short_out.cycles * 4,
        "long case must run much longer ({} vs {} cycles)",
        long_out.cycles,
        short_out.cycles
    );
    assert!(
        long_checker.events_seen() > short_checker.events_seen(),
        "the sink must observe the full event stream"
    );

    // ...yet the retained buffer did not grow with the run: both variants
    // hold exactly the boot prefix recorded before the sink was attached.
    let retained_short = short_out.platform.core.trace.len();
    let retained_long = long_out.platform.core.trace.len();
    assert_eq!(
        retained_long, retained_short,
        "streaming retention must be O(boot prefix), independent of run length"
    );

    // The batch pipeline, by contrast, buffers O(cycles): its long-case
    // buffer dwarfs the streaming one's.
    let batch_long = run_case(&long, &cfg).expect("batch build");
    let batch_retained = batch_long.platform.core.trace.len();
    assert!(
        batch_retained as u64 > retained_long as u64 + long_checker.events_seen() / 2,
        "batch should retain O(cycles) events (batch {batch_retained}, streaming {retained_long})"
    );

    // And despite never buffering, the streaming report matches batch.
    let batch_report = check_case(&long, &batch_long, &cfg);
    let stream_report = long_checker.finish(&long_out);
    assert_eq!(
        serde_json::to_string(&stream_report).unwrap(),
        serde_json::to_string(&batch_report).unwrap(),
        "streaming report must match batch on the long case"
    );
}
