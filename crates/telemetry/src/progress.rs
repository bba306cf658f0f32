//! The shared campaign progress model: one place computes "cases
//! done/total" and the ETA, for both the engine's stderr progress line and
//! the `/status` endpoint.

/// A point-in-time view of campaign progress.
///
/// The ETA prefers the per-case mean CPU time of the `done` cases,
/// divided across `threads`; with no mean yet it falls back to
/// extrapolating the elapsed wall clock. Both estimators shrink as
/// `done` grows with `elapsed_us` fixed, so the ETA is monotone
/// non-increasing under out-of-order case completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressModel {
    /// Cases finished so far (including quarantined ones).
    pub done: usize,
    /// Cases in the corpus.
    pub total: usize,
    /// Cases quarantined so far.
    pub quarantined: usize,
    /// Wall-clock µs since the campaign started.
    pub elapsed_us: u64,
    /// Worker threads executing cases.
    pub threads: usize,
    /// Mean per-case CPU µs (build + simulate + check) over the `done`
    /// cases.
    pub mean_case_us: Option<u64>,
}

impl ProgressModel {
    /// Progress in parts per million (1_000_000 for an empty corpus).
    pub fn progress_ppm(&self) -> u64 {
        if self.total == 0 {
            return 1_000_000;
        }
        (self.done.min(self.total) as u64 * 1_000_000) / self.total as u64
    }

    /// Estimated µs until completion. `Some(0)` when done; `None` before
    /// the first case finishes without histogram data to lean on.
    pub fn eta_us(&self) -> Option<u64> {
        let remaining = self.total.saturating_sub(self.done) as u64;
        if remaining == 0 {
            return Some(0);
        }
        let threads = self.threads.max(1) as u64;
        if let Some(mean) = self.mean_case_us.filter(|&m| m > 0) {
            // Histogram means are per-case CPU time; work is spread across
            // the workers.
            return Some((remaining * mean).div_ceil(threads));
        }
        if self.done == 0 {
            return None;
        }
        // elapsed/done is already wall time per case under parallelism —
        // no further division by threads.
        Some((self.elapsed_us * remaining).div_ceil(self.done as u64))
    }

    /// The engine's progress line (sans carriage return): cases done,
    /// quarantine count, and the ETA once one is known.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "[{}/{}] cases done, {} quarantined",
            self.done, self.total, self.quarantined
        );
        if let Some(eta) = self.eta_us() {
            if eta > 0 {
                line.push_str(&format!(", eta {}", render_eta(eta)));
            }
        }
        line
    }
}

/// Renders an ETA compactly: `42s`, `3m07s`, or `2h05m`.
fn render_eta(eta_us: u64) -> String {
    let secs = eta_us.div_ceil(1_000_000);
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3600 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(done: usize, total: usize) -> ProgressModel {
        ProgressModel {
            done,
            total,
            quarantined: 0,
            elapsed_us: 10_000_000,
            threads: 4,
            mean_case_us: None,
        }
    }

    #[test]
    fn progress_ppm_is_exact_at_the_edges() {
        assert_eq!(model(0, 100).progress_ppm(), 0);
        assert_eq!(model(50, 100).progress_ppm(), 500_000);
        assert_eq!(model(100, 100).progress_ppm(), 1_000_000);
        assert_eq!(model(0, 0).progress_ppm(), 1_000_000);
    }

    #[test]
    fn eta_is_unknown_before_any_signal() {
        assert_eq!(model(0, 100).eta_us(), None);
    }

    #[test]
    fn eta_is_zero_when_done() {
        assert_eq!(model(100, 100).eta_us(), Some(0));
        assert_eq!(model(0, 0).eta_us(), Some(0));
    }

    #[test]
    fn histogram_mean_divides_across_threads() {
        let mut m = model(10, 110);
        m.mean_case_us = Some(1_000_000);
        // 100 remaining cases × 1 s CPU each ÷ 4 threads = 25 s.
        assert_eq!(m.eta_us(), Some(25_000_000));
    }

    #[test]
    fn elapsed_fallback_does_not_divide_by_threads() {
        let m = model(10, 110);
        // 10 s wall for 10 cases → 1 s wall per case × 100 remaining.
        assert_eq!(m.eta_us(), Some(100_000_000));
    }

    #[test]
    fn eta_is_monotone_under_out_of_order_completion() {
        // Cases complete out of order (work stealing), so `done` ticks up
        // in arbitrary sequence; with elapsed and mean fixed, the ETA must
        // never increase as done grows.
        for &mean in &[None, Some(750_000u64)] {
            let mut last = u64::MAX;
            for done in 1..=200usize {
                let mut m = model(done, 200);
                m.mean_case_us = mean;
                let eta = m.eta_us().expect("eta known once done > 0");
                assert!(
                    eta <= last,
                    "eta rose from {last} to {eta} at done={done} (mean {mean:?})"
                );
                last = eta;
            }
            assert_eq!(last, 0);
        }
    }

    #[test]
    fn render_line_matches_engine_format() {
        let mut m = model(0, 6);
        m.elapsed_us = 0;
        assert_eq!(m.render_line(), "[0/6] cases done, 0 quarantined");
        let mut m = model(3, 6);
        m.quarantined = 1;
        m.mean_case_us = Some(2_000_000);
        // 3 remaining × 2 s ÷ 4 threads = 1.5 s → 2s rendered.
        assert_eq!(m.render_line(), "[3/6] cases done, 1 quarantined, eta 2s");
    }

    #[test]
    fn eta_renders_all_magnitudes() {
        assert_eq!(render_eta(1), "1s");
        assert_eq!(render_eta(59_000_000), "59s");
        assert_eq!(render_eta(187_000_000), "3m07s");
        assert_eq!(render_eta(7_500_000_000), "2h05m");
    }
}
