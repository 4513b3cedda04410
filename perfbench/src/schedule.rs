//! The `serve` workload's open-loop request schedule, derived from the
//! benchmark seed alone.
//!
//! Requests are due at a fixed rate. In every block of 200 there are:
//!
//! * 187 interactive requests cycling through the thirteen interactive
//!   stages in an order the seed shuffles, so any thirteen consecutive
//!   interactive requests ask for each stage once;
//! * ten `fig9` and two `table2` (the slow path-diversity stages);
//! * one `table3` carrying a 1000 ms deadline, which it misses today.
//!
//! The schedule's last request is a further `table3` with the same
//! deadline. Nothing is due after it, so once it has been answered only
//! its abandoned worker is left running: the CPU the process spends in
//! the second after the last reply (`serve.cpu_s_after_stop`) is that
//! worker's, and cancelling missed requests brings it to about zero.
//!
//! The slow requests sit at fixed places, spread over the block. At the
//! run's 200 requests the tail percentile (ten samples beyond it) falls
//! in the middle of the ten `fig9` answers, not among whichever
//! interactive requests a passing stall on the machine delayed. And the
//! slow stages keep a core busy less than a third of the time, so the
//! median interactive request is not on the edge between running alone
//! and running beside one of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The thirteen interactive stages: every figure and table whose
/// analysis takes tens of milliseconds at the reference scale.
pub const INTERACTIVE: [&str; 13] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7_8",
    "table1",
    "table4",
    "ext_events",
    "ext_robustness",
    "ext_ingress",
    "ext_correlation",
];

/// Slow stages in the mix.
pub const SLOW: [&str; 2] = ["table2", "fig9"];

/// The deadline-bound stage.
pub const DEADLINE_STAGE: &str = "table3";

/// Deadline carried by [`DEADLINE_STAGE`] requests.
pub const DEADLINE_MS: u64 = 1000;

/// Requests per mix block.
pub const BLOCK: usize = 200;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When the request is due, in milliseconds after the schedule starts.
    pub due_ms: f64,
    /// Analysis stage to fetch.
    pub stage: &'static str,
    /// Per-request deadline, if any.
    pub deadline_ms: Option<u64>,
}

/// Where the slow requests sit in a block, in ascending order.
const SLOW_AT: [(usize, &str); 13] = [
    (10, SLOW[1]),
    (25, SLOW[0]),
    (40, SLOW[1]),
    (60, SLOW[1]),
    (80, SLOW[1]),
    (100, DEADLINE_STAGE),
    (110, SLOW[1]),
    (125, SLOW[0]),
    (140, SLOW[1]),
    (155, SLOW[1]),
    (170, SLOW[1]),
    (185, SLOW[1]),
    (195, SLOW[1]),
];

/// The schedule for `seconds` of load at `rate_per_s` requests per
/// second: a pure function of its arguments.
pub fn schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_5c4e_d01e);
    let mut cycle = INTERACTIVE;
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let n = (rate_per_s * seconds).floor().max(1.0) as usize;
    let gap_ms = 1000.0 / rate_per_s;
    let mut interactive = cycle.iter().cycle();
    (0..n)
        .map(|i| {
            let stage = SLOW_AT
                .iter()
                .find(|(at, _)| *at == i % BLOCK)
                .map(|(_, stage)| *stage)
                .or_else(|| (i + 1 == n).then_some(DEADLINE_STAGE))
                .or_else(|| interactive.next().copied())
                .expect("the cycle never ends");
            Req {
                due_ms: i as f64 * gap_ms,
                stage,
                deadline_ms: (stage == DEADLINE_STAGE).then_some(DEADLINE_MS),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7, 20.0, 15.0), schedule(7, 20.0, 15.0));
    }

    #[test]
    fn different_seeds_different_schedules() {
        let a = schedule(7, 20.0, 15.0);
        let b = schedule(8, 20.0, 15.0);
        assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(&b).filter(|(x, y)| x.stage != y.stage).count();
        assert!(
            differing > a.len() / 2,
            "only {differing} of {} differ",
            a.len()
        );
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        let s = schedule(3, 20.0, 30.0);
        assert_eq!(s.len(), 3 * BLOCK);
        for (k, chunk) in s.chunks(BLOCK).enumerate() {
            for (at, stage) in SLOW_AT {
                assert_eq!(chunk[at].stage, stage);
            }
            let count = |name: &str| chunk.iter().filter(|r| r.stage == name).count();
            let last_block = k == 2;
            assert_eq!(count(DEADLINE_STAGE), 1 + last_block as usize);
            assert_eq!((count(SLOW[0]), count(SLOW[1])), (2, 10));
            for stage in INTERACTIVE {
                assert!(
                    (14..=15).contains(&count(stage)),
                    "{stage}: {}",
                    count(stage)
                );
            }
            for r in chunk {
                assert_eq!(r.deadline_ms.is_some(), r.stage == DEADLINE_STAGE);
            }
        }
    }

    #[test]
    fn any_thirteen_interactive_requests_cover_every_stage() {
        let interactive: Vec<&str> = schedule(11, 12.0, 20.0)
            .into_iter()
            .map(|r| r.stage)
            .filter(|s| INTERACTIVE.contains(s))
            .collect();
        for window in interactive.windows(INTERACTIVE.len()) {
            let mut w = window.to_vec();
            w.sort_unstable();
            w.dedup();
            assert_eq!(w.len(), INTERACTIVE.len());
        }
    }

    #[test]
    fn the_last_request_is_the_deadline_stage() {
        for (rate, seconds) in [(10.0, 20.0), (20.0, 2.0), (12.0, 7.5)] {
            let s = schedule(5, rate, seconds);
            let last = s.last().expect("non-empty");
            assert_eq!(last.stage, DEADLINE_STAGE);
            assert_eq!(last.deadline_ms, Some(DEADLINE_MS));
        }
    }

    #[test]
    fn requests_are_due_at_a_fixed_rate() {
        let s = schedule(1, 20.0, 2.0);
        assert_eq!(s.len(), 40);
        for (i, r) in s.iter().enumerate() {
            assert!((r.due_ms - 50.0 * i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn every_stage_is_registered() {
        for stage in INTERACTIVE.iter().chain(&SLOW).chain([&DEADLINE_STAGE]) {
            assert!(ndt_analysis::report::stage_spec(stage).is_some(), "{stage}");
        }
    }
}
