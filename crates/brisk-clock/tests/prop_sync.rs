//! Property-based tests for the clock-synchronization algorithm.

use brisk_clock::sync::{estimate_skew, plan_corrections, SkewEstimate, SkewSample};
use brisk_clock::{Clock, CorrectedClock, SimClock, SimTimeSource, SyncMaster, SyncSlave};
use brisk_core::{NodeId, SyncConfig, UtcMicros};
use proptest::prelude::*;
use std::sync::Arc;

/// Values at and next to the bounds of `i64`: what a broken or hostile
/// slave's reply can put into the master's arithmetic.
const EXTREMES: [i64; 4] = [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];

/// Mostly ordinary microsecond values, one in eight extreme.
fn arb_extreme_or(ordinary: std::ops::Range<i64>) -> impl Strategy<Value = i64> {
    (0u32..8, ordinary).prop_map(|(pick, v)| {
        if pick == 0 {
            EXTREMES[v.rem_euclid(4) as usize]
        } else {
            v
        }
    })
}

fn arb_estimates() -> impl Strategy<Value = Vec<SkewEstimate>> {
    proptest::collection::vec(arb_extreme_or(-1_000_000..1_000_000), 1..32).prop_map(estimates_from)
}

fn arb_ordinary_estimates() -> impl Strategy<Value = Vec<SkewEstimate>> {
    proptest::collection::vec(-1_000_000i64..1_000_000, 1..32).prop_map(estimates_from)
}

fn estimates_from(skews: Vec<i64>) -> Vec<SkewEstimate> {
    skews
        .into_iter()
        .enumerate()
        .map(|(i, skew_us)| SkewEstimate {
            node: NodeId(i as u32),
            skew_us,
            min_rtt_us: 100,
            samples_used: 4,
        })
        .collect()
}

proptest! {
    /// BRISK corrections are always non-negative advances, and the
    /// reference (most-ahead) slave is never corrected.
    #[test]
    fn brisk_only_advances_and_spares_reference(estimates in arb_estimates()) {
        let out = plan_corrections(&SyncConfig::default(), &estimates);
        for c in &out.corrections {
            prop_assert!(c.advance_us >= 0, "negative advance {:?}", c);
            prop_assert_ne!(Some(c.node), out.reference);
        }
        // Reference is the max-skew estimate.
        if let Some(reference) = out.reference {
            let max_skew = estimates.iter().map(|e| e.skew_us).max().unwrap();
            let ref_est = estimates.iter().find(|e| e.node == reference).unwrap();
            prop_assert_eq!(ref_est.skew_us, max_skew);
        }
    }

    /// Applying the planned corrections never overshoots the reference:
    /// every corrected slave's new skew is at most the reference skew
    /// (so the most-ahead clock stays most-ahead — the erroneous-promotion
    /// guard of §3.3).
    #[test]
    fn corrections_never_promote_a_new_fastest(estimates in arb_estimates()) {
        let out = plan_corrections(&SyncConfig::default(), &estimates);
        let Some(reference) = out.reference else { return Ok(()); };
        let ref_skew = estimates.iter().find(|e| e.node == reference).unwrap().skew_us;
        for c in &out.corrections {
            let old = estimates.iter().find(|e| e.node == c.node).unwrap().skew_us;
            prop_assert!(
                i128::from(old) + i128::from(c.advance_us) <= i128::from(ref_skew),
                "node {} corrected past the reference: {} + {} > {}",
                c.node, old, c.advance_us, ref_skew
            );
        }
    }

    /// Original Cristian drives every slave exactly onto the master.
    #[test]
    fn original_cristian_zeroes_skews(estimates in arb_ordinary_estimates()) {
        let cfg = SyncConfig { original_cristian: true, ..SyncConfig::default() };
        let out = plan_corrections(&cfg, &estimates);
        prop_assert_eq!(out.corrections.len(), estimates.len());
        for c in &out.corrections {
            let old = estimates.iter().find(|e| e.node == c.node).unwrap().skew_us;
            prop_assert_eq!(old + c.advance_us, 0);
        }
    }

    /// Identical skews are a fixed point: no corrections planned.
    #[test]
    fn equal_clocks_are_fixed_point(skew in -1_000_000i64..1_000_000, n in 2usize..16) {
        let estimates: Vec<SkewEstimate> = (0..n)
            .map(|i| SkewEstimate {
                node: NodeId(i as u32),
                skew_us: skew,
                min_rtt_us: 100,
                samples_used: 4,
            })
            .collect();
        let out = plan_corrections(&SyncConfig::default(), &estimates);
        prop_assert!(out.corrections.is_empty());
    }

    /// The skew estimator is exact under symmetric delays: if poll and
    /// reply take the same time, the estimate equals the true offset.
    #[test]
    fn estimator_exact_under_symmetric_delay(
        offset in -500_000i64..500_000,
        delay in 0i64..10_000,
        base in 0i64..1_000_000,
    ) {
        let sample = SkewSample {
            t_master_send: UtcMicros::from_micros(base),
            t_slave: UtcMicros::from_micros(base + delay + offset),
            t_master_recv: UtcMicros::from_micros(base + 2 * delay),
        };
        let est = estimate_skew(NodeId(0), &[sample]).unwrap();
        prop_assert_eq!(est.skew_us, offset);
    }

    /// The estimator's error is bounded by half the RTT under asymmetric
    /// delays (Cristian's classic bound).
    #[test]
    fn estimator_error_bounded_by_half_rtt(
        offset in -100_000i64..100_000,
        d1 in 0i64..10_000,
        d2 in 0i64..10_000,
    ) {
        let sample = SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(d1 + offset),
            t_master_recv: UtcMicros::from_micros(d1 + d2),
        };
        let est = estimate_skew(NodeId(0), &[sample]).unwrap();
        let err = (est.skew_us - offset).abs();
        prop_assert!(err <= (d1 + d2) / 2 + 1, "err {} rtt {}", err, d1 + d2);
    }

    /// A round over slave times that may sit on or next to the bounds of
    /// `i64` never panics, only advances clocks, and never lets a reply
    /// that is no clock reading steer the round.
    #[test]
    fn extreme_slave_times_never_overflow_a_round(
        slaves in proptest::collection::vec(arb_extreme_or(-1_000_000..1_000_000), 1..8),
        base in 0i64..2_000_000_000_000_000,
        rtt in 0i64..10_000,
    ) {
        let mut master = SyncMaster::new(SyncConfig::default()).unwrap();
        master.begin_round();
        for (i, &offset) in slaves.iter().enumerate() {
            let t_slave = if EXTREMES.contains(&offset) {
                offset
            } else {
                base + rtt / 2 + offset
            };
            for _ in 0..master.samples_per_slave() {
                master.add_sample(NodeId(i as u32), SkewSample {
                    t_master_send: UtcMicros::from_micros(base),
                    t_slave: UtcMicros::from_micros(t_slave),
                    t_master_recv: UtcMicros::from_micros(base + rtt),
                });
            }
        }
        let out = master.finish_round().unwrap();
        let bound = |i: u32| matches!(slaves[i as usize], i64::MIN | i64::MAX);
        for c in &out.corrections {
            prop_assert!(c.advance_us >= 0, "negative advance {:?}", c);
            prop_assert!(!bound(c.node.raw()), "sentinel reply corrected: {:?}", c);
        }
        if let Some(r) = out.reference {
            prop_assert!(!bound(r.raw()), "sentinel reply elected reference {}", r);
        }
    }

    /// End-to-end: for any initial offsets, repeated rounds with perfect
    /// (zero-delay) sampling drive the spread monotonically to zero-ish.
    #[test]
    fn rounds_shrink_spread(offsets in proptest::collection::vec(-100_000i64..100_000, 2..10)) {
        let src = SimTimeSource::new();
        let clocks: Vec<Arc<CorrectedClock<SimClock>>> = offsets
            .iter()
            .map(|&o| CorrectedClock::new(SimClock::new(src.clone(), o, 0.0, 1)))
            .collect();
        let mut slaves: Vec<SyncSlave<SimClock>> =
            clocks.iter().map(|c| SyncSlave::new(Arc::clone(c))).collect();
        let master_clock = SimClock::new(src.clone(), 0, 0.0, 1);
        let mut master = SyncMaster::new(SyncConfig::default()).unwrap();
        let spread = |clocks: &[Arc<CorrectedClock<SimClock>>]| {
            let r: Vec<i64> = clocks.iter().map(|c| c.now().as_micros()).collect();
            r.iter().max().unwrap() - r.iter().min().unwrap()
        };
        let initial = spread(&clocks);
        for _ in 0..30 {
            master.begin_round();
            for (i, s) in slaves.iter().enumerate() {
                let t0 = master_clock.now();
                let ts = s.on_poll();
                let t1 = master_clock.now();
                master.add_sample(NodeId(i as u32), SkewSample {
                    t_master_send: t0,
                    t_slave: ts,
                    t_master_recv: t1,
                });
            }
            let out = master.finish_round().unwrap();
            for c in out.corrections {
                slaves[c.node.raw() as usize].on_adjust(c.advance_us);
            }
            src.advance_by(1_000_000);
        }
        let final_spread = spread(&clocks);
        prop_assert!(
            final_spread <= initial && final_spread <= 10,
            "spread {} -> {}",
            initial,
            final_spread
        );
    }
}
