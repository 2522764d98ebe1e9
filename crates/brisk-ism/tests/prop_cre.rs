//! Property-based tests for the causally-related-event matcher.

use brisk_core::{
    CorrelationId, CreConfig, EventRecord, EventTypeId, NodeId, SensorId, UtcMicros, Value,
};
use brisk_ism::CreMatcher;
use proptest::prelude::*;
use std::time::Duration;

#[derive(Clone, Debug)]
enum Op {
    Reason { id: u64, ts: i64 },
    Conseq { id: u64, ts: i64 },
    Plain { ts: i64 },
    Expire { advance_ms: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..8, 0i64..10_000).prop_map(|(id, ts)| Op::Reason { id, ts }),
            (0u64..8, 0i64..10_000).prop_map(|(id, ts)| Op::Conseq { id, ts }),
            (0i64..10_000).prop_map(|ts| Op::Plain { ts }),
            (1u64..300).prop_map(|advance_ms| Op::Expire { advance_ms }),
        ],
        1..120,
    )
}

fn reason(id: u64, seq: u64, ts: i64) -> EventRecord {
    EventRecord::new(
        NodeId(0),
        SensorId(0),
        EventTypeId(1),
        seq,
        UtcMicros::from_micros(ts),
        vec![Value::Reason(CorrelationId(id))],
    )
    .unwrap()
}

fn conseq(id: u64, seq: u64, ts: i64) -> EventRecord {
    EventRecord::new(
        NodeId(1),
        SensorId(0),
        EventTypeId(2),
        seq,
        UtcMicros::from_micros(ts),
        vec![Value::Conseq(CorrelationId(id))],
    )
    .unwrap()
}

fn plain(seq: u64, ts: i64) -> EventRecord {
    EventRecord::new(
        NodeId(2),
        SensorId(0),
        EventTypeId(3),
        seq,
        UtcMicros::from_micros(ts),
        vec![],
    )
    .unwrap()
}

proptest! {
    /// Conservation: every record fed in comes out exactly once (possibly
    /// via the expiry path), identified by its unique sequence number.
    #[test]
    fn conservation(ops in arb_ops()) {
        let mut m = CreMatcher::new(CreConfig {
            hold_timeout: Duration::from_millis(100),
            ..CreConfig::default()
        })
        .unwrap();
        let mut now = UtcMicros::ZERO;
        let mut fed = 0u64;
        let mut out = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            let seq = seq as u64;
            match *op {
                Op::Reason { id, ts } => {
                    fed += 1;
                    m.process(reason(id, seq, ts), now, &mut out);
                }
                Op::Conseq { id, ts } => {
                    fed += 1;
                    m.process(conseq(id, seq, ts), now, &mut out);
                }
                Op::Plain { ts } => {
                    fed += 1;
                    m.process(plain(seq, ts), now, &mut out);
                }
                Op::Expire { advance_ms } => {
                    now += Duration::from_millis(advance_ms);
                    out.extend(m.expire(now));
                }
            }
        }
        // Flush stragglers.
        out.extend(m.expire(now + Duration::from_secs(10)));
        prop_assert_eq!(out.len() as u64, fed);
        let mut seen = std::collections::HashSet::new();
        for r in &out {
            prop_assert!(seen.insert((r.node.raw(), r.seq)), "duplicate record");
        }
        prop_assert_eq!(m.held_count(), 0);
    }

    /// Causality invariant: whenever a consequence is released while its
    /// reason is known to the matcher, its timestamp is strictly after the
    /// reason's.
    #[test]
    fn released_conseq_follows_known_reason(ops in arb_ops()) {
        let mut m = CreMatcher::new(CreConfig::default()).unwrap();
        let now = UtcMicros::ZERO;
        let mut reason_ts: std::collections::HashMap<u64, UtcMicros> =
            std::collections::HashMap::new();
        for (seq, op) in ops.iter().enumerate() {
            let seq = seq as u64;
            let mut outs = Vec::new();
            match *op {
                Op::Reason { id, ts } => {
                    reason_ts.insert(id, UtcMicros::from_micros(ts));
                    m.process(reason(id, seq, ts), now, &mut outs);
                }
                Op::Conseq { id, ts } => {
                    m.process(conseq(id, seq, ts), now, &mut outs);
                }
                Op::Plain { ts } => {
                    m.process(plain(seq, ts), now, &mut outs);
                }
                Op::Expire { .. } => continue, // no time movement here
            }
            for r in outs {
                if let Some(id) = r.conseq_id() {
                    if let Some(&rts) = reason_ts.get(&id.raw()) {
                        prop_assert!(
                            r.ts > rts,
                            "conseq {:?} not after reason {:?}",
                            r.ts,
                            rts
                        );
                    }
                }
            }
        }
    }

    /// Unmarked records are never held, reordered or modified.
    #[test]
    fn plain_records_pass_untouched(ts in proptest::collection::vec(0i64..1_000_000, 1..50)) {
        let mut m = CreMatcher::new(CreConfig::default()).unwrap();
        for (seq, &t) in ts.iter().enumerate() {
            let input = plain(seq as u64, t);
            let mut pass = Vec::new();
            let extra_sync = m.process(input.clone(), UtcMicros::ZERO, &mut pass);
            prop_assert_eq!(pass.len(), 1);
            prop_assert_eq!(&pass[0], &input);
            prop_assert!(!extra_sync);
        }
        prop_assert_eq!(m.held_count(), 0);
    }

    /// Extra-sync requests imply a repair happened, and repairs only
    /// happen on marked records.
    #[test]
    fn extra_sync_implies_repair(ops in arb_ops()) {
        let mut m = CreMatcher::new(CreConfig::default()).unwrap();
        let now = UtcMicros::ZERO;
        let mut requests = 0u64;
        let mut pass = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            let seq = seq as u64;
            let extra_sync = match *op {
                Op::Reason { id, ts } => m.process(reason(id, seq, ts), now, &mut pass),
                Op::Conseq { id, ts } => m.process(conseq(id, seq, ts), now, &mut pass),
                Op::Plain { ts } => m.process(plain(seq, ts), now, &mut pass),
                Op::Expire { .. } => continue,
            };
            if extra_sync {
                requests += 1;
            }
        }
        prop_assert!(m.stats().tachyons_repaired >= requests.min(1));
        prop_assert_eq!(m.stats().extra_syncs_requested >= requests, true);
    }
}
