//! Generator payload and the output checker.
//!
//! Every generated record carries its own identity in its fields, so the
//! root can check delivery against the generator without trusting any
//! id the pipeline rewrites (relays rewrite node and correlation ids):
//!
//! * plain record — six `I32`s (the paper's record shape):
//!   `[node | kind << 8, seq, due_hi, due_lo, x, y]`;
//! * marked record — `[node | kind << 8, seq, due_hi, due_lo, pair,
//!   Reason/Conseq]`, where `pair` names the reason→conseq pair.
//!
//! `node` is the generator's node index, `seq` its per-node sequence
//! number and `due` the generator due time (ns since the benchmark
//! epoch).

use brisk::core::{CorrelationId, EventRecord, Value};

pub const KIND_PLAIN: i32 = 0;
pub const KIND_REASON: i32 = 1;
pub const KIND_CONSEQ: i32 = 2;

/// Due times closer than the records' timestamp resolution (1 µs) are
/// ties the ISM cannot order, not inversions.
const INVERSION_SLACK_NS: i64 = 1_000;

/// A record's generator identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    pub node: u32,
    pub seq: u64,
    pub due_ns: i64,
    pub kind: i32,
    /// Pair id for marked records, a free value for plain ones.
    pub pair: u32,
}

impl Payload {
    pub fn fields(&self) -> Vec<Value> {
        let head = [
            Value::I32(self.node as i32 | self.kind << 8),
            Value::I32(self.seq as i32),
            Value::I32((self.due_ns >> 32) as i32),
            Value::I32(self.due_ns as i32),
        ];
        let corr = CorrelationId(self.pair as u64 + 1);
        let tail = match self.kind {
            KIND_REASON => [Value::I32(self.pair as i32), Value::Reason(corr)],
            KIND_CONSEQ => [Value::I32(self.pair as i32), Value::Conseq(corr)],
            _ => [
                Value::I32(self.pair as i32),
                Value::I32((self.seq % 1_000) as i32),
            ],
        };
        head.into_iter().chain(tail).collect()
    }

    pub fn parse(rec: &EventRecord) -> Option<Payload> {
        let i32_at = |i: usize| match rec.fields.get(i) {
            Some(Value::I32(v)) => Some(*v),
            _ => None,
        };
        let head = i32_at(0)?;
        Some(Payload {
            node: (head & 0xFF) as u32,
            kind: head >> 8,
            seq: i32_at(1)? as u32 as u64,
            due_ns: ((i32_at(2)? as i64) << 32) | (i32_at(3)? as u32 as i64),
            pair: i32_at(4)? as u32,
        })
    }
}

/// What the checker found. Any non-zero violation fails the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub delivered_once: u64,
    pub duplicates: u64,
    pub missing: u64,
    pub order_violations: u64,
    pub causal_violations: u64,
    pub malformed: u64,
    /// `offered − delivered_once − refused − reported_drops`, when
    /// negative or positive: records that vanished (or appeared) without
    /// any layer accounting for them.
    pub unaccounted: i64,
    /// Adjacent delivered pairs whose due times run backwards by more
    /// than the timestamp resolution.
    pub inversions: u64,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.duplicates == 0
            && self.order_violations == 0
            && self.causal_violations == 0
            && self.malformed == 0
            && self.unaccounted == 0
    }

    pub fn problems(&self) -> String {
        format!(
            "duplicates={} missing={} order_violations={} causal_violations={} malformed={} \
             unaccounted={}",
            self.duplicates,
            self.missing,
            self.order_violations,
            self.causal_violations,
            self.malformed,
            self.unaccounted
        )
    }
}

#[derive(Default)]
struct NodeState {
    seen: Vec<u64>,
    /// Highest seq delivered among this node's FIFO-checked records.
    last_fifo: Option<u64>,
}

/// Streaming checker fed in root delivery order.
///
/// * exactly once by (generator node, generator seq);
/// * per-node order: a node's plain and reason records arrive in
///   generator order. Consequences are exempt: the CRE may legitimately
///   move a repaired consequence past its node's later records;
/// * reason before conseq: a consequence arrives after its reason.
#[derive(Default)]
pub struct Checker {
    nodes: Vec<NodeState>,
    reasons: Vec<u64>,
    last_due: Option<i64>,
    v: Verdict,
}

fn test_and_set(bits: &mut Vec<u64>, i: u64) -> bool {
    let (w, b) = ((i / 64) as usize, i % 64);
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    let was = bits[w] >> b & 1 == 1;
    bits[w] |= 1 << b;
    was
}

fn is_set(bits: &[u64], i: u64) -> bool {
    bits.get((i / 64) as usize)
        .is_some_and(|w| w >> (i % 64) & 1 == 1)
}

impl Checker {
    pub fn observe(&mut self, rec: &EventRecord) {
        match Payload::parse(rec) {
            Some(p) => self.observe_payload(&p),
            None => self.v.malformed += 1,
        }
    }

    pub fn observe_payload(&mut self, p: &Payload) {
        if let Some(last) = self.last_due {
            if last - p.due_ns > INVERSION_SLACK_NS {
                self.v.inversions += 1;
            }
        }
        self.last_due = Some(p.due_ns);
        let idx = p.node as usize;
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, NodeState::default);
        }
        let node = &mut self.nodes[idx];
        if test_and_set(&mut node.seen, p.seq) {
            self.v.duplicates += 1;
            return;
        }
        self.v.delivered_once += 1;
        match p.kind {
            KIND_CONSEQ => {
                if !is_set(&self.reasons, p.pair as u64) {
                    self.v.causal_violations += 1;
                }
            }
            KIND_REASON | KIND_PLAIN => {
                if node.last_fifo.is_some_and(|last| p.seq < last) {
                    self.v.order_violations += 1;
                }
                node.last_fifo = Some(p.seq);
                if p.kind == KIND_REASON {
                    test_and_set(&mut self.reasons, p.pair as u64);
                }
            }
            _ => self.v.malformed += 1,
        }
    }

    /// Close the books. `offered` counts generator records per node;
    /// `refused` those a full ring turned away (open loop); `drops` what
    /// the ISM tiers reported dropping or shedding.
    pub fn finish(&self, offered: &[u64], refused: u64, drops: u64) -> Verdict {
        let mut v = self.v.clone();
        let total: u64 = offered.iter().sum();
        v.missing = total.saturating_sub(v.delivered_once);
        v.unaccounted = total as i64 - v.delivered_once as i64 - refused as i64 - drops as i64;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk::core::{EventTypeId, NodeId, SensorId, UtcMicros};

    fn rec(node: u32, seq: u64, kind: i32, pair: u32) -> EventRecord {
        let p = Payload {
            node,
            seq,
            due_ns: 10_000 * seq as i64 + node as i64,
            kind,
            pair,
        };
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::ZERO,
            p.fields(),
        )
        .unwrap()
    }

    fn clean() -> Vec<EventRecord> {
        vec![
            rec(0, 0, KIND_PLAIN, 0),
            rec(1, 0, KIND_REASON, 7),
            rec(0, 1, KIND_CONSEQ, 7),
            rec(1, 1, KIND_PLAIN, 0),
            rec(0, 2, KIND_PLAIN, 0),
        ]
    }

    fn run(records: &[EventRecord]) -> Verdict {
        let mut c = Checker::default();
        for r in records {
            c.observe(r);
        }
        c.finish(&[3, 2], 0, 0)
    }

    #[test]
    fn payload_round_trips() {
        let p = Payload {
            node: 3,
            seq: 1 << 30,
            due_ns: -5_000_000_123,
            kind: KIND_CONSEQ,
            pair: 99,
        };
        let r = EventRecord::new(
            NodeId(9),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::ZERO,
            p.fields(),
        )
        .unwrap();
        assert_eq!(Payload::parse(&r), Some(p));
        assert_eq!(r.fields.len(), 6);
    }

    #[test]
    fn clean_stream_passes() {
        let v = run(&clean());
        assert!(v.ok(), "{}", v.problems());
        assert_eq!(v.delivered_once, 5);
        assert_eq!(v.missing, 0);
    }

    #[test]
    fn catches_an_injected_duplicate() {
        let mut s = clean();
        s.push(s[3].clone());
        let v = run(&s);
        assert_eq!(v.duplicates, 1);
        assert!(!v.ok());
    }

    #[test]
    fn catches_a_gap() {
        let mut s = clean();
        s.remove(3);
        let v = run(&s);
        assert_eq!(v.missing, 1);
        assert_eq!(v.unaccounted, 1);
        assert!(!v.ok());
        // The same gap explained by a ring refusal balances the books.
        let mut c = Checker::default();
        s.iter().for_each(|r| c.observe(r));
        assert!(c.finish(&[3, 2], 1, 0).ok());
    }

    #[test]
    fn catches_a_reorder() {
        let mut s = clean();
        s.swap(0, 4); // node 0: seq 2 before seq 0
        let v = run(&s);
        assert_eq!(v.order_violations, 1);
        assert!(!v.ok());
    }

    #[test]
    fn catches_conseq_before_reason() {
        let mut s = clean();
        s.swap(1, 2);
        let v = run(&s);
        assert_eq!(v.causal_violations, 1);
        assert!(!v.ok());
    }

    /// The checker on real merge-plane output: a reason whose node's
    /// sorter queue ends in a repaired (raised) consequence gets its
    /// `X_HLC` clamped above that tail after the CRE registered its
    /// original stamp, so its own consequence on the other node — not a
    /// tachyon against the original stamp — is released first. This is
    /// what `relay_causal` with reasons on both leaves shows at the root
    /// (a few dozen pairs in 10 s); the benchmark puts every reason on the
    /// healthy leaf, so this test is the reproduction. Run it with
    /// `--ignored`; drop the `ignore` once the merge plane is fixed.
    #[test]
    #[ignore = "known ISM defect: sorter clamp re-stamps a registered reason"]
    fn causal_merge_delivers_each_reason_before_its_conseq() {
        use brisk::core::{HlcStamp, IsmConfig, OrderMode, Result};
        use brisk::ism::IsmCore;
        use std::sync::{Arc, Mutex};

        let stamped = |node: u32, seq: u64, kind: i32, pair: u32, hlc: i64| {
            let mut r = rec(node, seq, kind, pair);
            r.node = NodeId(node + 1);
            r.ts = UtcMicros::from_micros(hlc);
            r.set_hlc(HlcStamp::new(UtcMicros::from_micros(hlc), 0));
            r
        };
        let mut core = IsmCore::new(IsmConfig {
            order_mode: OrderMode::Causal,
            ..IsmConfig::default()
        })
        .unwrap();
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&out);
        core.add_sink(Box::new(move |r: &EventRecord| -> Result<()> {
            sink.lock().unwrap().push(r.clone());
            Ok(())
        }));
        let now = UtcMicros::from_micros(1_000);
        // Node 0 (clock right): reason 0. Node 1 (clock behind): the
        // consequence of reason 0 (a tachyon, repaired above it), then
        // reason 1. Node 0 again: the consequence of reason 1.
        core.push_batch(vec![stamped(0, 0, KIND_REASON, 0, 1_000)], now)
            .unwrap();
        core.push_batch(
            vec![
                stamped(1, 0, KIND_CONSEQ, 0, 900),
                stamped(1, 1, KIND_REASON, 1, 950),
            ],
            now,
        )
        .unwrap();
        core.push_batch(vec![stamped(0, 1, KIND_CONSEQ, 1, 1_000)], now)
            .unwrap();
        core.tick(UtcMicros::from_secs(10)).unwrap();
        let mut c = Checker::default();
        for r in out.lock().unwrap().iter() {
            c.observe(r);
        }
        let v = c.finish(&[2, 2], 0, 0);
        assert_eq!(v.delivered_once, 4);
        assert_eq!(v.causal_violations, 0, "a conseq overtook its reason");
    }

    #[test]
    fn counts_due_time_inversions() {
        let mut s = clean();
        s.swap(3, 4);
        assert_eq!(run(&s).inversions, 1);
    }
}
