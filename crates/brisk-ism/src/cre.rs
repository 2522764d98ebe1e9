//! Causally-related event (CRE) handling (§3.2, §3.6).
//!
//! Users mark causally-related events with `X_REASON` / `X_CONSEQ` fields
//! carrying the same identifier: "determining which consequence events must
//! follow respective reason events". If clock synchronization fails to
//! prevent *tachyons* — "a consequence event that appears to happen before
//! its reason event" — the ISM post-processes them:
//!
//! * reasons are remembered in a hash table keyed by correlation id;
//! * a consequence whose reason is known and whose timestamp is not after
//!   the reason's gets its timestamp **overridden** to just after the
//!   reason ("the time-stamps must reflect the causality") and an **extra
//!   synchronization round** is requested;
//! * a consequence arriving before its reason is **held** until the reason
//!   shows up ("it is kept in memory until the corresponding reason event
//!   record is processed");
//! * "a causally-marked event of either type is kept in memory no longer
//!   than a specified timeout, because its peer may have been dropped."

use brisk_core::{
    CorrelationId, CreConfig, EventRecord, HlcStamp, OrderMode, Result, TraceStage, UtcMicros,
};
use std::collections::HashMap;

/// Counters describing CRE behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CreStats {
    /// Records that passed through unmarked.
    pub unmarked: u64,
    /// Reason records processed.
    pub reasons: u64,
    /// Consequence records processed.
    pub conseqs: u64,
    /// Tachyons repaired by timestamp override.
    pub tachyons_repaired: u64,
    /// Consequences held waiting for their reason.
    pub held: u64,
    /// Held consequences released because the timeout expired.
    pub expired: u64,
    /// Extra synchronization rounds requested.
    pub extra_syncs_requested: u64,
    /// Extra sync requests suppressed by the token-bucket rate limit
    /// (the tachyon was still repaired; only the sync round was skipped).
    pub extra_syncs_suppressed: u64,
}

struct ReasonEntry {
    ts: UtcMicros,
    hlc: Option<HlcStamp>,
    seen_at: UtcMicros,
}

struct HeldConseq {
    rec: EventRecord,
    held_at: UtcMicros,
}

/// The CRE hash-table matcher.
///
/// ```
/// use brisk_core::{CorrelationId, CreConfig, EventRecord, EventTypeId,
///                  NodeId, SensorId, UtcMicros, Value};
/// use brisk_ism::CreMatcher;
///
/// let mut cre = CreMatcher::new(CreConfig::default()).unwrap();
/// let reason = EventRecord::new(
///     NodeId(0), SensorId(0), EventTypeId(1), 0, UtcMicros::from_micros(100),
///     vec![Value::Reason(CorrelationId(7))],
/// ).unwrap();
/// // The "effect" carries an EARLIER timestamp — a tachyon.
/// let conseq = EventRecord::new(
///     NodeId(1), SensorId(0), EventTypeId(2), 0, UtcMicros::from_micros(90),
///     vec![Value::Conseq(CorrelationId(7))],
/// ).unwrap();
///
/// let mut pass = Vec::new();
/// cre.process(reason, UtcMicros::ZERO, &mut pass);
/// pass.clear();
/// let extra_sync = cre.process(conseq, UtcMicros::ZERO, &mut pass);
/// // Repaired: the consequence now sits just after its reason, and an
/// // extra clock-sync round is requested.
/// assert!(pass[0].ts.as_micros() > 100);
/// assert!(extra_sync);
/// ```
pub struct CreMatcher {
    cfg: CreConfig,
    order: OrderMode,
    reasons: HashMap<CorrelationId, ReasonEntry>,
    waiting: HashMap<CorrelationId, Vec<HeldConseq>>,
    stats: CreStats,
    /// Extra-sync token bucket: available tokens and last refill time.
    sync_tokens: u32,
    sync_last_refill: Option<UtcMicros>,
}

impl CreMatcher {
    /// New matcher with the given knobs.
    pub fn new(cfg: CreConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(CreMatcher {
            sync_tokens: cfg.extra_sync_burst,
            cfg,
            order: OrderMode::default(),
            reasons: HashMap::new(),
            waiting: HashMap::new(),
            stats: CreStats::default(),
            sync_last_refill: None,
        })
    }

    /// Select the ordering discipline: in [`OrderMode::Causal`] the
    /// tachyon test compares `X_HLC` stamps (provable happened-before)
    /// when both sides carry one, falling back to the timestamp heuristic
    /// otherwise.
    pub fn set_order_mode(&mut self, order: OrderMode) {
        self.order = order;
    }

    /// Counters so far.
    pub fn stats(&self) -> CreStats {
        self.stats
    }

    /// Consequences currently held.
    pub fn held_count(&self) -> usize {
        self.waiting.values().map(Vec::len).sum()
    }

    /// Remembered reasons.
    pub fn reason_count(&self) -> usize {
        self.reasons.len()
    }

    /// Process one record. `now` is the ISM's current time (used for the
    /// hold timeout). The records ready to continue down the pipeline —
    /// the input and any previously-held consequences it unblocked — are
    /// appended to `pass` in the order they should reach the sorter; the
    /// caller owns (and reuses) that buffer. Returns `true` if a tachyon
    /// was repaired and an extra sync round should run (§3.6; honoured
    /// when [`CreConfig::extra_sync_on_tachyon`] is set).
    pub fn process(
        &mut self,
        mut rec: EventRecord,
        now: UtcMicros,
        pass: &mut Vec<EventRecord>,
    ) -> bool {
        let mut extra_sync = false;
        // A record can be a reason, a consequence, or (rarely) both — e.g.
        // a relay hop that is caused by one event and causes another.
        let reason_id = rec.reason_id();
        let conseq_id = rec.conseq_id();

        if let Some(id) = conseq_id {
            self.stats.conseqs += 1;
            match self.reasons.get(&id) {
                Some(entry) => {
                    if Self::is_tachyon(self.order, &rec, entry) {
                        let (ts, hlc) = (entry.ts, entry.hlc);
                        extra_sync |= self.repair(&mut rec, ts, hlc, now);
                    }
                }
                None => {
                    // Reason not seen yet: hold. A relay hop (conseq of one
                    // id, reason for another) still registers the reason id
                    // it carries, so consequences of the hop don't stall
                    // until the hold timeout; waiters already held for that
                    // id release when the hop itself does.
                    if let Some(rid) = reason_id {
                        self.stats.reasons += 1;
                        self.reasons.insert(
                            rid,
                            ReasonEntry {
                                ts: rec.ts,
                                hlc: rec.hlc(),
                                seen_at: now,
                            },
                        );
                    }
                    self.stats.held += 1;
                    rec.stamp_trace(TraceStage::CreHold, now);
                    self.waiting
                        .entry(id)
                        .or_default()
                        .push(HeldConseq { rec, held_at: now });
                    return extra_sync;
                }
            }
        }

        if let Some(id) = reason_id {
            self.stats.reasons += 1;
            let reason_ts = rec.ts;
            let reason_hlc = rec.hlc();
            self.reasons.insert(
                id,
                ReasonEntry {
                    ts: reason_ts,
                    hlc: reason_hlc,
                    seen_at: now,
                },
            );
            // Release any consequences that were waiting for this reason.
            if let Some(held) = self.waiting.remove(&id) {
                // The reason itself goes first so consumers see causality.
                pass.push(rec);
                extra_sync |= self.release_cascade(reason_ts, reason_hlc, held, now, pass);
                return extra_sync;
            }
        } else if conseq_id.is_none() {
            self.stats.unmarked += 1;
        }

        pass.push(rec);
        extra_sync
    }

    /// The causality test: did this consequence provably NOT happen after
    /// its reason? In causal mode an `X_HLC` comparison decides when both
    /// sides carry a stamp — provable happened-before, immune to clock
    /// skew; otherwise (and always in physical mode) the timestamp
    /// heuristic of §3.6 applies.
    fn is_tachyon(order: OrderMode, conseq: &EventRecord, reason: &ReasonEntry) -> bool {
        match (order, conseq.hlc(), reason.hlc) {
            (OrderMode::Causal, Some(c), Some(r)) => c <= r,
            _ => conseq.ts <= reason.ts,
        }
    }

    /// Repair one tachyonic consequence against its reason's stamps:
    /// raise its `X_HLC` strictly above the reason's (causal mode) and
    /// reconcile its physical timestamp toward the HLC bound — the
    /// repaired record must sort after its reason under BOTH disciplines,
    /// so causal repairs survive a physically-ordered downstream tier.
    /// Returns `true` when the repair asks for an extra sync round.
    fn repair(
        &mut self,
        rec: &mut EventRecord,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        now: UtcMicros,
    ) -> bool {
        let mut ts_floor = reason_ts;
        if self.order == OrderMode::Causal {
            if let Some(r) = reason_hlc {
                let bound = HlcStamp::new(r.physical, r.logical.saturating_add(1));
                match rec.hlc() {
                    Some(c) if c > bound => {}
                    _ => {
                        rec.set_hlc(bound);
                    }
                }
                ts_floor = ts_floor.max(r.physical);
            }
        }
        if rec.ts <= ts_floor {
            rec.override_ts(ts_floor.offset(self.cfg.tachyon_bump_us));
        }
        rec.stamp_trace(TraceStage::CreRepair, now);
        self.stats.tachyons_repaired += 1;
        if !self.cfg.extra_sync_on_tachyon {
            return false;
        }
        if self.take_sync_token(now) {
            self.stats.extra_syncs_requested += 1;
            true
        } else {
            self.stats.extra_syncs_suppressed += 1;
            false
        }
    }

    /// Token-bucket gate for extra sync rounds: `extra_sync_burst` tokens,
    /// one restored per `extra_sync_refill` of ISM time.
    fn take_sync_token(&mut self, now: UtcMicros) -> bool {
        let refill_us = self.cfg.extra_sync_refill.as_micros() as i64;
        let last = *self.sync_last_refill.get_or_insert(now);
        let steps = now.micros_since(last).max(0) / refill_us;
        if steps > 0 {
            let add = u32::try_from(steps).unwrap_or(u32::MAX);
            self.sync_tokens = self
                .sync_tokens
                .saturating_add(add)
                .min(self.cfg.extra_sync_burst);
            self.sync_last_refill = Some(last.offset(steps.saturating_mul(refill_us)));
        }
        if self.sync_tokens > 0 {
            self.sync_tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Release `held` (the waiters of a reason stamped `reason_ts`),
    /// repairing tachyons, and transitively release the waiters of any
    /// released record that is itself a reason (a relay hop). The hop's
    /// reason entry is refreshed with its final — possibly bumped —
    /// stamps so its consequences land causally after it. Returns `true`
    /// when a repair asked for an extra sync round.
    fn release_cascade(
        &mut self,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        held: Vec<HeldConseq>,
        now: UtcMicros,
        pass: &mut Vec<EventRecord>,
    ) -> bool {
        let mut extra_sync = false;
        let mut work = std::collections::VecDeque::new();
        work.push_back((reason_ts, reason_hlc, held));
        while let Some((reason_ts, reason_hlc, held)) = work.pop_front() {
            let entry = ReasonEntry {
                ts: reason_ts,
                hlc: reason_hlc,
                seen_at: now,
            };
            for mut h in held {
                if Self::is_tachyon(self.order, &h.rec, &entry) {
                    extra_sync |= self.repair(&mut h.rec, reason_ts, reason_hlc, now);
                }
                // `stats.reasons` already counted when the hop registered
                // its id at hold time — only the entry is refreshed here.
                if let Some(rid) = h.rec.reason_id() {
                    if let Some(entry) = self.reasons.get_mut(&rid) {
                        entry.ts = h.rec.ts;
                        entry.hlc = h.rec.hlc();
                        entry.seen_at = now;
                    }
                    if let Some(waiters) = self.waiting.remove(&rid) {
                        work.push_back((h.rec.ts, h.rec.hlc(), waiters));
                    }
                }
                pass.push(h.rec);
            }
        }
        extra_sync
    }

    /// Expire held consequences and stale reasons per the hold timeout.
    /// Returns timed-out consequences (released unmodified — "its peer may
    /// have been dropped").
    pub fn expire(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let timeout_us = self.cfg.hold_timeout.as_micros() as i64;
        let mut released = Vec::new();
        self.waiting.retain(|_, held| {
            held.retain_mut(|h| {
                if now.micros_since(h.held_at) >= timeout_us {
                    released.push(std::mem::replace(
                        &mut h.rec,
                        EventRecord::new(0.into(), 0.into(), 0.into(), 0, UtcMicros::ZERO, vec![])
                            .expect("empty record"),
                    ));
                    false
                } else {
                    true
                }
            });
            !held.is_empty()
        });
        self.stats.expired += released.len() as u64;
        self.reasons
            .retain(|_, entry| now.micros_since(entry.seen_at) < timeout_us);
        // Held consequences are released in arrival order best-effort; sort
        // by origin sequence for determinism.
        released.sort_by_key(|r| r.sort_key());
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use std::time::Duration;

    /// One `process` call's outcome, for assertions.
    struct Out {
        pass: Vec<EventRecord>,
        request_extra_sync: bool,
    }

    trait Run {
        fn run(&mut self, rec: EventRecord, now: UtcMicros) -> Out;
    }

    impl Run for CreMatcher {
        fn run(&mut self, rec: EventRecord, now: UtcMicros) -> Out {
            let mut pass = Vec::new();
            let request_extra_sync = self.process(rec, now, &mut pass);
            Out {
                pass,
                request_extra_sync,
            }
        }
    }

    fn reason(id: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(0),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::Reason(CorrelationId(id))],
        )
        .unwrap()
    }

    fn conseq(id: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(2),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::Conseq(CorrelationId(id))],
        )
        .unwrap()
    }

    fn plain(ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(2),
            SensorId(0),
            EventTypeId(3),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::I32(1)],
        )
        .unwrap()
    }

    fn matcher() -> CreMatcher {
        CreMatcher::new(CreConfig {
            hold_timeout: Duration::from_millis(100),
            tachyon_bump_us: 1,
            extra_sync_on_tachyon: true,
            ..CreConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn unmarked_records_pass_through() {
        let mut m = matcher();
        let out = m.run(plain(10), UtcMicros::ZERO);
        assert_eq!(out.pass.len(), 1);
        assert!(!out.request_extra_sync);
        assert_eq!(m.stats().unmarked, 1);
    }

    #[test]
    fn ordered_pair_passes_untouched() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        let out = m.run(reason(7, 100), now);
        assert_eq!(out.pass.len(), 1);
        let out = m.run(conseq(7, 150), now);
        assert_eq!(out.pass[0].ts.as_micros(), 150);
        assert!(!out.request_extra_sync);
        assert_eq!(m.stats().tachyons_repaired, 0);
    }

    #[test]
    fn tachyon_after_reason_is_bumped() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.run(reason(7, 100), now);
        let out = m.run(conseq(7, 90), now);
        assert_eq!(out.pass[0].ts.as_micros(), 101, "reason ts + bump");
        assert!(out.request_extra_sync);
        assert_eq!(m.stats().tachyons_repaired, 1);
        assert_eq!(m.stats().extra_syncs_requested, 1);
    }

    #[test]
    fn equal_timestamps_also_count_as_tachyon() {
        let mut m = matcher();
        m.run(reason(7, 100), UtcMicros::ZERO);
        let out = m.run(conseq(7, 100), UtcMicros::ZERO);
        assert_eq!(out.pass[0].ts.as_micros(), 101);
    }

    #[test]
    fn conseq_before_reason_is_held_then_released() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        let out = m.run(conseq(9, 50), now);
        assert!(out.pass.is_empty());
        assert_eq!(m.held_count(), 1);
        // Reason arrives with a LATER ts: held conseq was a tachyon.
        let out = m.run(reason(9, 80), now);
        assert_eq!(out.pass.len(), 2);
        assert_eq!(out.pass[0].ts.as_micros(), 80, "reason first");
        assert_eq!(out.pass[1].ts.as_micros(), 81, "conseq bumped past reason");
        assert!(out.request_extra_sync);
        assert_eq!(m.held_count(), 0);
    }

    #[test]
    fn held_conseq_with_good_ts_released_unmodified() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.run(conseq(9, 500), now);
        let out = m.run(reason(9, 80), now);
        assert_eq!(out.pass.len(), 2);
        assert_eq!(out.pass[1].ts.as_micros(), 500);
        assert!(!out.request_extra_sync);
    }

    #[test]
    fn multiple_held_conseqs_released_together() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.run(conseq(9, 50), now);
        m.run(conseq(9, 60), now);
        let out = m.run(reason(9, 100), now);
        assert_eq!(out.pass.len(), 3);
        assert_eq!(m.stats().tachyons_repaired, 2);
    }

    #[test]
    fn hold_timeout_releases_unmatched_conseq() {
        let mut m = matcher();
        let t0 = UtcMicros::ZERO;
        m.run(conseq(11, 50), t0);
        assert!(m.expire(t0 + Duration::from_millis(50)).is_empty());
        let released = m.expire(t0 + Duration::from_millis(100));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].ts.as_micros(), 50, "released unmodified");
        assert_eq!(m.stats().expired, 1);
        assert_eq!(m.held_count(), 0);
    }

    #[test]
    fn reasons_expire_too() {
        let mut m = matcher();
        let t0 = UtcMicros::ZERO;
        m.run(reason(12, 100), t0);
        assert_eq!(m.reason_count(), 1);
        m.expire(t0 + Duration::from_millis(100));
        assert_eq!(m.reason_count(), 0);
        // A conseq arriving after its reason expired is held (peer gone).
        let out = m.run(conseq(12, 90), t0 + Duration::from_millis(100));
        assert!(out.pass.is_empty());
        assert_eq!(m.held_count(), 1);
    }

    #[test]
    fn extra_sync_can_be_disabled() {
        let mut m = CreMatcher::new(CreConfig {
            extra_sync_on_tachyon: false,
            ..CreConfig::default()
        })
        .unwrap();
        m.run(reason(1, 100), UtcMicros::ZERO);
        let out = m.run(conseq(1, 50), UtcMicros::ZERO);
        assert!(!out.request_extra_sync);
        assert_eq!(m.stats().tachyons_repaired, 1);
        assert_eq!(m.stats().extra_syncs_requested, 0);
    }

    fn with_hlc(mut rec: EventRecord, phys: i64, logical: u32) -> EventRecord {
        rec.set_hlc(HlcStamp::new(UtcMicros::from_micros(phys), logical));
        rec
    }

    fn causal_matcher() -> CreMatcher {
        let mut m = matcher();
        m.set_order_mode(OrderMode::Causal);
        m
    }

    #[test]
    fn causal_mode_detects_tachyon_by_hlc_despite_plausible_ts() {
        // The conseq's physical ts LOOKS fine (150 > 100) because its
        // node's clock is fast — but its HLC proves it cannot have
        // happened after the reason. Physical mode would pass it
        // untouched; causal mode repairs it.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.run(with_hlc(reason(7, 100), 100, 4), now);
        let out = m.run(with_hlc(conseq(7, 150), 100, 2), now);
        assert_eq!(m.stats().tachyons_repaired, 1);
        let repaired = &out.pass[0];
        let h = repaired.hlc().unwrap();
        assert!(
            h > HlcStamp::new(UtcMicros::from_micros(100), 4),
            "repaired stamp must dominate the reason's"
        );
        assert_eq!(h, HlcStamp::new(UtcMicros::from_micros(100), 5));
        assert_eq!(repaired.ts.as_micros(), 150, "plausible ts left alone");
    }

    #[test]
    fn causal_mode_accepts_hlc_ordered_pair_with_skewed_ts() {
        // The conseq's ts is EARLIER (its node's clock is 2 s slow) but
        // its HLC dominates the reason's: provably ordered, no repair.
        // The physical heuristic would have flagged this as a tachyon.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.run(with_hlc(reason(7, 2_000_100), 2_000_100, 0), now);
        let out = m.run(with_hlc(conseq(7, 200), 2_000_100, 3), now);
        assert_eq!(m.stats().tachyons_repaired, 0, "provably ordered");
        assert_eq!(out.pass[0].ts.as_micros(), 200, "not touched");
        assert!(!out.request_extra_sync);
    }

    #[test]
    fn causal_repair_reconciles_ts_toward_hlc_bound() {
        // Reason stamped at HLC physical 2_000_000 (its clock is right);
        // the conseq comes from a node 2 s behind: ts 90, HLC (90, 0).
        // The repair must raise BOTH the stamp and the physical ts past
        // the reason's, so the pair survives a physically-ordered tier.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.run(with_hlc(reason(9, 2_000_000), 2_000_000, 0), now);
        let out = m.run(with_hlc(conseq(9, 90), 90, 0), now);
        assert_eq!(m.stats().tachyons_repaired, 1);
        let repaired = &out.pass[0];
        assert_eq!(
            repaired.hlc().unwrap(),
            HlcStamp::new(UtcMicros::from_micros(2_000_000), 1)
        );
        assert_eq!(
            repaired.ts.as_micros(),
            2_000_001,
            "ts reconciled to the HLC bound + bump"
        );
    }

    #[test]
    fn causal_mode_falls_back_to_ts_without_stamps() {
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.run(reason(7, 100), now);
        let out = m.run(conseq(7, 90), now);
        assert_eq!(out.pass[0].ts.as_micros(), 101, "ts heuristic still works");
        assert_eq!(m.stats().tachyons_repaired, 1);
    }

    #[test]
    fn causal_held_conseq_repaired_by_hlc_on_release() {
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        // Conseq first (held), stamped causally before the reason.
        assert!(m.run(with_hlc(conseq(9, 500), 100, 1), now).pass.is_empty());
        let out = m.run(with_hlc(reason(9, 80), 100, 7), now);
        assert_eq!(out.pass.len(), 2);
        let h = out.pass[1].hlc().unwrap();
        assert_eq!(h, HlcStamp::new(UtcMicros::from_micros(100), 8));
        assert_eq!(m.stats().tachyons_repaired, 1);
    }

    #[test]
    fn extra_sync_requests_are_rate_limited() {
        // A tachyon storm (one skewed node mis-stamping many pairs) must
        // not turn into a sync-round storm: the token bucket allows a
        // burst, suppresses the rest, and refills with time.
        let mut m = CreMatcher::new(CreConfig {
            hold_timeout: Duration::from_millis(100),
            tachyon_bump_us: 1,
            extra_sync_on_tachyon: true,
            extra_sync_burst: 2,
            extra_sync_refill: Duration::from_secs(1),
        })
        .unwrap();
        let t0 = UtcMicros::ZERO;
        for id in 0..4u64 {
            m.run(reason(id, 100), t0);
        }
        assert!(m.run(conseq(0, 50), t0).request_extra_sync);
        assert!(m.run(conseq(1, 50), t0).request_extra_sync);
        // Burst exhausted: tachyons are still repaired, syncs suppressed.
        let out = m.run(conseq(2, 50), t0);
        assert!(!out.request_extra_sync, "third request must be suppressed");
        assert_eq!(out.pass[0].ts.as_micros(), 101, "repair still happens");
        assert_eq!(m.stats().extra_syncs_requested, 2);
        assert_eq!(m.stats().extra_syncs_suppressed, 1);
        // One refill period later a token is back.
        let t1 = t0 + Duration::from_secs(1);
        assert!(m.run(conseq(3, 50), t1).request_extra_sync);
        assert_eq!(m.stats().extra_syncs_requested, 3);
        assert_eq!(m.stats().extra_syncs_suppressed, 1);
    }

    #[test]
    fn record_that_is_both_reason_and_conseq() {
        // A relay hop: conseq of id 1, reason for id 2.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.run(reason(1, 100), now);
        let hop = EventRecord::new(
            NodeId(3),
            SensorId(0),
            EventTypeId(4),
            0,
            UtcMicros::from_micros(90),
            vec![
                Value::Conseq(CorrelationId(1)),
                Value::Reason(CorrelationId(2)),
            ],
        )
        .unwrap();
        let out = m.run(hop, now);
        // Tachyon vs reason 1 repaired; registered as reason 2 with the
        // corrected timestamp.
        assert_eq!(out.pass[0].ts.as_micros(), 101);
        let out = m.run(conseq(2, 95), now);
        assert_eq!(out.pass[0].ts.as_micros(), 102, "chained repair");
    }

    fn relay_hop(conseq_of: u64, reason_for: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(3),
            SensorId(0),
            EventTypeId(4),
            0,
            UtcMicros::from_micros(ts),
            vec![
                Value::Conseq(CorrelationId(conseq_of)),
                Value::Reason(CorrelationId(reason_for)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn held_relay_hop_registers_its_reason_id() {
        // A relay hop held for its own reason must still register the
        // reason id it carries, so consequences of the hop don't stall
        // until the hold timeout.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        assert!(
            m.run(relay_hop(1, 2, 90), now).pass.is_empty(),
            "hop held: reason 1 unseen"
        );
        let out = m.run(conseq(2, 95), now);
        assert_eq!(out.pass.len(), 1, "conseq of the held hop must not stall");
        assert_eq!(out.pass[0].ts.as_micros(), 95, "95 > 90: no repair needed");
    }

    #[test]
    fn relay_chain_released_in_causal_order_without_timeouts() {
        // Worst-case arrival order for the chain 1 → hop → 2:
        // conseq(2) first, then the hop (conseq of 1, reason for 2),
        // then reason(1). Everything must come out on the reason's
        // arrival, causally stamped, with zero timeout expiries.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        assert!(m.run(conseq(2, 80), now).pass.is_empty());
        assert!(m.run(relay_hop(1, 2, 90), now).pass.is_empty());
        let out = m.run(reason(1, 100), now);
        let ts: Vec<i64> = out.pass.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![100, 101, 102], "reason → hop → conseq, causal");
        assert_eq!(m.held_count(), 0);
        assert_eq!(m.stats().expired, 0, "no timeout-expiry releases");
    }

    #[test]
    fn different_ids_do_not_interact() {
        let mut m = matcher();
        m.run(reason(1, 100), UtcMicros::ZERO);
        let out = m.run(conseq(2, 50), UtcMicros::ZERO);
        assert!(out.pass.is_empty(), "conseq 2 must wait for reason 2");
        assert_eq!(m.stats().tachyons_repaired, 0);
    }
}
