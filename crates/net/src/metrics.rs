//! Network-level counters shared by every [`MessageBus`](crate::MessageBus).

use crate::rng::mix;

/// Counters a message bus accumulates over one execution. Plain `Copy`
/// data so runtimes can embed a snapshot in their reports; two runs of the
/// same seeded simulation produce `==` metrics (including the schedule
/// digest), which is how determinism tests pin the full event schedule
/// without storing it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages handed to the bus.
    pub sent: u64,
    /// Messages delivered within their round deadline.
    pub delivered: u64,
    /// Messages dropped by link loss or a partition.
    pub dropped: u64,
    /// Messages whose delay pushed them past the round deadline (the
    /// receiver treats the sender as silent for that round).
    pub late: u64,
    /// Virtual time elapsed, in virtual nanoseconds ([`PerfectBus`] ticks
    /// one unit per round instead).
    ///
    /// [`PerfectBus`]: crate::PerfectBus
    pub virtual_ns: u64,
    /// Order-sensitive fingerprint of the full delivery schedule: every
    /// delivery's `(from, to, sent_at, delivered_at)` folded in delivery
    /// order. Bit-identical schedules ⇔ equal digests (up to hash
    /// collisions).
    pub schedule_digest: u64,
}

impl NetMetrics {
    /// Records a message handed to the bus.
    pub(crate) fn record_send(&mut self) {
        self.sent += 1;
    }

    /// Records a drop (link loss or partition).
    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Records a message that missed its round deadline.
    pub(crate) fn record_late(&mut self) {
        self.late += 1;
    }

    /// Records a delivery and folds it into the schedule digest.
    pub(crate) fn record_delivery(
        &mut self,
        from: usize,
        to: usize,
        sent_at: u64,
        delivered_at: u64,
    ) {
        self.delivered += 1;
        let event = mix(mix(from as u64, to as u64), mix(sent_at, delivered_at));
        self.schedule_digest = mix(self.schedule_digest, event);
    }

    /// `sent == delivered + dropped + late` — every message is accounted
    /// for exactly once after the round it was sent in has ended.
    pub fn is_balanced(&self) -> bool {
        self.sent == self.delivered + self.dropped + self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_balance_and_rate() {
        let mut m = NetMetrics::default();
        assert!(m.is_balanced());
        m.record_send();
        m.record_send();
        m.record_send();
        m.record_delivery(0, 1, 0, 10);
        m.record_drop();
        m.record_late();
        assert!(m.is_balanced());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = NetMetrics::default();
        a.record_delivery(0, 1, 0, 5);
        a.record_delivery(1, 0, 0, 7);
        let mut b = NetMetrics::default();
        b.record_delivery(1, 0, 0, 7);
        b.record_delivery(0, 1, 0, 5);
        assert_ne!(a.schedule_digest, b.schedule_digest);
    }
}
