//! A fluid-flow model of a shared access link.
//!
//! The client's cellular downlink is the one piece of the network the whole
//! page load contends for, and contention on it is the mechanism behind the
//! paper's key scheduling results (Figs 11, 18, 19): naive "push all, fetch
//! ASAP" delays exactly the resources the CPU is waiting for. We model the
//! link as a fluid pipe of fixed capacity shared among active transfers in
//! proportion to their weights (equal by default) — the classic processor-
//! sharing approximation of many TCP flows on one bottleneck.
//!
//! The model is exact between membership changes: callers must
//! [`advance`](SharedLink::advance) the link to the current time before
//! starting or finishing transfers, and re-ask for
//! [`next_completion`](SharedLink::next_completion) whenever membership
//! changes.

use vroom_sim::{SimDuration, SimTime};

/// Identifier of an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// A half-open window `[start, end)` during which the link runs at
/// `factor` of nominal capacity. `factor == 0` is a total outage (a
/// packet-loss burst in the fault model); fractions model bandwidth
/// collapses. Outside all windows the link runs at full capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Capacity fraction in `[0, 1]`.
    pub factor: f64,
}

#[derive(Debug)]
struct Transfer {
    id: TransferId,
    remaining_bits: f64,
    weight: f64,
}

/// A shared bottleneck link.
///
/// Active transfers live in a flat vector kept sorted by id — ids are
/// handed out monotonically, so pushing on start preserves the order and
/// every per-event scan (share computation, completion sweep) is a linear
/// walk over contiguous memory instead of ordered-map node traffic. The
/// iteration order, and therefore every floating-point reduction over the
/// transfer set, is identical to the previous ordered-map representation.
#[derive(Debug)]
pub struct SharedLink {
    bits_per_sec: f64,
    transfers: Vec<Transfer>,
    last_advance: SimTime,
    next_id: u64,
    /// Sorted, disjoint capacity-degradation windows (fault injection).
    schedule: Vec<CapacityWindow>,
    /// How many active transfers have a weight other than 1.0. When zero —
    /// the overwhelmingly common case; the browser engine never weights —
    /// every transfer's share divisor is the same value, so the per-transfer
    /// divisions in `advance`/`next_completion` collapse to one. The fast
    /// path is bitwise-identical to the general one: multiplying by a unit
    /// weight is exact, and dividing by a shared positive divisor is
    /// monotone, so the minimum over quotients is the quotient of the
    /// minimum.
    nonunit_weights: usize,
}

impl SharedLink {
    /// A link with the given capacity in bits per second.
    pub fn new(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "zero-capacity link");
        SharedLink {
            bits_per_sec: bits_per_sec as f64,
            transfers: Vec::new(),
            last_advance: SimTime::ZERO,
            next_id: 0,
            schedule: Vec::new(),
            nonunit_weights: 0,
        }
    }

    /// Reset to a freshly-constructed link of the given capacity while
    /// keeping the transfer vector's allocation — the scratch-reuse hook for
    /// callers that run many simulations back-to-back. Observationally
    /// identical to `SharedLink::new(bits_per_sec)`.
    pub fn reset(&mut self, bits_per_sec: u64) {
        assert!(bits_per_sec > 0, "zero-capacity link");
        self.bits_per_sec = bits_per_sec as f64;
        self.transfers.clear();
        self.last_advance = SimTime::ZERO;
        self.next_id = 0;
        self.schedule.clear();
        self.nonunit_weights = 0;
    }

    /// Install a capacity-degradation schedule (fault injection). Windows
    /// must be sorted by start and non-overlapping.
    pub fn set_capacity_schedule(&mut self, windows: Vec<CapacityWindow>) {
        for w in &windows {
            assert!(w.end > w.start, "empty capacity window");
            assert!((0.0..=1.0).contains(&w.factor), "factor out of range");
        }
        for pair in windows.windows(2) {
            assert!(pair[0].end <= pair[1].start, "overlapping windows");
        }
        self.schedule = windows;
    }

    /// Capacity factor in effect at `t`, and the time at which it next
    /// changes (`SimTime::MAX` when it never does).
    fn factor_at(&self, t: SimTime) -> (f64, SimTime) {
        for w in &self.schedule {
            if t < w.start {
                return (1.0, w.start);
            }
            if t < w.end {
                return (w.factor, w.end);
            }
        }
        (1.0, SimTime::MAX)
    }

    /// Number of active transfers.
    pub fn active(&self) -> usize {
        self.transfers.len()
    }

    /// Progress all transfers to `now`, returning the ids that completed
    /// (in completion order). `now` must not precede the previous advance.
    pub fn advance(&mut self, now: SimTime) -> Vec<TransferId> {
        assert!(now >= self.last_advance, "time went backwards");
        let mut completed = Vec::new();
        let mut t = self.last_advance;
        // Within an interval the share is constant, so we walk from
        // completion to completion (each completion raises the share of the
        // survivors). Effectively-finished transfers (including ties) are
        // swept at the top of each round, in id order (the vector's order),
        // for determinism.
        loop {
            let nonunit = &mut self.nonunit_weights;
            self.transfers.retain(|tr| {
                if tr.remaining_bits <= 1e-3 {
                    if tr.weight != 1.0 {
                        *nonunit -= 1;
                    }
                    completed.push(tr.id);
                    false
                } else {
                    true
                }
            });
            if t >= now || self.transfers.is_empty() {
                break;
            }
            // Capacity is piecewise-constant: progress one segment at a
            // time, a segment ending at the earlier of `now` and the next
            // capacity change.
            let (factor, until) = self.factor_at(t);
            let seg_end = now.min(until);
            if factor <= 0.0 {
                // Total outage: time passes, nothing moves.
                t = seg_end;
                continue;
            }
            let capacity = self.bits_per_sec * factor;
            let interval = (seg_end - t).as_secs_f64();
            let (first_dt, dt);
            if self.nonunit_weights == 0 {
                // Unit-weight fast path: one shared rate, one division.
                let total_weight = self.transfers.len() as f64;
                let rate = capacity / total_weight;
                let min_rem = self
                    .transfers
                    .iter()
                    .map(|tr| tr.remaining_bits)
                    .fold(f64::INFINITY, f64::min);
                first_dt = min_rem / rate;
                dt = first_dt.min(interval).max(0.0);
                for tr in &mut self.transfers {
                    tr.remaining_bits = (tr.remaining_bits - rate * dt).max(0.0);
                    if tr.remaining_bits < 1e-3 {
                        tr.remaining_bits = 0.0;
                    }
                }
            } else {
                let total_weight: f64 = self.transfers.iter().map(|x| x.weight).sum();
                // Earliest finisher at current shares.
                first_dt = self
                    .transfers
                    .iter()
                    .map(|tr| tr.remaining_bits / (capacity * tr.weight / total_weight))
                    .fold(f64::INFINITY, f64::min);
                dt = first_dt.min(interval).max(0.0);
                for tr in &mut self.transfers {
                    let rate = capacity * tr.weight / total_weight;
                    tr.remaining_bits = (tr.remaining_bits - rate * dt).max(0.0);
                    if tr.remaining_bits < 1e-3 {
                        tr.remaining_bits = 0.0;
                    }
                }
            }
            if first_dt >= interval {
                t = seg_end;
            } else {
                t += SimDuration::from_secs_f64(dt);
            }
        }
        self.last_advance = now;
        completed
    }

    /// Begin a transfer of `bytes` at time `now` (the link is advanced
    /// first). Weight 1.0.
    pub fn start(&mut self, now: SimTime, bytes: u64) -> (TransferId, Vec<TransferId>) {
        self.start_weighted(now, bytes, 1.0)
    }

    /// Begin a weighted transfer. Higher weight ⇒ larger share.
    pub fn start_weighted(
        &mut self,
        now: SimTime,
        bytes: u64,
        weight: f64,
    ) -> (TransferId, Vec<TransferId>) {
        assert!(weight > 0.0);
        let completed = self.advance(now);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        // Ids are monotonic, so pushing keeps the vector id-sorted.
        self.transfers.push(Transfer {
            id,
            // A zero-byte transfer still takes one "tick"; give it a bit.
            remaining_bits: ((bytes * 8).max(1)) as f64,
            weight,
        });
        if weight != 1.0 {
            self.nonunit_weights += 1;
        }
        (id, completed)
    }

    /// Abort a transfer (e.g. stream reset). Returns whether it was active.
    pub fn cancel(&mut self, id: TransferId) -> bool {
        match self.transfers.binary_search_by_key(&id, |t| t.id) {
            Ok(i) => {
                if self.transfers[i].weight != 1.0 {
                    self.nonunit_weights -= 1;
                }
                self.transfers.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// When the next active transfer will complete, given current membership
    /// (and assuming it does not change). `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        debug_assert!(now == self.last_advance, "advance() before querying");
        if self.transfers.is_empty() {
            return None;
        }
        // All shares scale by the same capacity factor, so the identity of
        // the first finisher is schedule-independent; only its finish time
        // shifts. `need` is its remaining time at full capacity — walk the
        // schedule until that much effective (factor-weighted) time has
        // accumulated.
        let mut need = if self.nonunit_weights == 0 {
            // Unit-weight fast path (see `nonunit_weights`): shared divisor,
            // single division — bitwise-identical to the general reduction.
            let total_weight = self.transfers.len() as f64;
            let min_rem = self
                .transfers
                .iter()
                .map(|tr| tr.remaining_bits)
                .fold(f64::INFINITY, f64::min);
            min_rem / (self.bits_per_sec / total_weight)
        } else {
            let total_weight: f64 = self.transfers.iter().map(|x| x.weight).sum();
            self.transfers
                .iter()
                .map(|tr| tr.remaining_bits / (self.bits_per_sec * tr.weight / total_weight))
                .fold(f64::INFINITY, f64::min)
        };
        let mut t = now;
        let mut elapsed = 0.0f64;
        let dt = loop {
            let (factor, until) = self.factor_at(t);
            if until == SimTime::MAX {
                // Full capacity from here on (factor is 1 outside windows).
                break elapsed + need;
            }
            let seg = (until - t).as_secs_f64();
            if factor > 0.0 && need <= seg * factor {
                break elapsed + need / factor;
            }
            need -= seg * factor;
            elapsed += seg;
            t = until;
        };
        // Round *up* to at least 1 ns so callers always make progress: a
        // completion predicted exactly "now" would otherwise spin the event
        // loop at one instant forever.
        let ns = ((dt * 1e9).ceil() as u64).max(1);
        Some(now + SimDuration::from_nanos(ns))
    }

    /// Remaining bytes of a transfer (diagnostics).
    pub fn remaining_bytes(&self, id: TransferId) -> Option<u64> {
        self.transfers
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| (self.transfers[i].remaining_bits / 8.0).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: u64) -> SharedLink {
        SharedLink::new(m * 1_000_000)
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn single_transfer_takes_size_over_bandwidth() {
        let mut link = mbps(8); // 1 MB/s
        let (id, _) = link.start(SimTime::ZERO, 1_000_000); // 1 MB
        let done_at = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done_at.as_millis(), 1000);
        let completed = link.advance(done_at);
        assert_eq!(completed, vec![id]);
        assert_eq!(link.active(), 0);
    }

    #[test]
    fn two_equal_transfers_share_evenly() {
        let mut link = mbps(8);
        let (a, _) = link.start(SimTime::ZERO, 500_000);
        let (b, _) = link.start(SimTime::ZERO, 500_000);
        // Each gets 0.5 MB/s => both finish at 1.0 s.
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done.as_millis(), 1000);
        let completed = link.advance(secs(1.0));
        assert_eq!(completed.len(), 2);
        assert!(completed.contains(&a) && completed.contains(&b));
    }

    #[test]
    fn late_joiner_slows_the_first() {
        let mut link = mbps(8); // 1 MB/s
        let (a, _) = link.start(SimTime::ZERO, 1_000_000);
        // At t=0.5 s, a has 0.5 MB left; b joins with 0.5 MB.
        let (b, done) = link.start(secs(0.5), 500_000);
        assert!(done.is_empty());
        // Now each gets 0.5 MB/s; both finish 1 s later at t=1.5.
        let next = link.next_completion(secs(0.5)).unwrap();
        assert_eq!(next.as_millis(), 1500);
        let completed = link.advance(secs(1.5));
        assert_eq!(completed.len(), 2);
        let _ = (a, b);
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut link = mbps(8); // 1 MB/s
        let (small, _) = link.start(SimTime::ZERO, 250_000);
        let (big, _) = link.start(SimTime::ZERO, 1_000_000);
        // Shared: each at 0.5 MB/s. small done at t=0.5 with big at 750 KB
        // left; big then runs at full speed, done at t = 0.5 + 0.75 = 1.25 s.
        let completed = link.advance(secs(2.0));
        assert_eq!(completed, vec![small, big]);

        // Re-run, checking the intermediate timing.
        let mut link = mbps(8);
        let (_s2, _) = link.start(SimTime::ZERO, 250_000);
        let (b2, _) = link.start(SimTime::ZERO, 1_000_000);
        let done1 = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done1.as_millis(), 500);
        link.advance(done1);
        let done2 = link.next_completion(done1).unwrap();
        assert_eq!(done2.as_millis(), 1250);
        assert_eq!(link.remaining_bytes(b2), Some(750_000));
    }

    #[test]
    fn weights_bias_shares() {
        let mut link = mbps(8); // 1 MB/s
        let (hi, _) = link.start_weighted(SimTime::ZERO, 750_000, 3.0);
        let (lo, _) = link.start_weighted(SimTime::ZERO, 250_000, 1.0);
        // hi gets 0.75 MB/s, lo 0.25 MB/s: both done at t=1.0 s.
        let completed = link.advance(secs(1.0));
        assert_eq!(completed.len(), 2);
        let _ = (hi, lo);
    }

    #[test]
    fn cancel_removes_contention() {
        let mut link = mbps(8);
        let (a, _) = link.start(SimTime::ZERO, 1_000_000);
        let (b, _) = link.start(SimTime::ZERO, 1_000_000);
        assert!(link.cancel(b));
        assert!(!link.cancel(b));
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done.as_millis(), 1000, "full rate after cancel");
        let _ = a;
    }

    #[test]
    fn conservation_of_bytes() {
        // Total bytes delivered over any schedule equals capacity * busy time.
        let mut link = mbps(10);
        let mut pending = vec![
            (secs(0.0), 300_000u64),
            (secs(0.1), 500_000),
            (secs(0.1), 200_000),
            (secs(0.7), 1_000_000),
        ];
        let total_bytes: u64 = pending.iter().map(|p| p.1).sum();
        let mut all_completed = Vec::new();
        for (t, bytes) in pending.drain(..) {
            let (_, done) = link.start(t, bytes);
            all_completed.extend(done);
        }
        // Work-conserving link, busy continuously from t=0: everything done
        // at exactly total/capacity.
        let finish = total_bytes as f64 * 8.0 / 10e6;
        all_completed.extend(link.advance(secs(finish + 1e-6)));
        assert_eq!(all_completed.len(), 4);
        assert_eq!(link.active(), 0);
        // And not a moment earlier.
        let mut link2 = mbps(10);
        link2.start(secs(0.0), 300_000);
        link2.start(secs(0.1), 500_000);
        link2.start(secs(0.1), 200_000);
        link2.start(secs(0.7), 1_000_000);
        link2.advance(secs(finish - 0.001));
        assert_eq!(link2.active(), 1, "last transfer still in flight");
    }

    #[test]
    fn zero_byte_transfer_completes_quickly() {
        let mut link = mbps(1);
        let (id, _) = link.start(SimTime::ZERO, 0);
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert!(done.as_nanos() < 1_000_000, "sub-millisecond");
        assert_eq!(link.advance(done), vec![id]);
    }

    #[test]
    fn outage_pauses_progress_and_prediction_accounts_for_it() {
        // 1 MB at 1 MB/s with a full outage over [0.2 s, 0.7 s): the
        // transfer needs 1.0 s of effective time, so it lands at 1.5 s.
        let mut link = mbps(8);
        link.set_capacity_schedule(vec![CapacityWindow {
            start: secs(0.2),
            end: secs(0.7),
            factor: 0.0,
        }]);
        let (id, _) = link.start(SimTime::ZERO, 1_000_000);
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done.as_millis(), 1500);
        // Mid-outage, exactly 0.2 s of bytes have moved.
        link.advance(secs(0.5));
        assert_eq!(link.remaining_bytes(id), Some(800_000));
        assert_eq!(link.advance(done), vec![id]);
    }

    #[test]
    fn bandwidth_collapse_slows_but_does_not_stop() {
        // 1 MB at 1 MB/s; capacity halves over [0 s, 1 s): 0.5 MB moves in
        // the window, the rest at full rate → done at 1.5 s.
        let mut link = mbps(8);
        link.set_capacity_schedule(vec![CapacityWindow {
            start: SimTime::ZERO,
            end: secs(1.0),
            factor: 0.5,
        }]);
        let (id, _) = link.start(SimTime::ZERO, 1_000_000);
        let done = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(done.as_millis(), 1500);
        assert_eq!(link.advance(done), vec![id]);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two identical transfers complete in id order.
        let mut link = mbps(8);
        let (a, _) = link.start(SimTime::ZERO, 100);
        let (b, _) = link.start(SimTime::ZERO, 100);
        let done = link.advance(secs(1.0));
        assert_eq!(done, vec![a, b]);
    }
}
