//! The shared virtual clock that all simulated costs accrue on.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no active lane" in [`Clock::set_active_lane`].
const NO_LANE: usize = usize::MAX;

/// A monotonically advancing virtual clock, in nanoseconds.
///
/// Clones share the same underlying counter, so a single clock can be threaded
/// through devices, file systems, the FUSE layer, and the model checker; the
/// final reading is the total modelled time of the run.
///
/// # Per-thread lanes
///
/// Interleaving exploration needs virtual time to be a function of *what each
/// logical thread has done*, not of the schedule that interleaved them —
/// otherwise two equivalent interleavings fingerprint differently and state
/// matching falls apart. [`Clock::set_active_lane`] opens a per-thread lane:
/// while a lane is active, [`Clock::advance_ns`] charges that lane instead of
/// the shared base, and [`Clock::now_ns`] reads `base + lane` — the active
/// thread's own accumulated cost. With no active lane the clock reads
/// `base + max(lanes)` (all threads have logically finished their charges),
/// which is also schedule-independent: `max` commutes.
///
/// # Examples
///
/// ```
/// use blockdev::Clock;
///
/// let clock = Clock::new();
/// let view = clock.clone();
/// clock.advance_ns(1_500);
/// assert_eq!(view.now_ns(), 1_500);
/// assert!((view.now_secs() - 1.5e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    ns: Arc<AtomicU64>,
    /// Per-thread virtual-time lanes (empty outside interleaved runs).
    lanes: Arc<Mutex<Vec<u64>>>,
    /// The largest lane charge, raised under the `lanes` lock: lanes only
    /// grow until [`Clock::reset`], so a read with no active lane needs
    /// only atomics.
    max_lane: Arc<AtomicU64>,
    /// Index of the lane charged by `advance_ns`; `NO_LANE` = shared base.
    active: Arc<AtomicUsize>,
}

impl Clock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        let c = Clock::default();
        c.active.store(NO_LANE, Ordering::Relaxed);
        c
    }

    /// Returns the current virtual time in nanoseconds: the shared base plus
    /// the active lane's charge (or the maximum lane when none is active).
    pub fn now_ns(&self) -> u64 {
        let base = self.ns.load(Ordering::Relaxed);
        let lane = match self.active.load(Ordering::Relaxed) {
            NO_LANE => self.max_lane.load(Ordering::Relaxed),
            idx => self
                .lanes
                .lock()
                .expect("clock lanes poisoned")
                .get(idx)
                .copied()
                .unwrap_or(0),
        };
        base.saturating_add(lane)
    }

    /// Returns the current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by `delta` nanoseconds, charged to the active
    /// per-thread lane if one is set (see [`Clock::set_active_lane`]).
    pub fn advance_ns(&self, delta: u64) {
        match self.active.load(Ordering::Relaxed) {
            NO_LANE => {
                self.ns.fetch_add(delta, Ordering::Relaxed);
            }
            idx => {
                let mut lanes = self.lanes.lock().expect("clock lanes poisoned");
                if idx >= lanes.len() {
                    lanes.resize(idx + 1, 0);
                }
                lanes[idx] = lanes[idx].saturating_add(delta);
                self.max_lane.fetch_max(lanes[idx], Ordering::Relaxed);
            }
        }
    }

    /// Advances the clock by `micros` microseconds.
    pub fn advance_us(&self, micros: u64) {
        self.advance_ns(micros.saturating_mul(1_000));
    }

    /// Advances the clock by `millis` milliseconds.
    pub fn advance_ms(&self, millis: u64) {
        self.advance_ns(millis.saturating_mul(1_000_000));
    }

    /// Routes subsequent charges to logical thread `tid`'s lane. All clones
    /// share the routing (there is one device/FS stack per harness).
    pub fn set_active_lane(&self, tid: u16) {
        let idx = tid as usize;
        {
            let mut lanes = self.lanes.lock().expect("clock lanes poisoned");
            if idx >= lanes.len() {
                lanes.resize(idx + 1, 0);
            }
        }
        self.active.store(idx, Ordering::Relaxed);
    }

    /// Returns charge routing to the shared base (sequential behaviour).
    pub fn clear_active_lane(&self) {
        self.active.store(NO_LANE, Ordering::Relaxed);
    }

    /// One thread's accumulated lane charge (0 for an untouched lane).
    pub fn lane_ns(&self, tid: u16) -> u64 {
        self.lanes
            .lock()
            .expect("clock lanes poisoned")
            .get(tid as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Resets the clock (and every lane) to zero. Intended for reusing a
    /// harness between experiment runs.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.active.store(NO_LANE, Ordering::Relaxed);
        let mut lanes = self.lanes.lock().expect("clock lanes poisoned");
        lanes.clear();
        self.max_lane.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_ns(10);
        b.advance_us(1);
        b.advance_ms(1);
        assert_eq!(a.now_ns(), 10 + 1_000 + 1_000_000);
    }

    #[test]
    fn reset_zeroes_all_views() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_ms(5);
        b.reset();
        assert_eq!(a.now_ns(), 0);
    }

    #[test]
    fn now_secs_converts() {
        let c = Clock::new();
        c.advance_ns(2_000_000_000);
        assert!((c.now_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advance_saturates_on_overflowing_units() {
        let c = Clock::new();
        c.advance_ms(u64::MAX); // must not panic
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn lanes_charge_per_thread() {
        let c = Clock::new();
        c.advance_ns(100); // shared base
        c.set_active_lane(0);
        c.advance_ns(30);
        assert_eq!(c.now_ns(), 130, "active thread reads base + own lane");
        c.set_active_lane(1);
        c.advance_ns(50);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.lane_ns(0), 30);
        assert_eq!(c.lane_ns(1), 50);
        c.clear_active_lane();
        assert_eq!(c.now_ns(), 150, "no active lane reads base + max(lanes)");
    }

    #[test]
    fn lane_free_reads_follow_lane_charges_and_reset() {
        let c = Clock::new();
        c.advance_ns(5);
        c.set_active_lane(2);
        c.advance_ns(40);
        c.set_active_lane(0);
        c.advance_ns(70);
        c.clear_active_lane();
        assert_eq!(c.now_ns(), 75, "base + max(lanes) after the lanes clear");
        c.set_active_lane(2);
        c.advance_ns(50);
        c.clear_active_lane();
        assert_eq!(c.now_ns(), 95, "a lane overtaking the maximum raises it");
        c.reset();
        assert_eq!(c.now_ns(), 0, "reset zeroes the lane maximum");
        c.set_active_lane(1);
        c.advance_ns(3);
        c.clear_active_lane();
        assert_eq!(c.now_ns(), 3);
    }

    #[test]
    fn lane_totals_are_schedule_independent() {
        // Two schedules of the same per-thread charges read the same final
        // time: max() commutes, and each thread only sees its own lane.
        let run = |order: &[(u16, u64)]| {
            let c = Clock::new();
            let mut seen = Vec::new();
            for &(tid, ns) in order {
                c.set_active_lane(tid);
                c.advance_ns(ns);
                seen.push(c.now_ns());
            }
            c.clear_active_lane();
            c.now_ns()
        };
        let a = run(&[(0, 10), (0, 10), (1, 7), (1, 7)]);
        let b = run(&[(1, 7), (0, 10), (1, 7), (0, 10)]);
        assert_eq!(a, b);
        assert_eq!(a, 20);
    }
}
