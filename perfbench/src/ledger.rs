//! The span ledger behind the traced run.
//!
//! Each decorator call opens a span on entry and closes it on return. The
//! ledger keeps, per span name, the call count, the total wall and virtual
//! time, and the *self* time: the total minus the time covered by the
//! span's direct children. Spans of one harness nest strictly (target calls
//! happen inside harness calls), so a stack of open spans is all the
//! bookkeeping needed. Totals are kept in memory and read out at the end.
//!
//! The explorer itself is not a span: the benchmark times the explore call
//! from outside and [`Spans::with_root`] attributes whatever the decorated
//! spans do not cover to the root. Self times telescope, so on both ledgers
//! the self times of all spans plus the root's add up to the run's total
//! exactly ([`Spans::check`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use blockdev::Clock;

/// Index of a registered span name.
pub type SpanId = usize;

/// Accumulated times of one span name, in nanoseconds. Self times are
/// signed so that a nesting error shows up as a negative value instead of
/// wrapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Completed calls.
    pub calls: u64,
    /// Wall time inside the span, children included.
    pub wall_ns: i64,
    /// Wall time not covered by child spans.
    pub self_wall_ns: i64,
    /// Virtual-clock advance inside the span, children included.
    pub virt_ns: i64,
    /// Virtual-clock advance not covered by child spans.
    pub self_virt_ns: i64,
}

impl SpanTotals {
    fn add(&mut self, o: &SpanTotals) {
        self.calls += o.calls;
        self.wall_ns += o.wall_ns;
        self.self_wall_ns += o.self_wall_ns;
        self.virt_ns += o.virt_ns;
        self.self_virt_ns += o.self_virt_ns;
    }
}

struct Open {
    id: SpanId,
    wall0: i64,
    virt0: i64,
    child_wall: i64,
    child_virt: i64,
}

struct Ledger {
    base: Instant,
    clock: Clock,
    names: Vec<String>,
    totals: Vec<SpanTotals>,
    stack: Vec<Open>,
    top_wall: i64,
    top_virt: i64,
}

impl Ledger {
    fn wall(&self) -> i64 {
        i64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 292 years")
    }

    fn virt(&self) -> i64 {
        i64::try_from(self.clock.now_ns()).expect("virtual clock within i64")
    }
}

/// A shared handle to one harness's ledger. The harness decorator, its
/// target decorators and the visited-set decorator of one explorer all
/// record into the same ledger; they run on one thread, so the lock is
/// never contended.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Ledger>>);

impl Tracer {
    /// A ledger reading virtual time from `clock`.
    pub fn new(clock: Clock) -> Self {
        Tracer(Arc::new(Mutex::new(Ledger {
            base: Instant::now(),
            clock,
            names: Vec::new(),
            totals: Vec::new(),
            stack: Vec::new(),
            top_wall: 0,
            top_virt: 0,
        })))
    }

    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.0
            .lock()
            .expect("a traced call panicked while holding the ledger")
    }

    /// Registers (or looks up) the span called `name`.
    pub fn id(&self, name: &str) -> SpanId {
        let mut l = self.lock();
        if let Some(i) = l.names.iter().position(|n| n == name) {
            return i;
        }
        l.names.push(name.to_string());
        l.totals.push(SpanTotals::default());
        l.names.len() - 1
    }

    /// Runs `f` inside span `id`.
    pub fn span<R>(&self, id: SpanId, f: impl FnOnce() -> R) -> R {
        {
            let mut l = self.lock();
            let (wall0, virt0) = (l.wall(), l.virt());
            l.stack.push(Open {
                id,
                wall0,
                virt0,
                child_wall: 0,
                child_virt: 0,
            });
        }
        let out = f();
        let mut l = self.lock();
        let (wall1, virt1) = (l.wall(), l.virt());
        let open = l.stack.pop().expect("span closed without being opened");
        let wall = wall1 - open.wall0;
        let virt = virt1 - open.virt0;
        let t = &mut l.totals[open.id];
        t.calls += 1;
        t.wall_ns += wall;
        t.virt_ns += virt;
        t.self_wall_ns += wall - open.child_wall;
        t.self_virt_ns += virt - open.child_virt;
        match l.stack.last_mut() {
            Some(parent) => {
                parent.child_wall += wall;
                parent.child_virt += virt;
            }
            None => {
                l.top_wall += wall;
                l.top_virt += virt;
            }
        }
        out
    }

    /// Forgets everything recorded so far (harness construction runs
    /// through the decorators too; the ledger covers the explore call).
    pub fn reset(&self) {
        let mut l = self.lock();
        assert!(l.stack.is_empty(), "reset inside an open span");
        l.totals.iter_mut().for_each(|t| *t = SpanTotals::default());
        l.top_wall = 0;
        l.top_virt = 0;
    }

    /// The totals recorded so far.
    pub fn spans(&self) -> Spans {
        let l = self.lock();
        Spans {
            by_name: l
                .names
                .iter()
                .cloned()
                .zip(l.totals.iter().copied())
                .collect(),
            top_wall_ns: l.top_wall,
            top_virt_ns: l.top_virt,
        }
    }
}

/// Read-out of one or more ledgers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spans {
    /// Totals per span name.
    pub by_name: BTreeMap<String, SpanTotals>,
    /// Wall time of spans opened with no enclosing span.
    pub top_wall_ns: i64,
    /// Virtual time of spans opened with no enclosing span.
    pub top_virt_ns: i64,
}

/// Name of the root span: the explorer's own work.
pub const ROOT: &str = "explore";

impl Spans {
    /// Adds another read-out (another worker's ledger, or another
    /// repetition of the same workload).
    pub fn merge(&mut self, other: &Spans) {
        for (name, t) in &other.by_name {
            self.by_name.entry(name.clone()).or_default().add(t);
        }
        self.top_wall_ns += other.top_wall_ns;
        self.top_virt_ns += other.top_virt_ns;
    }

    /// Adds the root span of a run whose total is `wall_ns` of wall time
    /// (thread time: workers × elapsed for a fleet) and `virt_ns` of
    /// virtual time. The root's self time is whatever the recorded spans
    /// do not cover.
    pub fn with_root(mut self, wall_ns: i64, virt_ns: i64) -> Spans {
        let root = SpanTotals {
            calls: 1,
            wall_ns,
            self_wall_ns: wall_ns - self.top_wall_ns,
            virt_ns,
            self_virt_ns: virt_ns - self.top_virt_ns,
        };
        self.by_name.entry(ROOT.to_string()).or_default().add(&root);
        // The root now encloses every other span.
        self.top_wall_ns = wall_ns;
        self.top_virt_ns = virt_ns;
        self
    }

    /// Totals of `name` (zero when the span never ran).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Checks the ledger arithmetic of a read-out that has its root: no
    /// self time is negative, and on each ledger the self times add up to
    /// the root's total.
    ///
    /// # Errors
    ///
    /// A description of the first broken condition.
    pub fn check(&self) -> Result<(), String> {
        for (name, t) in &self.by_name {
            if t.self_wall_ns < 0 || t.self_virt_ns < 0 {
                return Err(format!(
                    "span {name}: negative self time (wall {} ns, virtual {} ns)",
                    t.self_wall_ns, t.self_virt_ns
                ));
            }
        }
        let root = self.get(ROOT);
        let wall: i64 = self.by_name.values().map(|t| t.self_wall_ns).sum();
        let virt: i64 = self.by_name.values().map(|t| t.self_virt_ns).sum();
        if wall != root.wall_ns || virt != root.virt_ns {
            return Err(format!(
                "self times sum to {wall} ns wall / {virt} ns virtual, \
                 run total is {} ns / {} ns",
                root.wall_ns, root.virt_ns
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nested spans where children advance the virtual clock and burn wall
    /// time: the naive sum (every span's total) over-counts, the ledger's
    /// self times must not.
    #[test]
    fn nested_self_times_are_non_negative_and_sum_to_the_total() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        let apply = tracer.id("harness.apply");
        let mount = tracer.id("target.ext2.mount");
        let hash = tracer.id("target.ext2.fingerprint");
        let insert = tracer.id("visited.insert");
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        };

        let start = Instant::now();
        let virt0 = clock.now_ns();
        for _ in 0..50 {
            tracer.span(apply, || {
                clock.advance_ns(7);
                tracer.span(mount, || {
                    clock.advance_ns(1_000);
                    spin(2_000)
                });
                tracer.span(hash, || tracer.span(mount, || clock.advance_ns(3)));
                spin(500)
            });
            tracer.span(insert, || spin(300));
            clock.advance_ns(11); // charged outside every span: the root's
        }
        let wall = i64::try_from(start.elapsed().as_nanos()).unwrap();
        let virt = i64::try_from(clock.now_ns() - virt0).unwrap();
        let spans = tracer.spans().with_root(wall, virt);
        spans.check().expect("ledger arithmetic");

        let naive: i64 = spans
            .by_name
            .iter()
            .filter(|(n, _)| n.as_str() != ROOT)
            .map(|(_, t)| t.virt_ns)
            .sum();
        assert!(naive > virt - 50 * 11, "nested totals double-count");
        assert_eq!(spans.get("harness.apply").calls, 50);
        assert_eq!(spans.get("target.ext2.mount").calls, 100);
        assert_eq!(spans.get("harness.apply").self_virt_ns, 50 * 7);
        assert_eq!(spans.get("target.ext2.fingerprint").self_virt_ns, 0);
        assert_eq!(spans.get("target.ext2.mount").virt_ns, 50 * 1_003);
        assert_eq!(spans.get(ROOT).self_virt_ns, 50 * 11);
        assert!(spans.get(ROOT).self_wall_ns >= 0);
    }

    /// Per-worker ledgers of a fleet merge into one whose root is the
    /// fleet's thread time.
    #[test]
    fn merged_worker_ledgers_balance_against_thread_time() {
        let mut fleet = Spans::default();
        let start = Instant::now();
        let mut virt_total = 0;
        for _ in 0..2 {
            let clock = Clock::new();
            let tracer = Tracer::new(clock.clone());
            let apply = tracer.id("harness.apply");
            let load = tracer.id("target.ext4.load");
            for _ in 0..10 {
                tracer.span(apply, || tracer.span(load, || clock.advance_ns(5)));
            }
            virt_total += i64::try_from(clock.now_ns()).unwrap();
            fleet.merge(&tracer.spans());
        }
        let wall = 2 * i64::try_from(start.elapsed().as_nanos()).unwrap();
        let fleet = fleet.with_root(wall, virt_total);
        fleet.check().expect("fleet ledger");
        assert_eq!(fleet.get("target.ext4.load").calls, 20);
        assert_eq!(fleet.get(ROOT).self_virt_ns, 0);
    }

    #[test]
    fn check_rejects_a_root_shorter_than_its_spans() {
        let tracer = Tracer::new(Clock::new());
        let id = tracer.id("harness.ops");
        tracer.span(id, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let spans = tracer.spans().with_root(1, 0);
        assert!(spans.check().is_err());
    }

    #[test]
    fn reset_drops_construction_spans() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        let id = tracer.id("target.xfs.mount");
        tracer.span(id, || clock.advance_ns(9));
        tracer.reset();
        assert_eq!(
            tracer.spans().get("target.xfs.mount"),
            SpanTotals::default()
        );
        assert_eq!(tracer.spans().top_virt_ns, 0);
    }
}
