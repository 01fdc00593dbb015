//! Outside-in accounting of one live update: step time per controller
//! phase, the pause, and which requests fell due while it was in flight.
//!
//! The harness calls [`UpdateController::step`](jvolve::UpdateController::step)
//! and, exactly as `UpdateQueue::drain` does, runs one guest pump after
//! every step that leaves the controller in a phase where the guest may
//! run. The **pause** is the longest stretch of consecutive `step` calls
//! with no guest slice between them, timed from the first call's start
//! to the last call's end.

use jvolve::UpdatePhase;

/// Phase buckets the step times are keyed by (the phase *before* each
/// `step` call).
pub const PHASES: [&str; 5] = [
    "pending",
    "safepoint",
    "installing",
    "transforming_heap",
    "lazy",
];

/// Bucket of `phase` in [`PHASES`].
pub fn phase_index(phase: UpdatePhase) -> usize {
    match phase {
        UpdatePhase::Pending => 0,
        UpdatePhase::WaitingForSafePoint => 1,
        UpdatePhase::Installing => 2,
        UpdatePhase::TransformingHeap => 3,
        // Terminal phases take no step that does work; book them with
        // the drain, the only phase that can precede them.
        UpdatePhase::LazyMigrating | UpdatePhase::Committed | UpdatePhase::Aborted => 4,
    }
}

/// Consecutive `step` calls with no guest slice between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stretch {
    /// Start of the first call, ns.
    pub start: u64,
    /// End of the last call, ns.
    pub end: u64,
    /// Time inside the calls, per phase bucket.
    pub phase_ns: [u64; 5],
}

impl Stretch {
    /// Wall time of the stretch, ns.
    pub fn wall(&self) -> u64 {
        self.end - self.start
    }
}

/// Everything measured about one update.
#[derive(Clone, Debug, Default)]
pub struct UpdateRecord {
    /// When the update was due to arrive, ns.
    pub arrival: u64,
    /// When `step` returned `Committed` (or `Aborted`), ns.
    pub commit: u64,
    /// The longest stretch: the pause.
    pub pause: Stretch,
    /// Time inside `step` calls per phase bucket, whole update.
    pub phase_ns: [u64; 5],
    /// `step` calls per phase bucket.
    pub phase_steps: [u64; 5],
    /// Duration of each lazy-drain `step`, ns.
    pub lazy_steps: Vec<u64>,
}

/// Accumulates one update's steps as they happen.
#[derive(Debug)]
pub struct UpdateMeter {
    rec: UpdateRecord,
    open: Option<Stretch>,
}

impl UpdateMeter {
    /// A meter for an update due at `arrival`.
    pub fn new(arrival: u64) -> UpdateMeter {
        UpdateMeter {
            rec: UpdateRecord {
                arrival,
                ..UpdateRecord::default()
            },
            open: None,
        }
    }

    /// Books one `step` call made in `phase`, running from `start` to `end`.
    pub fn step(&mut self, phase: UpdatePhase, start: u64, end: u64) {
        let i = phase_index(phase);
        let took = end - start;
        self.rec.phase_ns[i] += took;
        self.rec.phase_steps[i] += 1;
        if phase == UpdatePhase::LazyMigrating {
            self.rec.lazy_steps.push(took);
        }
        let s = self.open.get_or_insert(Stretch {
            start,
            end: start,
            ..Stretch::default()
        });
        s.end = end;
        s.phase_ns[i] += took;
    }

    /// The guest ran a slice: the open stretch, if any, ends here.
    pub fn guest_ran(&mut self) {
        if let Some(s) = self.open.take() {
            if s.wall() > self.rec.pause.wall() {
                self.rec.pause = s;
            }
        }
    }

    /// Closes the update at `commit`.
    pub fn finish(mut self, commit: u64) -> UpdateRecord {
        self.guest_ran();
        self.rec.commit = commit;
        self.rec
    }
}

/// Splits request latencies into all requests and, per update window
/// `[arrival, commit]`, the requests due inside it. Both `done` (by due
/// time) and `windows` must be sorted.
pub fn split_by_windows(done: &[(u64, u64)], windows: &[(u64, u64)]) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut all = Vec::with_capacity(done.len());
    let mut inside = vec![Vec::new(); windows.len()];
    let mut w = 0;
    for &(due, latency) in done {
        while w < windows.len() && windows[w].1 < due {
            w += 1;
        }
        all.push(latency);
        if w < windows.len() && windows[w].0 <= due {
            inside[w].push(latency);
        }
    }
    (all, inside)
}

#[cfg(test)]
mod tests {
    use super::*;
    use UpdatePhase::*;

    #[test]
    fn eager_pause_is_the_final_poll_through_the_heap_transform() {
        let mut m = UpdateMeter::new(0);
        m.step(Pending, 0, 10);
        m.guest_ran();
        m.step(WaitingForSafePoint, 15, 20); // blocked: one pump follows
        m.guest_ran();
        m.step(WaitingForSafePoint, 25, 30); // safe point found
        m.step(Installing, 31, 81);
        m.step(TransformingHeap, 81, 120);
        let r = m.finish(121);
        assert_eq!(r.pause.wall(), 95);
        assert_eq!(r.pause.phase_ns, [0, 5, 50, 39, 0]);
        assert_eq!(r.phase_ns, [10, 10, 50, 39, 0]);
        assert_eq!(r.phase_steps, [1, 2, 1, 1, 0]);
        assert_eq!((r.arrival, r.commit), (0, 121));
    }

    #[test]
    fn lazy_drain_steps_interleave_with_the_guest_and_are_not_the_pause() {
        let mut m = UpdateMeter::new(100);
        m.step(Pending, 100, 105);
        m.guest_ran();
        m.step(WaitingForSafePoint, 110, 112);
        m.step(Installing, 112, 160);
        m.step(TransformingHeap, 160, 163);
        m.guest_ran();
        for k in 0..4 {
            let t = 200 + 100 * k;
            m.step(LazyMigrating, t, t + 30); // each shorter than the pause
            m.guest_ran();
        }
        let r = m.finish(600);
        assert_eq!(r.pause.wall(), 53);
        assert_eq!(r.pause.phase_ns, [0, 2, 48, 3, 0]);
        assert_eq!(r.lazy_steps, vec![30; 4]);
        assert_eq!(r.phase_ns[4], 120);
    }

    #[test]
    fn a_long_validation_step_is_its_own_stretch() {
        let mut m = UpdateMeter::new(0);
        m.step(Pending, 0, 500);
        m.guest_ran();
        m.step(WaitingForSafePoint, 510, 520);
        m.step(Installing, 520, 530);
        let r = m.finish(531);
        assert_eq!(
            r.pause,
            Stretch {
                start: 0,
                end: 500,
                phase_ns: [500, 0, 0, 0, 0]
            }
        );
    }

    #[test]
    fn requests_are_in_a_window_when_due_between_arrival_and_commit() {
        let done = [
            (5, 1),
            (10, 2),
            (15, 3),
            (20, 4),
            (31, 5),
            (40, 6),
            (55, 7),
            (60, 8),
        ];
        let windows = [(10, 20), (40, 41), (58, 59)];
        let (all, inside) = split_by_windows(&done, &windows);
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(inside, vec![vec![2, 3, 4], vec![6], vec![]]);
    }
}
