//! The one phase clock: a fixed table of per-phase times that every
//! timed layer, from the search to the serve path, laps into.

use std::time::{Duration, Instant};

/// A timed layer of a scheduling run or a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Attribute sweeps and the CPN-Dominate list (§4.1).
    List,
    /// The initial schedule's placement loop (§4.2).
    Place,
    /// The random-transfer local search (§4.3–4.4).
    Search,
    /// The correctness gate of `Scheduler::run`.
    Validate,
    /// An admitted request's wait for a workspace.
    Queue,
    /// The scheduler call serving a request.
    Schedule,
    /// Rendering a response line.
    Serialize,
    /// Writing a response line.
    Write,
    /// Decoding a request line.
    Parse,
    /// Building a request's DAG and machine.
    Build,
}

impl Phase {
    /// How many phases there are.
    pub const COUNT: usize = 10;

    /// Every phase, in reporting order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::List,
        Phase::Place,
        Phase::Search,
        Phase::Validate,
        Phase::Queue,
        Phase::Schedule,
        Phase::Serialize,
        Phase::Write,
        Phase::Parse,
        Phase::Build,
    ];

    /// The wire name: NDJSON `phase` rows, serve's histograms and
    /// access-log keys.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::List => "list_construction",
            Phase::Place => "initial_schedule",
            Phase::Search => "local_search",
            Phase::Validate => "validate",
            Phase::Queue => "queue",
            Phase::Schedule => "schedule",
            Phase::Serialize => "serialize",
            Phase::Write => "write",
            Phase::Parse => "parse",
            Phase::Build => "build",
        }
    }
}

/// Per-phase time totals and lap counts, plus the last boundary.
///
/// [`Self::start`] sets a boundary; [`Self::lap`] charges the time
/// since the last boundary to a phase and sets a new one. Each is one
/// clock read, so consecutive phases share their boundaries. The
/// clock is `Copy` and holds no heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseClock {
    nanos: [u64; Phase::COUNT],
    laps: [u64; Phase::COUNT],
    last: Option<Instant>,
}

impl PhaseClock {
    /// Set a boundary: the next lap starts now.
    #[inline]
    pub fn start(&mut self) {
        self.last = Some(Instant::now());
    }

    /// Charge the time since the last boundary to `phase` (repeat laps
    /// sum) and set a new boundary. A lap before any start counts with
    /// no time.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some(last) = self.last {
            let dt = u64::try_from(now.duration_since(last).as_nanos()).unwrap_or(u64::MAX);
            self.nanos[phase as usize] = self.nanos[phase as usize].saturating_add(dt);
        }
        self.laps[phase as usize] += 1;
        self.last = Some(now);
    }

    /// How many times `phase` was lapped.
    pub fn laps(&self, phase: Phase) -> u64 {
        self.laps[phase as usize]
    }

    /// Total time charged to `phase`.
    pub fn elapsed(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase as usize])
    }

    /// Whole microseconds charged to `phase`: the one conversion every
    /// reported µs figure goes through.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize] / 1_000
    }

    /// Add another clock's totals and lap counts into this one,
    /// phase by phase; this clock's boundary stays.
    pub fn merge(&mut self, other: &PhaseClock) {
        for p in 0..Phase::COUNT {
            self.nanos[p] = self.nanos[p].saturating_add(other.nanos[p]);
            self.laps[p] += other.laps[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_share_boundaries_and_merge_phase_by_phase() {
        let mut a = PhaseClock::default();
        a.lap(Phase::Parse);
        assert_eq!((a.laps(Phase::Parse), a.micros(Phase::Parse)), (1, 0));
        a.start();
        std::thread::sleep(Duration::from_millis(2));
        a.lap(Phase::List);
        a.lap(Phase::Place);
        assert!(a.elapsed(Phase::List) >= Duration::from_millis(2));
        assert!(a.micros(Phase::List) >= 2_000);
        let mut b = PhaseClock::default();
        b.start();
        b.lap(Phase::List);
        let list = a.elapsed(Phase::List) + b.elapsed(Phase::List);
        a.merge(&b);
        assert_eq!(a.laps(Phase::List), 2);
        assert_eq!(a.laps(Phase::Place), 1);
        assert_eq!(a.elapsed(Phase::List), list);
        assert_eq!(a.laps(Phase::Search), 0);
    }
}
