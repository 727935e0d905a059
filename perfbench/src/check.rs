//! Output checks against the pure-Rust golden model, and failure
//! accounting. Every check runs outside the timed region.

use room_acoustics::{Precision, ReferenceSim, SimSetup};

/// Tolerance of one comparison, as in the repository's LIFT-vs-reference
/// tests: `|got − want| ≤ tol · (1 + |want|)`.
pub fn tolerance(precision: Precision) -> f64 {
    match precision {
        Precision::Single => 1e-5,
        Precision::Double => 1e-12,
    }
}

/// Whether `got` is within `tol` of `want` (never, when either is NaN).
fn within(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() <= tol * (1.0 + want.abs())
}

/// Indices at which `got` leaves the tolerance around `want` (a length
/// mismatch flags every index past the shorter slice).
pub fn mismatches(got: &[f64], want: &[f64], tol: f64) -> Vec<usize> {
    let mut bad: Vec<usize> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (g, w))| !within(**g, **w, tol))
        .map(|(i, _)| i)
        .collect();
    bad.extend(got.len().min(want.len())..got.len().max(want.len()));
    bad
}

/// The golden model's microphone trace and final field for `steps` steps
/// from an impulse at `source`.
pub fn reference_run(
    setup: &SimSetup,
    precision: Precision,
    source: (usize, usize, usize),
    mic: (usize, usize, usize),
    amp: f64,
    steps: usize,
) -> (Vec<f64>, Vec<f64>, f64) {
    fn go<T: room_acoustics::reference::Real>(
        setup: &SimSetup,
        source: (usize, usize, usize),
        mic: (usize, usize, usize),
        amp: f64,
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let mut rf = ReferenceSim::<T>::new(setup.clone());
        rf.impulse(source.0, source.1, source.2, amp);
        let ir = rf.impulse_response(mic, steps);
        let field = rf.curr.iter().map(|v| v.f64()).collect();
        (ir, field, rf.energy())
    }
    match precision {
        Precision::Single => go::<f32>(setup, source, mic, amp, steps),
        Precision::Double => go::<f64>(setup, source, mic, amp, steps),
    }
}

/// Attempted and failed operations of one run, with the first few
/// reasons kept for the log.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted (steps for a room, jobs for a batch).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why, for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations, never more than were attempted.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed = (self.failed + n).min(self.attempted.max(1));
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    /// failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
