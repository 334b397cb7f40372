//! k-window variance smoothing and l-consecutive-exceedance
//! thresholding (§2.5), with optional hysteresis-based reverse
//! switching.
//!
//! Raw signal values are noisy; the paper smooths them by monitoring the
//! *variance of the last k values* and only declares uncertainty when
//! that variance exceeds a calibrated threshold α for l consecutive
//! decisions. Once tripped, a monitor stays tripped — the paper's
//! SafeAgent defaults to the safe policy for the rest of the session
//! (no reverse switching). That sticky behavior is the default here.
//!
//! # One state machine
//!
//! [`FleetMonitors`] holds one variance ring and one small state record
//! per session, and [`FleetMonitors::update`] is the only place a
//! window variance is compared against α. The fleet engine
//! ([`crate::serve`]) keeps one entry per session; a scalar [`Monitor`]
//! is a fleet of one, so the per-stream `SafeAgent` and the fleet share
//! every bit of the trip, recovery and lock logic.
//!
//! # Fail closed
//!
//! A window counts as *quiet* only when `variance <= α` holds, and as
//! an exceedance otherwise — so a NaN variance (a NaN raw value, or
//! `±∞` under the unanchored sample-mean variance, where `∞ − ∞` is
//! NaN) is an exceedance. A stream of non-finite values trips
//! after l decisions like any sustained shift, and while on the fallback
//! a non-finite window resets the quiet streak, so it can never count
//! toward recovery. The monitor never vouches for inputs it cannot
//! measure. Finite streams are unaffected: for them the test is the
//! plain `variance > α`.
//!
//! # Reverse switching
//!
//! The Neural Simplex line of work treats the opposite transition as a
//! first-class event: once the uncertainty signal goes quiet again,
//! control can be handed *back* to the learned policy. A monitor
//! built with a [`ReverseConfig`] keeps folding raw values into its ring
//! while on the fallback and recovers after `quiet_windows` consecutive
//! in-threshold variances (`variance ≤ α`). Oscillation is damped two
//! ways: the quiet streak resets to zero at every trip (so recovery can
//! never happen fewer than `quiet_windows` decisions after a trip), and
//! a re-trip within `retrip_guard` decisions of a recovery *locks* the
//! session onto the fallback until its next reset — a signal that goes
//! loud right after it went quiet has proven its quiet spells are not
//! trustworthy.
//!
//! Determinism: the variance is summed in chronological order over the
//! ring, so a monitor's state is a pure function of the raw value
//! sequence — bit-identical at any pool width by construction.

use crate::serve::ServeConfig;

/// Default window length k for the signal variance.
pub const DEFAULT_K: usize = 5;

/// Sentinel for "no decision index recorded yet" (`u32` indices keep
/// the per-session records compact).
const NO_INDEX: u32 = u32::MAX;

/// Hysteresis parameters for reverse switching (off by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReverseConfig {
    /// Consecutive in-threshold (`variance ≤ α`) decisions required
    /// while on the fallback before control returns to the learned
    /// policy. Must be ≥ 1 (checked when a monitor is built with it).
    pub quiet_windows: usize,
    /// A re-trip at most this many decisions after a recovery locks the
    /// monitor onto the fallback permanently (until `reset`). 0 still
    /// locks on an immediate re-trip, `usize::MAX` locks on any re-trip.
    pub retrip_guard: usize,
}

impl ReverseConfig {
    pub const fn new(quiet_windows: usize, retrip_guard: usize) -> ReverseConfig {
        ReverseConfig {
            quiet_windows,
            retrip_guard,
        }
    }
}

/// The (k, α, l) rule plus anchor and reverse policy every session of
/// a [`FleetMonitors`] shares.
#[derive(Clone, Copy, Debug)]
struct Params {
    k: usize,
    alpha: f32,
    l: usize,
    /// Anchor for the variance: `None` → the window's own sample mean
    /// (pure instability detection); `Some(μ₀)` → the calibrated
    /// in-distribution signal level. Anchoring matters: a sustained
    /// shift can hold the signal at a *constant* elevated value (U_π
    /// saturates like this out of distribution), and the sample-mean
    /// variance of a constant window is 0 — anchored at μ₀ the same
    /// window reads `(v − μ₀)²`.
    anchor: Option<f32>,
    reverse: Option<ReverseConfig>,
}

impl Params {
    /// The one validation site for monitor configuration. Panics if
    /// `k == 0`, `l == 0` or `reverse.quiet_windows == 0`.
    fn new(
        k: usize,
        alpha: f32,
        l: usize,
        anchor: Option<f32>,
        reverse: Option<ReverseConfig>,
    ) -> Params {
        assert!(k >= 1, "variance window k must be >= 1");
        assert!(l >= 1, "consecutive exceedances l must be >= 1");
        if let Some(r) = reverse {
            assert!(r.quiet_windows >= 1, "quiet_windows m must be >= 1");
        }
        Params {
            k,
            alpha,
            l,
            anchor,
            reverse,
        }
    }

    fn reverse_enabled(&self, locked: bool) -> bool {
        self.reverse.is_some() && !locked
    }
}

/// One session's rolling state and lifetime counters.
#[derive(Clone, Copy, Debug)]
struct Session {
    /// Filled ring slots (saturates at k) and the next write position.
    len: u32,
    pos: u32,
    /// Consecutive loud windows while on the learned policy.
    consecutive: u32,
    /// Consecutive quiet windows while on the fallback.
    quiet: u32,
    on_fallback: bool,
    locked: bool,
    tripped_at: u32,
    last_trip: u32,
    last_recovery: u32,
    switches: u32,
    recoveries: u32,
    decisions: u32,
    variance: f32,
}

impl Session {
    const FRESH: Session = Session {
        len: 0,
        pos: 0,
        consecutive: 0,
        quiet: 0,
        on_fallback: false,
        locked: false,
        tripped_at: NO_INDEX,
        last_trip: NO_INDEX,
        last_recovery: NO_INDEX,
        switches: 0,
        recoveries: 0,
        decisions: 0,
        variance: 0.0,
    };
}

/// The monitor state machine for `n` sessions: one k-slot variance ring
/// and one state record per session under a shared (k, α, l) rule.
#[derive(Clone, Debug)]
pub struct FleetMonitors {
    params: Params,
    /// `n × k` variance rings.
    ring: Vec<f32>,
    sessions: Vec<Session>,
}

impl FleetMonitors {
    /// `n` fresh sessions under `cfg`'s (k, α, l), anchor and reverse
    /// policy. Panics on an invalid configuration (see [`Monitor::new`]).
    pub fn new(n: usize, cfg: &ServeConfig) -> FleetMonitors {
        let params = Params::new(cfg.k, cfg.alpha, cfg.l, cfg.anchor, cfg.reverse);
        FleetMonitors::with_params(n, params)
    }

    fn with_params(n: usize, params: Params) -> FleetMonitors {
        FleetMonitors {
            params,
            ring: vec![0.0; n * params.k],
            sessions: vec![Session::FRESH; n],
        }
    }

    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn alpha(&self) -> f32 {
        self.params.alpha
    }

    /// True while session `i`'s next raw value is still consumed: not
    /// on the fallback, or on it with a live chance of recovering. A
    /// sticky (or locked) fallback never observes again.
    pub fn observing(&self, i: usize) -> bool {
        let s = &self.sessions[i];
        !s.on_fallback || self.params.reverse_enabled(s.locked)
    }

    /// Feed session `i` one raw signal value; returns its tripped state
    /// after this decision. Exceedances only count once the window is
    /// full.
    ///
    /// Without reverse switching a tripped session ignores `raw`
    /// entirely (the ring freezes at the trip); with it the ring keeps
    /// rolling so the quiet streak can be measured.
    pub fn update(&mut self, i: usize, raw: f32) -> bool {
        let p = self.params;
        let s = &mut self.sessions[i];
        let index = s.decisions;
        s.decisions += 1;
        if s.on_fallback && !p.reverse_enabled(s.locked) {
            return true;
        }
        let k = p.k;
        let ring = &mut self.ring[i * k..(i + 1) * k];
        ring[s.pos as usize] = raw;
        let pos = (s.pos as usize + 1) % k;
        s.pos = pos as u32;
        if (s.len as usize) < k {
            s.len += 1;
        }
        if (s.len as usize) < k {
            return s.on_fallback;
        }
        s.variance = window_variance(ring, pos, p.anchor);
        // Fail closed: a window is quiet only if its variance is
        // provably within α — a NaN variance compares false, so it
        // counts as loud.
        let quiet = s.variance <= p.alpha;
        if s.on_fallback {
            if quiet {
                s.quiet += 1;
                let m = p.reverse.expect("on-fallback update implies reverse");
                if s.quiet as usize >= m.quiet_windows {
                    s.on_fallback = false;
                    s.recoveries += 1;
                    s.last_recovery = index;
                    s.quiet = 0;
                    s.consecutive = 0;
                }
            } else {
                s.quiet = 0;
            }
        } else if quiet {
            s.consecutive = 0;
        } else {
            s.consecutive += 1;
            if s.consecutive as usize >= p.l {
                // Trip, arming the re-trip lock when this lands inside
                // the guard window of a recovery.
                s.on_fallback = true;
                s.switches += 1;
                if s.tripped_at == NO_INDEX {
                    s.tripped_at = index;
                }
                s.last_trip = index;
                s.consecutive = 0;
                s.quiet = 0;
                if let Some(rev) = p.reverse {
                    if s.last_recovery != NO_INDEX
                        && (index - s.last_recovery) as usize <= rev.retrip_guard
                    {
                        s.locked = true;
                    }
                }
            }
        }
        s.on_fallback
    }

    /// Session boundary (auto-reset rollover): forget session `i`'s
    /// rolling state and trip/recovery *indices*, keep its lifetime
    /// switch/recovery/decision counters — the same split
    /// `MultiSession` makes between per-video state and lifetime
    /// accounting.
    pub fn reset_session(&mut self, i: usize) {
        let k = self.params.k;
        self.ring[i * k..(i + 1) * k].fill(0.0);
        let s = &mut self.sessions[i];
        *s = Session {
            switches: s.switches,
            recoveries: s.recoveries,
            decisions: s.decisions,
            ..Session::FRESH
        };
    }

    pub fn tripped(&self, i: usize) -> bool {
        self.sessions[i].on_fallback
    }

    /// Re-trip lock engaged: session `i` re-tripped within the guard
    /// window of a recovery and now behaves like a sticky monitor.
    pub fn locked(&self, i: usize) -> bool {
        self.sessions[i].locked
    }

    /// Decision index (0-based, counted over the session's lifetime) of
    /// session `i`'s first trip since its last reset.
    pub fn tripped_at(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].tripped_at)
    }

    /// Decision index of session `i`'s most recent trip.
    pub fn last_trip(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].last_trip)
    }

    /// Decision index of session `i`'s most recent recovery.
    pub fn last_recovery(&self, i: usize) -> Option<usize> {
        index_opt(self.sessions[i].last_recovery)
    }

    /// Learned→fallback switches (1 at most per reset without reverse).
    pub fn switches(&self, i: usize) -> usize {
        self.sessions[i].switches as usize
    }

    /// Fallback→learned recoveries (always 0 without reverse).
    pub fn recoveries(&self, i: usize) -> usize {
        self.sessions[i].recoveries as usize
    }

    /// Updates consumed so far.
    pub fn decisions(&self, i: usize) -> usize {
        self.sessions[i].decisions as usize
    }

    /// The smoothed value compared against α at session `i`'s last
    /// update (0 until the window fills).
    pub fn variance(&self, i: usize) -> f32 {
        self.sessions[i].variance
    }
}

/// Variance of a full ring about `anchor` (or the window's own sample
/// mean when unanchored), summed oldest-first from `pos` so the ring
/// phase never changes the bits.
fn window_variance(ring: &[f32], pos: usize, anchor: Option<f32>) -> f32 {
    let k = ring.len();
    let n = k as f32;
    let mean = match anchor {
        Some(mu) => mu,
        None => {
            let mut sum = 0.0f32;
            for j in 0..k {
                sum += ring[(pos + j) % k];
            }
            sum / n
        }
    };
    let mut var = 0.0f32;
    for j in 0..k {
        let d = ring[(pos + j) % k] - mean;
        var += d * d;
    }
    var / n
}

fn index_opt(v: u32) -> Option<usize> {
    if v == NO_INDEX {
        None
    } else {
        Some(v as usize)
    }
}

/// One stream's monitor: a [`FleetMonitors`] of one session. Unlike a
/// fleet session's rollover, [`Monitor::reset`] also zeroes the
/// lifetime counters — a scalar monitor's counters describe one
/// session.
#[derive(Clone, Debug)]
pub struct Monitor(FleetMonitors);

impl Monitor {
    /// Sticky monitor (the paper's behavior: no reverse switching).
    /// Panics if `k == 0` or `l == 0`.
    pub fn new(k: usize, alpha: f32, l: usize) -> Monitor {
        Monitor(FleetMonitors::with_params(
            1,
            Params::new(k, alpha, l, None, None),
        ))
    }

    /// Monitor with hysteresis-based reverse switching enabled. Panics
    /// additionally if `reverse.quiet_windows == 0`.
    pub fn with_reverse(k: usize, alpha: f32, l: usize, reverse: ReverseConfig) -> Monitor {
        Monitor(FleetMonitors::with_params(
            1,
            Params::new(k, alpha, l, None, Some(reverse)),
        ))
    }

    fn params(&self) -> &Params {
        &self.0.params
    }

    /// Replace the threshold (used once by calibration). Resets all
    /// rolling state: a threshold chosen *after* watching a stretch of
    /// traffic must not inherit that stretch's exceedance streak.
    pub fn set_alpha(&mut self, alpha: f32) {
        self.0.params.alpha = alpha;
        self.reset();
    }

    pub fn alpha(&self) -> f32 {
        self.params().alpha
    }

    /// Anchor the variance at the calibrated in-distribution level
    /// (used once by calibration); `None` restores sample-mean variance.
    /// Resets all rolling state — ring contents measured under the old
    /// anchor are meaningless under the new one.
    pub fn set_anchor(&mut self, anchor: Option<f32>) {
        self.0.params.anchor = anchor;
        self.reset();
    }

    pub fn anchor(&self) -> Option<f32> {
        self.params().anchor
    }

    /// Enable (`Some`) or disable (`None`) reverse switching. Resets
    /// all rolling state, like the other calibration setters.
    pub fn set_reverse(&mut self, reverse: Option<ReverseConfig>) {
        let p = *self.params();
        self.0.params = Params::new(p.k, p.alpha, p.l, p.anchor, reverse);
        self.reset();
    }

    pub fn reverse(&self) -> Option<ReverseConfig> {
        self.params().reverse
    }

    pub fn k(&self) -> usize {
        self.params().k
    }

    pub fn l(&self) -> usize {
        self.params().l
    }

    /// Forget all state (session boundary), lifetime counters included;
    /// keeps (k, α, l), the anchor, and the reverse configuration.
    pub fn reset(&mut self) {
        self.0.ring.fill(0.0);
        self.0.sessions[0] = Session::FRESH;
    }

    /// Feed one raw signal value; returns the tripped state after this
    /// decision (see [`FleetMonitors::update`]).
    pub fn update(&mut self, raw: f32) -> bool {
        self.0.update(0, raw)
    }

    /// The smoothed value compared against α at the last update (0 until
    /// the window fills).
    pub fn variance(&self) -> f32 {
        self.0.variance(0)
    }

    /// Currently acting through the fallback. Sticky monitors stay
    /// tripped forever; reverse monitors may clear this on recovery.
    pub fn tripped(&self) -> bool {
        self.0.tripped(0)
    }

    /// True while this update's raw value is still being consumed (see
    /// [`FleetMonitors::observing`]).
    pub fn observing(&self) -> bool {
        self.0.observing(0)
    }

    /// Decision index (0-based) at which the monitor *first* tripped.
    pub fn tripped_at(&self) -> Option<usize> {
        self.0.tripped_at(0)
    }

    /// Decision index of the most recent trip (equals
    /// [`Monitor::tripped_at`] unless the monitor recovered in between).
    pub fn last_trip(&self) -> Option<usize> {
        self.0.last_trip(0)
    }

    /// Decision index of the most recent recovery to the learned policy.
    pub fn last_recovery(&self) -> Option<usize> {
        self.0.last_recovery(0)
    }

    /// Learned→fallback switches so far (1 at most without reverse).
    pub fn switches(&self) -> usize {
        self.0.switches(0)
    }

    /// Fallback→learned recoveries so far (always 0 without reverse).
    pub fn recoveries(&self) -> usize {
        self.0.recoveries(0)
    }

    /// Re-trip lock engaged (see [`FleetMonitors::locked`]).
    pub fn locked(&self) -> bool {
        self.0.locked(0)
    }

    /// Updates consumed so far.
    pub fn decisions(&self) -> usize {
        self.0.decisions(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consecutive(m: &Monitor) -> usize {
        m.0.sessions[0].consecutive as usize
    }

    #[test]
    fn trips_only_after_l_consecutive_exceedances() {
        // A single spike stays inside the k = 3 window for exactly 3
        // updates, so l = 4 separates "one transient" from "sustained".
        let mut m = Monitor::new(3, 0.1, 4);
        // Constant values: variance 0, never trips.
        for _ in 0..5 {
            assert!(!m.update(1.0));
        }
        // One spike → 3 consecutive exceedances while it traverses the
        // window, then calm: the counter must reset without tripping.
        assert!(!m.update(5.0));
        assert_eq!(consecutive(&m), 1);
        for _ in 0..2 {
            assert!(!m.update(1.0));
        }
        assert_eq!(consecutive(&m), 3);
        assert!(!m.update(1.0));
        assert_eq!(consecutive(&m), 0);
        assert!(!m.tripped());
        // Sustained noise keeps the variance up for l = 4 consecutive
        // decisions → trip, and stay tripped.
        m.update(9.0);
        m.update(1.0);
        m.update(9.0);
        let tripped = m.update(1.0);
        assert!(tripped);
        let at = m.tripped_at().unwrap();
        assert!(m.update(1.0));
        assert_eq!(m.tripped_at(), Some(at), "trip index is sticky");
        assert_eq!(m.switches(), 1);
        assert_eq!(m.recoveries(), 0);
    }

    #[test]
    fn variance_matches_direct_computation() {
        let mut m = Monitor::new(4, f32::INFINITY, 1);
        let vals = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for &v in &vals {
            m.update(v);
        }
        // Last 4 values: 5, 5, 7, 9 → mean 6.5, var (2.25+2.25+.25+6.25)/4.
        assert!((m.variance() - 11.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_trip_state() {
        let mut m = Monitor::new(2, 0.0, 1);
        m.update(0.0);
        m.update(10.0);
        assert!(m.tripped());
        m.reset();
        assert!(!m.tripped());
        assert_eq!(m.decisions(), 0);
    }

    /// The calibration footgun: exceedances counted under the throwaway
    /// pre-calibration threshold must not survive `set_alpha` — a
    /// monitor calibrated mid-stream would otherwise trip up to l − 1
    /// decisions early.
    #[test]
    fn set_alpha_discards_stale_rolling_state() {
        let mut m = Monitor::new(2, 0.0, 3);
        // α = 0: every full window exceeds, driving consecutive to l − 1.
        m.update(1.0);
        m.update(5.0);
        m.update(1.0);
        assert_eq!(consecutive(&m), 2);
        m.set_alpha(0.5);
        assert_eq!(consecutive(&m), 0, "set_alpha must reset the streak");
        assert_eq!(m.decisions(), 0);
        // One post-calibration exceedance is not l consecutive ones.
        m.update(0.0);
        assert!(!m.update(10.0), "stale streak would have tripped here");
        assert_eq!(consecutive(&m), 1);
        // l genuine consecutive exceedances still trip.
        assert!(!m.update(0.0));
        assert!(m.update(10.0));
        assert!(m.tripped());
    }

    #[test]
    fn set_anchor_discards_stale_rolling_state() {
        let mut m = Monitor::new(2, 0.1, 1);
        m.update(3.0);
        m.update(3.0);
        assert!(m.variance() < 0.1);
        m.set_anchor(Some(0.0));
        assert_eq!(m.decisions(), 0);
        assert_eq!(m.variance(), 0.0, "old-anchor variance must not leak");
        // The ring was cleared: the anchored variance sees only fresh
        // values, not the pre-anchor 3.0s.
        m.update(0.0);
        assert!(!m.update(0.0));
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn reverse_recovers_after_quiet_windows_and_counts_switches() {
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(3, 0));
        m.update(0.0);
        assert!(m.update(9.0)); // trip: window (0, 9) is loud
        assert_eq!(m.switches(), 1);
        assert!(m.observing(), "reverse monitors keep observing");
        // Constant from here on → every window (9, 9) is quiet; recovery
        // needs 3 consecutive ones.
        assert!(m.update(9.0)); // quiet 1
        assert!(m.update(9.0)); // quiet 2
        assert!(!m.update(9.0), "third quiet window recovers");
        assert_eq!(m.recoveries(), 1);
        assert!(m.last_recovery().is_some());
        assert!(!m.tripped());
    }

    #[test]
    fn never_recovers_within_m_windows_of_a_trip() {
        let m_windows = 4;
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(m_windows, 0));
        m.update(0.0);
        m.update(9.0); // trip at index 1
        let trip = m.last_trip().unwrap();
        // Perfectly quiet from here on — recovery still takes m updates.
        let mut steps = 0;
        while m.tripped() {
            m.update(9.0);
            steps += 1;
            assert!(steps <= 16, "never recovered");
        }
        let rec = m.last_recovery().unwrap();
        assert!(
            rec - trip >= m_windows,
            "recovered {} decisions after the trip (m = {m_windows})",
            rec - trip
        );
    }

    #[test]
    fn retrip_inside_guard_locks_onto_fallback() {
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(1, 8));
        m.update(0.0);
        m.update(9.0); // switch 1
        assert!(!m.update(9.0)); // window (9, 9) is quiet → recovers (m = 1)
        assert!(!m.tripped());
        assert_eq!(m.recoveries(), 1);
        // Immediately loud again → second switch, inside the guard → lock.
        assert!(m.update(0.0));
        assert_eq!(m.switches(), 2, "re-trip recorded as a second switch");
        assert!(m.locked());
        assert!(!m.observing());
        // Locked = sticky: quiet forever, never recovers.
        for _ in 0..32 {
            assert!(m.update(0.0));
        }
        assert_eq!(m.recoveries(), 1);
        // Reset clears the lock.
        m.reset();
        assert!(!m.locked());
        assert!(!m.tripped());
    }

    #[test]
    fn sticky_monitor_freezes_ring_after_trip() {
        // The reverse-off ring freeze is what keeps fig1–fig5 byte-
        // identical: post-trip raw values must not touch the variance.
        let mut m = Monitor::new(2, 0.5, 1);
        m.update(0.0);
        m.update(9.0);
        assert!(m.tripped());
        let frozen = m.variance();
        m.update(1234.5);
        assert_eq!(m.variance().to_bits(), frozen.to_bits());
        assert!(!m.observing());
    }

    /// Every non-finite stream trips after l full windows, sticky and
    /// reverse alike, under both variance modes.
    #[test]
    fn non_finite_streams_fail_closed() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for anchor in [None, Some(0.0)] {
                for reverse in [None, Some(ReverseConfig::new(3, 0))] {
                    let mut m = Monitor::new(5, 0.01, 3);
                    m.set_anchor(anchor);
                    m.set_reverse(reverse);
                    let mut trip = None;
                    for d in 0..16 {
                        if m.update(bad) && trip.is_none() {
                            trip = Some(d);
                        }
                    }
                    let label = format!("raw {bad}, anchor {anchor:?}, reverse {reverse:?}");
                    // Window full at decision 4, third loud window at 6.
                    assert_eq!(trip, Some(6), "{label}");
                    assert!(m.tripped(), "{label}: must stay on the fallback");
                    assert_eq!(m.recoveries(), 0, "{label}");
                }
            }
        }
    }

    /// A NaN window on the fallback is never quiet: the streak resets,
    /// and only finite quiet windows count toward recovery.
    #[test]
    fn nan_on_the_fallback_never_recovers() {
        let mut m = Monitor::with_reverse(2, 0.5, 1, ReverseConfig::new(3, 0));
        m.update(0.0);
        assert!(m.update(9.0), "finite spike trips");
        for _ in 0..64 {
            assert!(m.update(f32::NAN), "NaN must not hand control back");
        }
        assert_eq!(m.recoveries(), 0);
        // Once the NaN has left the window, quiet finite values recover
        // after the usual m windows.
        m.update(1.0);
        m.update(1.0);
        m.update(1.0);
        assert!(!m.update(1.0), "quiet finite windows recover");
        assert_eq!(m.recoveries(), 1);
    }

    /// One session poisoned with NaN trips; its neighbours keep the
    /// exact bits of a clean run.
    #[test]
    fn poisoned_session_trips_without_touching_its_neighbours() {
        let cfg = ServeConfig {
            k: 3,
            alpha: 0.4,
            l: 2,
            reverse: Some(ReverseConfig::new(2, 3)),
            ..ServeConfig::default()
        };
        let (n, poisoned) = (8, 3);
        let mut clean = FleetMonitors::new(n, &cfg);
        let mut dirty = FleetMonitors::new(n, &cfg);
        // One decision for session `i`, and the state it leaves behind.
        let step = |mon: &mut FleetMonitors, i: usize, raw: f32| {
            if mon.observing(i) {
                mon.update(i, raw);
            }
            let bits = mon.variance(i).to_bits();
            (bits, mon.tripped(i), mon.switches(i), mon.recoveries(i))
        };
        for d in 0..40 {
            for i in 0..n {
                // Bursty per-session streams that trip and recover.
                let raw = if (d + 3 * i) % 11 < 2 { 6.0 } else { 0.1 };
                let want = step(&mut clean, i, raw);
                if i == poisoned {
                    step(&mut dirty, i, if d >= 5 { f32::NAN } else { raw });
                } else {
                    assert_eq!(step(&mut dirty, i, raw), want, "session {i} moved at {d}");
                }
            }
        }
        for i in (0..n).filter(|&i| i != poisoned) {
            assert_eq!(clean.last_trip(i), dirty.last_trip(i));
            assert_eq!(clean.last_recovery(i), dirty.last_recovery(i));
        }
        assert!(dirty.tripped(poisoned), "the poisoned session trips");
        assert!(
            dirty.last_recovery(poisoned).is_none_or(|r| r < 5),
            "no recovery after the poison"
        );
        assert!(clean.recoveries(poisoned) > 0, "the clean run recovers");
    }

    #[test]
    fn session_reset_keeps_lifetime_counters() {
        let cfg = ServeConfig {
            k: 2,
            alpha: 0.1,
            l: 1,
            ..ServeConfig::default()
        };
        let mut m = FleetMonitors::new(1, &cfg);
        m.update(0, 0.0);
        assert!(m.update(0, 9.0));
        assert_eq!(m.switches(0), 1);
        m.reset_session(0);
        assert!(!m.tripped(0));
        assert_eq!(m.tripped_at(0), None);
        assert_eq!(m.switches(0), 1, "lifetime switch count survives");
        assert_eq!(m.decisions(0), 2, "lifetime decision count survives");
    }

    #[test]
    #[should_panic(expected = "quiet_windows")]
    fn zero_quiet_windows_is_rejected() {
        let cfg = ServeConfig {
            reverse: Some(ReverseConfig::new(0, 0)),
            ..ServeConfig::default()
        };
        FleetMonitors::new(1, &cfg);
    }
}
