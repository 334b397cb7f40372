//! Per-video safety outcomes, computed from public fleet state.
//!
//! A video's switch outcome is wrong when an in-distribution video
//! switched to the fallback, or a shifted video never did. Detection
//! delay is the number of chunks from the shift's onset to the first
//! switch, over shifted videos that switched.
//!
//! The fleet tracker reads only `sessions_completed`, the lifetime
//! `switches` counter, whether `tripped_at` is set, the session clock,
//! and each trace's label. It deliberately does not use
//! `FleetTelemetry::mean_first_switch`: under `auto_reset` that field
//! sums the *current* video's first-trip indices (which
//! `FleetMonitors::reset_session` clears at every rollover) and divides
//! by a lifetime count of switched sessions, so it reads near 0 on a
//! fleet where most sessions have switched.

/// Is a trace in distribution, or does it carry a shift starting at a
/// given point of the session clock?
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Label {
    InDistribution,
    /// Shifted from `onset_s` seconds into the session onwards.
    Shifted {
        onset_s: f64,
    },
}

/// Outcome totals over the videos recorded so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Outcomes {
    pub videos: u64,
    pub shifted: u64,
    pub wrong: u64,
    /// Shifted videos that switched.
    pub detected: u64,
    /// Sum of their delays, in chunks.
    pub delay_chunks: u64,
    /// Shifted videos whose first switch came before the shift's onset
    /// (counted with delay 0).
    pub early: u64,
}

impl Outcomes {
    /// Record one finished video. `first_switch` and `onset` are chunk
    /// indices within the video.
    pub fn record(&mut self, label: Label, first_switch: Option<u64>, onset: Option<u64>) {
        self.videos += 1;
        let switched = first_switch.is_some();
        match label {
            Label::InDistribution => {
                if switched {
                    self.wrong += 1;
                }
            }
            Label::Shifted { .. } => {
                self.shifted += 1;
                match first_switch {
                    None => self.wrong += 1,
                    Some(at) => {
                        self.detected += 1;
                        let onset = onset.unwrap_or(0);
                        if at < onset {
                            self.early += 1;
                        }
                        self.delay_chunks += at.saturating_sub(onset);
                    }
                }
            }
        }
    }

    pub fn wrong_switch_share(&self) -> f64 {
        self.wrong as f64 / self.videos.max(1) as f64
    }

    /// Mean detection delay in chunks; `None` when no shifted video
    /// switched.
    pub fn detection_delay_chunks(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.delay_chunks as f64 / self.detected as f64)
    }
}

/// The public per-session state the tracker reads after each round.
pub trait FleetView {
    fn sessions(&self) -> usize;
    fn sessions_completed(&self, i: usize) -> u64;
    /// Lifetime learned→fallback switches.
    fn switches(&self, i: usize) -> usize;
    /// True once the current video has tripped (`tripped_at` is set).
    fn has_tripped(&self, i: usize) -> bool;
    /// Session clock: when the next chunk is requested.
    fn time_s(&self, i: usize) -> f64;
}

impl FleetView for osa_core::FleetEngine {
    fn sessions(&self) -> usize {
        self.len()
    }
    fn sessions_completed(&self, i: usize) -> u64 {
        self.sim().sessions_completed(i)
    }
    fn switches(&self, i: usize) -> usize {
        self.monitors().switches(i)
    }
    fn has_tripped(&self, i: usize) -> bool {
        self.monitors().tripped_at(i).is_some()
    }
    fn time_s(&self, i: usize) -> f64 {
        self.sim().time_s(i)
    }
}

#[derive(Clone, Copy, Debug)]
struct Video {
    label: Label,
    start_round: u64,
    switches_at_start: usize,
    first_switch: Option<u64>,
    onset: Option<u64>,
}

impl Video {
    fn starting(label: Label, start_round: u64, switches_at_start: usize) -> Video {
        // A shift from the session's start is on from chunk 0.
        let onset = match label {
            Label::Shifted { onset_s } if onset_s <= 0.0 => Some(0),
            _ => None,
        };
        Video {
            label,
            start_round,
            switches_at_start,
            first_switch: None,
            onset,
        }
    }
}

/// Follows every session of an `auto_reset` fleet round by round and
/// classifies each video as it finishes. Session `i`'s `v`-th video
/// streams trace `(i + v) mod traces` (the simulator's round-robin
/// rollover), so each video's label is known from public state.
pub struct OutcomeTracker {
    labels: Vec<Label>,
    completed: Vec<u64>,
    videos: Vec<Video>,
    rounds: u64,
    pub outcomes: Outcomes,
}

impl OutcomeTracker {
    /// `labels[j]` labels trace `j`; the fleet must not have taken a
    /// round yet.
    pub fn new(sessions: usize, labels: Vec<Label>) -> OutcomeTracker {
        let videos = (0..sessions)
            .map(|i| Video::starting(labels[i % labels.len()], 0, 0))
            .collect();
        OutcomeTracker {
            labels,
            completed: vec![0; sessions],
            videos,
            rounds: 0,
            outcomes: Outcomes::default(),
        }
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Call once after every round (every session decides one chunk per
    /// round, so chunk index = rounds since the video started).
    pub fn after_round(&mut self, fleet: &impl FleetView) {
        let r = self.rounds;
        self.rounds += 1;
        for i in 0..fleet.sessions() {
            let v = &mut self.videos[i];
            let chunk = r - v.start_round;
            let completed = fleet.sessions_completed(i);
            if completed != self.completed[i] {
                self.completed[i] = completed;
                // A switch this round that the rollover's reset already
                // cleared from `tripped_at` shows in the lifetime count.
                let switched = fleet.switches(i) > v.switches_at_start;
                let first = v.first_switch.or(switched.then_some(chunk));
                self.outcomes.record(v.label, first, v.onset);
                let j = (i as u64 + completed) % self.labels.len() as u64;
                *v = Video::starting(self.labels[j as usize], r + 1, fleet.switches(i));
                continue;
            }
            if v.first_switch.is_none() && fleet.has_tripped(i) {
                v.first_switch = Some(chunk);
            }
            if let Label::Shifted { onset_s } = v.label {
                if v.onset.is_none() && fleet.time_s(i) >= onset_s {
                    // The next chunk is the first requested in the shift.
                    v.onset = Some(chunk + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built fleet: the test drives its public state directly.
    struct Fake {
        completed: Vec<u64>,
        switches: Vec<usize>,
        tripped: Vec<bool>,
        time: Vec<f64>,
    }

    impl FleetView for Fake {
        fn sessions(&self) -> usize {
            self.completed.len()
        }
        fn sessions_completed(&self, i: usize) -> u64 {
            self.completed[i]
        }
        fn switches(&self, i: usize) -> usize {
            self.switches[i]
        }
        fn has_tripped(&self, i: usize) -> bool {
            self.tripped[i]
        }
        fn time_s(&self, i: usize) -> f64 {
            self.time[i]
        }
    }

    const SHIFT: Label = Label::Shifted { onset_s: 10.0 };

    #[test]
    fn three_session_fleet() {
        // Traces: 0 in distribution, 1 shifted at 10 s, 2 in
        // distribution. Session i starts on trace i and rolls to i + 1.
        let labels = vec![Label::InDistribution, SHIFT, Label::InDistribution];
        let mut t = OutcomeTracker::new(3, labels);
        let mut f = Fake {
            completed: vec![0; 3],
            switches: vec![0; 3],
            tripped: vec![false; 3],
            time: vec![0.0; 3],
        };
        // Four-chunk videos, 4 s per chunk on the session clock.
        // Round 0..=3 is every session's first video.
        for r in 0..4u64 {
            for i in 0..3 {
                f.time[i] = 4.0 * (r + 1) as f64;
            }
            // Session 1 (shifted) trips on chunk 3; the shift begins
            // with chunk 3 (first requested at clock 12 s ≥ 10 s).
            if r == 3 {
                f.switches[1] = 1;
                f.tripped[1] = true;
            }
            // Session 2 (in distribution) trips on chunk 1: wrong.
            if r == 1 {
                f.switches[2] = 1;
                f.tripped[2] = true;
            }
            if r == 3 {
                // Rollover: counters stay, trip indices and clocks reset.
                for i in 0..3 {
                    f.completed[i] += 1;
                    f.tripped[i] = false;
                    f.time[i] = 0.0;
                }
            }
            t.after_round(&f);
        }
        let o = t.outcomes;
        assert_eq!((o.videos, o.shifted, o.wrong), (3, 1, 1));
        assert_eq!((o.detected, o.delay_chunks, o.early), (1, 0, 0));
        assert_eq!(o.detection_delay_chunks(), Some(0.0));

        // Second videos: session 0 → trace 1 (shifted) never switches:
        // wrong. Session 1 → trace 2 (in distribution) stays quiet.
        // Session 2 → trace 0 (in distribution) stays quiet, even
        // though its lifetime switch count is 1.
        for r in 0..4u64 {
            for i in 0..3 {
                f.time[i] = 4.0 * (r + 1) as f64;
            }
            if r == 3 {
                for i in 0..3 {
                    f.completed[i] += 1;
                    f.time[i] = 0.0;
                }
            }
            t.after_round(&f);
        }
        let o = t.outcomes;
        assert_eq!((o.videos, o.shifted, o.wrong), (6, 2, 2));
        assert_eq!(o.wrong_switch_share(), 2.0 / 6.0);

        // Third videos: session 2 → trace 1 (shifted) switches on its
        // last chunk (chunk 3, the onset chunk), in the same round as
        // the rollover that clears `tripped_at`: only the lifetime
        // switch count shows it.
        for r in 0..4u64 {
            for i in 0..3 {
                f.time[i] = 4.0 * (r + 1) as f64;
            }
            if r == 3 {
                f.switches[2] = 2;
                for i in 0..3 {
                    f.completed[i] += 1;
                    f.time[i] = 0.0;
                }
            }
            t.after_round(&f);
        }
        let o = t.outcomes;
        assert_eq!((o.videos, o.shifted, o.wrong), (9, 3, 2));
        assert_eq!((o.detected, o.delay_chunks), (2, 0));
    }

    #[test]
    fn three_session_engine() {
        // A real 3-session fleet on hand-built links, guarded by U_V at
        // α = 0 so every session trips once its k-window variance has
        // been positive l times in a row.
        use osa_abr::sim::AbrConfig;
        use osa_abr::video::VideoModel;
        use osa_core::prelude::*;
        use osa_trace::Trace;
        let text = std::fs::read_to_string(osa_bench::osap::ARTIFACT).expect("artifact");
        let ens = PensieveEnsemble::from_json(&text).expect("artifact parses");
        let links = [3.0f32, 1.0, 5.0];
        let traces: Vec<Trace> = links
            .iter()
            .enumerate()
            .map(|(i, &m)| Trace::new(format!("flat{i}"), 1.0, vec![m; 300]))
            .collect();
        let serve = ServeConfig {
            alpha: 0.0,
            auto_reset: true,
            ..ServeConfig::default()
        };
        let video = VideoModel::envivio();
        let chunks = video.chunk_count() as u64;
        let mut fleet = FleetEngine::new(
            ens,
            FleetSignal::ValueDisagreement,
            video,
            AbrConfig::default(),
            traces,
            3,
            &serve,
        );
        let labels = vec![
            Label::InDistribution,
            Label::Shifted { onset_s: 0.0 },
            Label::InDistribution,
        ];
        let mut t = OutcomeTracker::new(3, labels);
        let mut first_trip = [None; 3];
        for _ in 0..chunks {
            fleet.round();
            for (i, f) in first_trip.iter_mut().enumerate() {
                *f = f.or(fleet.monitors().tripped_at(i));
            }
            t.after_round(&fleet);
        }
        assert!((0..3).all(|i| fleet.sim().sessions_completed(i) == 1));
        // Sticky: one decision per chunk, so the monitor's decision
        // index of the trip is its chunk index.
        let trip = first_trip[1].expect("session 1 trips") as u64;
        assert!(first_trip.iter().all(|f| f.is_some()));
        let o = t.outcomes;
        assert_eq!((o.videos, o.shifted, o.wrong, o.detected), (3, 1, 2, 1));
        assert_eq!(o.delay_chunks, trip);
        assert_eq!(o.early, 0);
    }

    #[test]
    fn delay_counts_chunks_from_onset() {
        let mut o = Outcomes::default();
        o.record(SHIFT, Some(7), Some(3));
        o.record(SHIFT, Some(2), Some(3)); // before the onset
        o.record(SHIFT, None, Some(3));
        o.record(Label::InDistribution, None, None);
        assert_eq!((o.videos, o.shifted, o.wrong, o.detected), (4, 3, 1, 2));
        assert_eq!((o.delay_chunks, o.early), (4, 1));
        assert_eq!(o.detection_delay_chunks(), Some(2.0));
        assert_eq!(Outcomes::default().detection_delay_chunks(), None);
    }
}
