//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, recorded from the
//! benchmark's own files around that call: name, start, end, the span
//! that caused it, and the round (fleet) or decision (scalar) it belongs
//! to. Spans stay in memory — up to a fixed archive size, then only the
//! running per-layer totals grow — and are written out when the run
//! ends. A layer's self time is its span's duration minus the part its
//! child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Layer boundaries the traced run records. The metric each one feeds
/// is listed in README.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One replica round (fleet) or one decision iteration (scalar).
    Round,
    /// `MultiSession::fill_observations_range` / `SessionCursor::encode_obs`.
    FillObs,
    /// `StackedNet::forward_into` on the actor.
    ActorForward,
    /// `StackedNet::forward_into` on the critic.
    CriticForward,
    /// `QuantStacked::forward_into`, actor or critic.
    QuantForward,
    /// Softmax → replica mean → argmax, and the U_V trimmed mean.
    EnsembleHead,
    /// `FeatureWindow::push`/`write` plus the batch gather/scatter.
    Feature,
    /// `OcSvm::score_batch_into`.
    ScoreBatch,
    /// `FleetMonitors::{observing, update}`; scalar: `SafeAgent::decide`
    /// (whose self time is the monitor fold).
    MonitorUpdate,
    /// `FleetMonitors::reset_session` and the feature-window reset at
    /// rollover.
    MonitorReset,
    /// `BufferBased::level_for_buffer` (and the learned-action copy).
    FallbackPick,
    /// `MultiSession::step_all`.
    StepAll,
    /// `SessionCursor::step`.
    SessionStep,
    /// `EnsemblePolicy::decide`.
    PolicyDecide,
    /// `UncertaintySignal::observe` for U_S, U_π and U_V.
    SignalUs,
    SignalUpi,
    SignalUv,
    /// Set-up phases (recorded once, outside any round).
    SetupLoad,
    SetupTraces,
    SetupFit,
    SetupCalibrate,
    SetupInt8,
}

pub const NAMES: usize = Name::SetupInt8 as usize + 1;

impl Name {
    /// The layer spans: every name but the root and the set-up phases.
    /// Their self times add up to the round.
    pub const LAYERS: [Name; 16] = [
        Name::FillObs,
        Name::ActorForward,
        Name::CriticForward,
        Name::QuantForward,
        Name::EnsembleHead,
        Name::Feature,
        Name::ScoreBatch,
        Name::MonitorUpdate,
        Name::MonitorReset,
        Name::FallbackPick,
        Name::StepAll,
        Name::SessionStep,
        Name::PolicyDecide,
        Name::SignalUs,
        Name::SignalUpi,
        Name::SignalUv,
    ];

    /// The per-layer metric a layer span's mean self time per round (or
    /// decision) reports as. The signals' metrics are per decision of
    /// their own agent, so the scalar run sets them itself.
    pub fn metric(self) -> Option<&'static str> {
        Some(match self {
            Name::FillObs => "abr.fill_obs_us",
            Name::ActorForward => "nn.actor_forward_us",
            Name::CriticForward => "nn.critic_forward_us",
            Name::QuantForward => "nn.quant_forward_us",
            Name::EnsembleHead => "core.ensemble.head_us",
            Name::Feature => "ocsvm.feature_us",
            Name::ScoreBatch => "ocsvm.score_batch_us",
            Name::MonitorUpdate => "core.monitor.update_us",
            Name::MonitorReset => "core.monitor.reset_us",
            Name::FallbackPick => "abr.fallback_pick_us",
            Name::StepAll => "abr.step_all_us",
            Name::SessionStep => "abr.session_step_us",
            Name::PolicyDecide => "core.ensemble.policy_decide_us",
            _ => return None,
        })
    }

    pub fn label(self) -> &'static str {
        match self {
            Name::Round => "round",
            Name::FillObs => "abr.fill_obs",
            Name::ActorForward => "nn.actor_forward",
            Name::CriticForward => "nn.critic_forward",
            Name::QuantForward => "nn.quant_forward",
            Name::EnsembleHead => "core.ensemble.head",
            Name::Feature => "ocsvm.feature",
            Name::ScoreBatch => "ocsvm.score_batch",
            Name::MonitorUpdate => "core.monitor.update",
            Name::MonitorReset => "core.monitor.reset",
            Name::FallbackPick => "abr.fallback_pick",
            Name::StepAll => "abr.step_all",
            Name::SessionStep => "abr.session_step",
            Name::PolicyDecide => "core.ensemble.policy_decide",
            Name::SignalUs => "core.signal.u_s",
            Name::SignalUpi => "core.signal.u_pi",
            Name::SignalUv => "core.signal.u_v",
            Name::SetupLoad => "core.ensemble.load",
            Name::SetupTraces => "trace.generate",
            Name::SetupFit => "ocsvm.fit",
            Name::SetupCalibrate => "core.calibrate",
            Name::SetupInt8 => "nn.int8_calibrate",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same round, or [`NO_PARENT`].
    pub parent: u32,
    pub round: u32,
}

/// Self time per [`Name`] of a well-nested span list (children recorded
/// after their parent, `parent` indexing into `spans`): each span's
/// duration minus the durations of its direct children. Children of one
/// parent come from one call stack, so they never overlap and the part
/// of the parent they cover is the sum of their durations.
pub fn self_times(spans: &[Span], out: &mut [u64; NAMES]) {
    for s in spans {
        out[s.name as usize] += s.end - s.start;
    }
    for s in spans {
        if s.parent != NO_PARENT {
            let p = spans[s.parent as usize].name;
            out[p as usize] -= s.end - s.start;
        }
    }
}

/// The span recorder: a stack of open spans over an append-only,
/// preallocated buffer (allocation-free while recording).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// First span of the current round.
    round_start: usize,
    round: u32,
    /// Spans kept for the written trace; later rounds only feed totals.
    archive_cap: usize,
    archive_full: bool,
    /// Accumulated self time per name over every finished round.
    pub totals: [u64; NAMES],
    pub rounds: u64,
}

impl Tracer {
    /// A tracer that archives up to `archive_cap` spans and never holds
    /// more than `per_round_cap` of a round beyond that.
    pub fn new(archive_cap: usize, per_round_cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(archive_cap + per_round_cap),
            stack: Vec::with_capacity(16),
            round_start: 0,
            round: 0,
            archive_cap,
            archive_full: false,
            totals: [0; NAMES],
            rounds: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: Name) -> u32 {
        let id = (self.spans.len() - self.round_start) as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            round: self.round,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[self.round_start + id as usize].end = end;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Finish the current round: fold its self times into
    /// [`Tracer::totals`] and keep its spans while the archive has room.
    pub fn end_round(&mut self) {
        assert!(self.stack.is_empty(), "round ended with open spans");
        self_times(&self.spans[self.round_start..], &mut self.totals);
        self.rounds += 1;
        self.round += 1;
        if self.archive_full || self.spans.len() > self.archive_cap {
            self.archive_full = true;
            self.spans.truncate(self.round_start);
        }
        self.round_start = self.spans.len();
    }

    /// Forget the totals (spans already archived stay), e.g. after the
    /// untimed set-up spans have been read.
    pub fn reset_totals(&mut self) {
        self.totals = [0; NAMES];
        self.rounds = 0;
    }

    /// Mean self time per finished round for `name`, in µs.
    pub fn mean_us(&self, name: Name) -> f64 {
        self.totals[name as usize] as f64 / self.rounds.max(1) as f64 / 1e3
    }

    /// Archived spans, in recording order.
    fn spans(&self) -> &[Span] {
        &self.spans[..self.round_start]
    }

    /// Write the archived spans as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "round\tid\tparent\tname\tstart_ns\tend_ns")?;
        let mut first_of_round = 0;
        for (i, s) in self.spans().iter().enumerate() {
            if i == 0 || s.round != self.spans[i - 1].round {
                first_of_round = i;
            }
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.round,
                i - first_of_round,
                parent,
                s.name.label(),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0, 100) ⊃ step [10, 30) and monitor [40, 90); the
        // monitor span has a grandchild fallback [50, 70).
        let spans = [
            span(Name::Round, 0, 100, NO_PARENT),
            span(Name::StepAll, 10, 30, 0),
            span(Name::MonitorUpdate, 40, 90, 0),
            span(Name::FallbackPick, 50, 70, 2),
        ];
        let mut out = [0; NAMES];
        self_times(&spans, &mut out);
        assert_eq!(out[Name::Round as usize], 100 - 20 - 50);
        assert_eq!(out[Name::StepAll as usize], 20);
        assert_eq!(out[Name::MonitorUpdate as usize], 50 - 20);
        assert_eq!(out[Name::FallbackPick as usize], 20);
        // Self times partition the root's interval.
        assert_eq!(out.iter().sum::<u64>(), 100);
    }

    #[test]
    fn repeated_names_accumulate() {
        // Two shards' forwards under one round, both feeding one name.
        let spans = [
            span(Name::Round, 0, 50, NO_PARENT),
            span(Name::ActorForward, 5, 15, 0),
            span(Name::ActorForward, 20, 35, 0),
        ];
        let mut out = [0; NAMES];
        self_times(&spans, &mut out);
        assert_eq!(out[Name::ActorForward as usize], 25);
        assert_eq!(out[Name::Round as usize], 25);
    }

    #[test]
    fn tracer_nests_and_archives_up_to_its_cap() {
        let mut t = Tracer::new(3, 8);
        for _ in 0..3 {
            let root = t.open(Name::Round);
            t.span(Name::StepAll, || std::hint::black_box(0));
            t.close(root);
            t.end_round();
        }
        assert_eq!(t.rounds, 3);
        // Round 0 (2 spans) fits; round 1 overfills the cap of 3 and is
        // dropped, and so is every later round.
        let kept = t.spans();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].name, Name::Round);
        assert_eq!((kept[1].name, kept[1].parent), (Name::StepAll, 0));
        assert!(kept.iter().all(|s| s.start <= s.end && s.round == 0));
        let total = t.totals[Name::Round as usize] + t.totals[Name::StepAll as usize];
        assert!(total > 0);
    }
}
