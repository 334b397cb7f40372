//! Session-level evaluation of a [`SafeAgent`] and the normalized
//! scoring (0 = Random, 1 = Buffer-Based, §3.3) every figure binary
//! shares.

use osa_abr::eval::evaluate_policy;
use osa_abr::policy::{BufferBased, RandomPolicy};
use osa_abr::sim::{AbrConfig, SessionCursor};
use osa_abr::video::VideoModel;
use osa_abr::OBS_DIM;
use osa_nn::tensor::Tensor;
use osa_trace::Trace;

use crate::ensemble::PensieveEnsemble;
use crate::safe_agent::{SafeAgent, SafetyPolicy};
use crate::signal::UncertaintySignal;

/// Everything one trace's streaming session produced: QoE accounting
/// plus the per-decision signal time series the paper's figures plot.
#[derive(Clone, Debug, Default)]
pub struct SessionRun {
    /// Sum of per-chunk linear QoE.
    pub qoe: f64,
    pub rebuffer_s: f64,
    pub bitrate_mbps: f64,
    pub chunks: u64,
    /// Raw signal value at each decision (frozen at the last observed
    /// value while the signal is skipped on a sticky fallback).
    pub raw: Vec<f32>,
    /// k-window variance at each decision.
    pub variance: Vec<f32>,
    /// Decision index at which the agent *first* switched to the
    /// fallback.
    pub switch_index: Option<usize>,
    /// Learned→fallback switches (> 1 only with reverse switching).
    pub switches: usize,
    /// Fallback→learned recoveries (0 without reverse switching).
    pub recoveries: usize,
}

impl SessionRun {
    /// Empty the accounting while keeping the time-series capacity, so
    /// a reused buffer stays allocation-free across sessions.
    fn clear(&mut self) {
        self.qoe = 0.0;
        self.rebuffer_s = 0.0;
        self.bitrate_mbps = 0.0;
        self.chunks = 0;
        self.raw.clear();
        self.variance.clear();
        self.switch_index = None;
        self.switches = 0;
        self.recoveries = 0;
    }
}

/// Stream one trace end to end under `agent` (reset first), recording
/// the signal time series. One 48-chunk session, started at trace
/// time 0 — the same protocol as `osa_abr::evaluate_policy`.
///
/// Allocates a fresh [`SessionRun`] per call; loops that run many
/// sessions (calibration, [`evaluate_safe_agent`]) use
/// [`run_session_into`] with a reused buffer instead.
pub fn run_session<S, P, F>(
    agent: &mut SafeAgent<[f32], S, P, F>,
    video: &VideoModel,
    cfg: &AbrConfig,
    trace: &Trace,
) -> SessionRun
where
    S: UncertaintySignal<[f32]>,
    P: SafetyPolicy<[f32]>,
    F: SafetyPolicy<[f32]>,
{
    let mut out = SessionRun::default();
    run_session_into(agent, video, cfg, trace, &mut out);
    out
}

/// [`run_session`] into a caller-owned buffer, borrowing every input:
/// no `VideoModel`/`Trace` clones, no per-session vector allocations
/// once `out`'s time series have warmed up. The single-session engine
/// is a stack-held [`SessionCursor`], which shares `step_chunk` /
/// `encode_obs` with the batched `MultiSession` path — same bits,
/// none of the per-session setup cost.
pub fn run_session_into<S, P, F>(
    agent: &mut SafeAgent<[f32], S, P, F>,
    video: &VideoModel,
    cfg: &AbrConfig,
    trace: &Trace,
    out: &mut SessionRun,
) where
    S: UncertaintySignal<[f32]>,
    P: SafetyPolicy<[f32]>,
    F: SafetyPolicy<[f32]>,
{
    agent.reset();
    out.clear();
    let mut cur = SessionCursor::new();
    let mut obs = [0.0f32; OBS_DIM];
    while !cur.done(video) {
        cur.encode_obs(video, &mut obs);
        let level = agent.decide(&obs[..]);
        out.raw.push(agent.last_raw());
        out.variance.push(agent.last_variance());
        let o = cur.step(video, cfg, trace, level);
        out.qoe += o.reward;
        out.rebuffer_s += o.rebuffer_s;
        out.bitrate_mbps += video.bitrate_mbps(level);
        out.chunks += 1;
    }
    out.switch_index = agent.switch_index();
    out.switches = agent.switches();
    out.recoveries = agent.recoveries();
}

/// Collect the observation rows the learned policy actually sees while
/// streaming `traces` — the calibration set for
/// [`PensieveEnsemble::calibrate_int8`]. Each trace is streamed end to
/// end under the ensemble's own (f32) decisions, so the recorded
/// distribution matches serving, and the first `max_per_trace`
/// observations of each session are kept. Fully deterministic: same
/// ensemble + traces → bit-identical rows, and therefore bit-identical
/// calibrated activation scales.
pub fn calibration_observations(
    ens: &mut PensieveEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
    max_per_trace: usize,
) -> Tensor {
    assert!(!traces.is_empty(), "calibration needs traces");
    assert!(max_per_trace >= 1, "max_per_trace must be >= 1");
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut obs = [0.0f32; OBS_DIM];
    for trace in traces {
        let mut cur = SessionCursor::new();
        let mut kept = 0usize;
        while !cur.done(video) {
            cur.encode_obs(video, &mut obs);
            if kept < max_per_trace {
                rows.push(obs.to_vec());
                kept += 1;
            }
            let level = ens.act(&obs[..]);
            cur.step(video, cfg, trace, level);
        }
    }
    Tensor::from_rows(&rows)
}

/// Aggregate of a safe agent over a trace set (one session per trace).
#[derive(Clone, Debug)]
pub struct SafeScore {
    /// Mean linear QoE per chunk — comparable to
    /// `osa_abr::PolicyScore::mean_qoe`.
    pub mean_qoe: f64,
    pub mean_rebuffer_s: f64,
    pub sessions: usize,
    pub chunks: u64,
    /// Sessions in which the agent switched to the fallback.
    pub switched_sessions: usize,
    /// Mean switch decision index over the switched sessions.
    pub mean_switch_index: f64,
}

/// Run one session per trace and aggregate.
pub fn evaluate_safe_agent<S, P, F>(
    agent: &mut SafeAgent<[f32], S, P, F>,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> SafeScore
where
    S: UncertaintySignal<[f32]>,
    P: SafetyPolicy<[f32]>,
    F: SafetyPolicy<[f32]>,
{
    assert!(!traces.is_empty(), "evaluate_safe_agent needs traces");
    let (mut qoe, mut rebuf, mut chunks) = (0.0f64, 0.0f64, 0u64);
    let mut switched = 0usize;
    let mut switch_sum = 0.0f64;
    let mut run = SessionRun::default();
    for t in traces {
        run_session_into(agent, video, cfg, t, &mut run);
        qoe += run.qoe;
        rebuf += run.rebuffer_s;
        chunks += run.chunks;
        if let Some(i) = run.switch_index {
            switched += 1;
            switch_sum += i as f64;
        }
    }
    SafeScore {
        mean_qoe: qoe / chunks as f64,
        mean_rebuffer_s: rebuf / traces.len() as f64,
        sessions: traces.len(),
        chunks,
        switched_sessions: switched,
        mean_switch_index: if switched > 0 {
            switch_sum / switched as f64
        } else {
            f64::NAN
        },
    }
}

/// The two QoE anchors of the normalized score.
#[derive(Clone, Copy, Debug)]
pub struct Anchors {
    pub random_qoe: f64,
    pub bb_qoe: f64,
}

/// Evaluate Random and Buffer-Based over `traces` to anchor the
/// normalized scale. Deterministic given `seed` (which only feeds the
/// Random policy).
pub fn anchors(video: &VideoModel, cfg: &AbrConfig, traces: &[Trace], seed: u64) -> Anchors {
    let rnd = evaluate_policy(video, cfg, traces, &mut RandomPolicy, seed);
    let bb = evaluate_policy(video, cfg, traces, &mut BufferBased::default(), seed);
    Anchors {
        random_qoe: rnd.mean_qoe,
        bb_qoe: bb.mean_qoe,
    }
}

/// The §3.3 normalized score: 0 at Random's QoE, 1 at Buffer-Based's.
pub fn normalized(qoe: f64, anchors: &Anchors) -> f64 {
    osa_abr::eval::normalized_score(qoe, anchors.random_qoe, anchors.bb_qoe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use crate::safe_agent::BufferFallback;

    struct Quiet;
    impl UncertaintySignal<[f32]> for Quiet {
        fn name(&self) -> &'static str {
            "quiet"
        }
        fn observe(&mut self, _obs: &[f32]) -> f32 {
            0.0
        }
    }

    fn trace() -> Trace {
        Trace::new("flat", 1.0, vec![3.0; 300])
    }

    #[test]
    fn quiet_safe_agent_reproduces_its_policy_exactly() {
        // With a never-tripping signal and BB on both sides, the safe
        // agent must score exactly like plain BB.
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let mut agent = SafeAgent::new(
            Quiet,
            Monitor::new(5, f32::INFINITY, 3),
            BufferFallback::default(),
            BufferFallback::default(),
        );
        let run = run_session(&mut agent, &video, &cfg, &trace());
        let bb = evaluate_policy(&video, &cfg, &[trace()], &mut BufferBased::default(), 0);
        assert_eq!(run.qoe / run.chunks as f64, bb.mean_qoe);
        assert_eq!(run.switch_index, None);
        assert_eq!(run.raw.len(), run.chunks as usize);
    }

    #[test]
    fn anchors_order_on_steady_links() {
        let video = VideoModel::envivio();
        let cfg = AbrConfig::default();
        let a = anchors(&video, &cfg, &[trace()], 7);
        assert!(a.bb_qoe > a.random_qoe);
        assert_eq!(normalized(a.bb_qoe, &a), 1.0);
        assert_eq!(normalized(a.random_qoe, &a), 0.0);
    }
}
