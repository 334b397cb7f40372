//! `scalar_guarded_eval`: the per-stream `SafeAgent` path. Each of 720
//! fresh Norway sessions and 360 Belgium sessions streams end to end
//! under each of the three calibrated agents (U_S, U_π, U_V), as the
//! figure harness does, with one `SafeAgent::decide` timed per call by
//! the benchmark's own session loop over `SessionCursor`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use osa_abr::sim::{AbrConfig, SessionCursor};
use osa_abr::video::VideoModel;
use osa_abr::{NUM_BITRATES, OBS_DIM};
use osa_bench::counting_alloc;
use osa_bench::osap::{self, DynSignal, DynSignalAgent};
use osa_core::prelude::*;
use osa_trace::{Dataset, Trace};

use crate::outcome::{Label, Outcomes};
use crate::report::Report;
use crate::setup::{self, Phases, SETUP_REPEATS};
use crate::span::{Name, Tracer};
use crate::stats::{HistBlocks, MIN_SAMPLES};

/// Fresh in-distribution Norway sessions drawn from the workload seed
/// (the test split's distribution; enough that the outcome window's
/// QoE moves by about 1% from one seed to the next).
const NORWAY_SESSIONS: usize = 720;
/// Belgium 4G sessions drawn from the workload seed (shifted from the
/// first chunk on).
const BELGIUM_SESSIONS: usize = 360;
/// Separates the Belgium sessions from the Norway corpus's stream.
const BELGIUM_SALT: u64 = 0x5CA1_AB1E;
/// Per-call timings at or above this many ns (about ten times a
/// decision) go to the histograms' overflow.
const HIST_CAP_NS: u64 = 128_000;

struct Rig {
    ens: SharedEnsemble,
    svm: osa_ocsvm::OcSvm,
    agents: Vec<(&'static str, DynSignalAgent)>,
    sessions: Vec<(Trace, Label)>,
    video: VideoModel,
    cfg: AbrConfig,
}

/// The evaluation sessions, two Norway sessions to every Belgium one
/// throughout, so any stretch of the run carries the same mix (a
/// shifted session trips early and then costs only fallback picks).
fn eval_sessions(seed: u64) -> Vec<(Trace, Label)> {
    let norway = Dataset::Norway.generate(NORWAY_SESSIONS, osap::CORPUS_LEN, seed);
    let belgium =
        Dataset::Belgium.generate(BELGIUM_SESSIONS, osap::CORPUS_LEN, seed ^ BELGIUM_SALT);
    let per_belgium = NORWAY_SESSIONS / BELGIUM_SESSIONS;
    let mut norway = norway.into_iter();
    let mut sessions = Vec::with_capacity(NORWAY_SESSIONS + BELGIUM_SESSIONS);
    for b in belgium {
        sessions.extend(
            norway
                .by_ref()
                .take(per_belgium)
                .map(|t| (t, Label::InDistribution)),
        );
        sessions.push((b, Label::Shifted { onset_s: 0.0 }));
    }
    sessions.extend(norway.map(|t| (t, Label::InDistribution)));
    sessions
}

fn setup(seed: u64, ph: &mut Phases) -> Rig {
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = ph.time(Name::SetupLoad, || {
        shared(setup::parse_ensemble(&setup::artifact_text()))
    });
    let split = ph.time(Name::SetupTraces, osap::corpus);
    let sessions = ph.time(Name::SetupTraces, || eval_sessions(seed));
    let svm = ph.time(Name::SetupFit, || {
        osap::fit_us_svm(&ens, &video, &cfg, &split.train)
    });
    let agents = ph.time(Name::SetupCalibrate, || {
        osap::calibrated_signal_agents(
            &ens,
            svm.clone(),
            &video,
            &cfg,
            &split.validation,
            DEFAULT_MARGIN,
        )
    });
    let agents = agents.into_iter().map(|(n, a, _)| (n, a)).collect();
    Rig {
        ens,
        svm,
        agents,
        sessions,
        video,
        cfg,
    }
}

/// One session's accounting from the benchmark's own loop.
#[derive(Default)]
struct Streamed {
    qoe: f64,
    chunks: u64,
    switch_index: Option<usize>,
    failed: u64,
}

/// Stream one session under `agent`, timing each `decide` call.
fn stream_timed(
    agent: &mut DynSignalAgent,
    video: &VideoModel,
    cfg: &AbrConfig,
    trace: &Trace,
    hist: &mut HistBlocks,
    allocs: &mut u64,
) -> Streamed {
    agent.reset();
    let mut out = Streamed::default();
    let mut cur = SessionCursor::new();
    let mut obs = [0.0f32; OBS_DIM];
    while !cur.done(video) {
        cur.encode_obs(video, &mut obs);
        let a0 = counting_alloc::allocations();
        let start = Instant::now();
        let level = agent.decide(&obs[..]);
        let ns = start.elapsed().as_nanos() as u64;
        *allocs += counting_alloc::allocations() - a0;
        hist.record(ns);
        if level >= NUM_BITRATES
            || !agent.last_variance().is_finite()
            || !agent.last_raw().is_finite()
        {
            out.failed += 1;
            break;
        }
        let o = cur.step(video, cfg, trace, level);
        out.qoe += o.reward;
        out.chunks += 1;
    }
    out.switch_index = agent.switch_index();
    out
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Rig> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        let mut rig = setup(seed, &mut Phases::new());
        // Warm-up: one session per agent.
        let mut h = HistBlocks::new(HIST_CAP_NS);
        for (_, agent) in &mut rig.agents {
            let (video, cfg) = (&rig.video, &rig.cfg);
            stream_timed(agent, video, cfg, &rig.sessions[0].0, &mut h, &mut 0);
        }
        setups.push(start.elapsed().as_secs_f64());
        kept = Some(rig);
    }
    let mut rig = kept.expect("at least one set-up");

    let mut hist = HistBlocks::new(HIST_CAP_NS);
    let (mut allocs, mut failed, mut attempted) = (0u64, 0u64, 0u64);
    let (mut qoe, mut chunks) = (0.0f64, 0u64);
    let mut outcomes = Outcomes::default();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut pass = 0;
    'run: loop {
        // Session-major, so every timing block carries the same
        // mix of the three agents.
        for (trace, label) in &rig.sessions {
            for (_, agent) in &mut rig.agents {
                let s = stream_timed(agent, &rig.video, &rig.cfg, trace, &mut hist, &mut allocs);
                attempted += s.chunks + s.failed;
                failed += s.failed;
                if failed > 0 {
                    break 'run;
                }
                if pass == 0 {
                    qoe += s.qoe;
                    chunks += s.chunks;
                    outcomes.record(*label, s.switch_index.map(|i| i as u64), Some(0));
                }
            }
            if pass > 0 && t0.elapsed() >= budget && hist.len() >= MIN_SAMPLES {
                break 'run;
            }
            hist.tick();
        }
        pass += 1;
    }
    let decisions = hist.len() as f64;
    let mut r = Report::new(false, attempted, failed);
    r.note(format!(
        "{pass}+ passes of {} sessions × 3 agents",
        rig.sessions.len()
    ));
    r.timings(&hist.timing(), 1.0, "decide calls");
    let qoe_per_chunk = qoe / chunks.max(1) as f64;
    r.quality(
        &mut setups,
        qoe_per_chunk,
        &outcomes,
        allocs as f64 / decisions,
    );
    r
}

type SharedTracer = Rc<RefCell<Tracer>>;

/// Timing adapter: implements `UncertaintySignal` and `SafetyPolicy`
/// around the wrapped signal or policy, recording one span per call,
/// so `SafeAgent::decide` runs unmodified.
struct Timed<T> {
    inner: T,
    name: Name,
    tracer: SharedTracer,
    calls: Rc<Cell<u64>>,
}

impl<T> Timed<T> {
    fn new(inner: T, name: Name, tracer: &SharedTracer) -> Timed<T> {
        Timed {
            inner,
            name,
            tracer: tracer.clone(),
            calls: Rc::new(Cell::new(0)),
        }
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let id = self.tracer.borrow_mut().open(self.name);
        let r = f(&mut self.inner);
        self.tracer.borrow_mut().close(id);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

impl<S: UncertaintySignal<[f32]>> UncertaintySignal<[f32]> for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.call(|s| s.observe(obs))
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

impl<P: SafetyPolicy<[f32]>> SafetyPolicy<[f32]> for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn decide(&mut self, obs: &[f32]) -> usize {
        self.call(|p| p.decide(obs))
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

type TimedAgent = SafeAgent<[f32], Timed<DynSignal>, Timed<EnsemblePolicy>, Timed<BufferFallback>>;

/// Call counts of one traced agent's adapters.
struct Calls {
    signal: Rc<Cell<u64>>,
    fallback: Rc<Cell<u64>>,
}

/// The traced twin of a calibrated agent: a fresh signal of the same
/// kind over the same ensemble and detector, the calibrated monitor,
/// every piece behind a timing adapter.
fn timed_agent(
    rig: &Rig,
    name: &str,
    agent: &DynSignalAgent,
    t: &SharedTracer,
) -> (TimedAgent, Calls) {
    let (signal, span): (DynSignal, Name) = match name {
        "u_s" => (
            Box::new(NoveltySignal::new(rig.svm.clone())),
            Name::SignalUs,
        ),
        "u_pi" => (
            Box::new(PolicyDisagreement::new(rig.ens.clone())),
            Name::SignalUpi,
        ),
        "u_v" => (
            Box::new(ValueDisagreement::new(rig.ens.clone())),
            Name::SignalUv,
        ),
        other => panic!("unknown signal {other}"),
    };
    let signal = Timed::new(signal, span, t);
    let fallback = Timed::new(BufferFallback::default(), Name::FallbackPick, t);
    let calls = Calls {
        signal: signal.calls.clone(),
        fallback: fallback.calls.clone(),
    };
    let policy = Timed::new(EnsemblePolicy::new(rig.ens.clone()), Name::PolicyDecide, t);
    let agent = SafeAgent::new(signal, agent.monitor().clone(), policy, fallback);
    (agent, calls)
}

/// `run_session_into`'s loop, traced: per decision one root span over
/// the observation encode, `SafeAgent::decide` (whose self time is the
/// monitor fold) and the cursor step.
fn stream_traced(
    agent: &mut TimedAgent,
    video: &VideoModel,
    cfg: &AbrConfig,
    trace: &Trace,
    t: &SharedTracer,
    out: &mut SessionRun,
) {
    agent.reset();
    out.qoe = 0.0;
    out.rebuffer_s = 0.0;
    out.bitrate_mbps = 0.0;
    out.chunks = 0;
    out.raw.clear();
    out.variance.clear();
    let mut cur = SessionCursor::new();
    let mut obs = [0.0f32; OBS_DIM];
    while !cur.done(video) {
        let root = t.borrow_mut().open(Name::Round);
        t.borrow_mut()
            .span(Name::FillObs, || cur.encode_obs(video, &mut obs));
        let id = t.borrow_mut().open(Name::MonitorUpdate);
        let level = agent.decide(&obs[..]);
        t.borrow_mut().close(id);
        out.raw.push(agent.last_raw());
        out.variance.push(agent.last_variance());
        let o = t
            .borrow_mut()
            .span(Name::SessionStep, || cur.step(video, cfg, trace, level));
        out.qoe += o.reward;
        out.rebuffer_s += o.rebuffer_s;
        out.bitrate_mbps += video.bitrate_mbps(level);
        out.chunks += 1;
        let mut tr = t.borrow_mut();
        tr.close(root);
        tr.end_round();
    }
    out.switch_index = agent.switch_index();
    out.switches = agent.switches();
    out.recoveries = agent.recoveries();
}

/// Decisions whose traced run differs from `run_session_into`'s, bit
/// for bit (the whole session counts when a summary field differs).
fn session_mismatches(a: &SessionRun, b: &SessionRun) -> u64 {
    let same_summary = a.qoe.to_bits() == b.qoe.to_bits()
        && a.rebuffer_s.to_bits() == b.rebuffer_s.to_bits()
        && a.bitrate_mbps.to_bits() == b.bitrate_mbps.to_bits()
        && a.chunks == b.chunks
        && a.switch_index == b.switch_index
        && a.switches == b.switches
        && a.recoveries == b.recoveries
        && a.raw.len() == b.raw.len()
        && a.variance.len() == b.variance.len();
    if !same_summary {
        return a.chunks.max(b.chunks).max(1);
    }
    let raw = a.raw.iter().zip(&b.raw);
    let var = a.variance.iter().zip(&b.variance);
    raw.chain(var)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count() as u64
}

/// The traced run: per-layer metrics from the adapters' spans, every
/// traced session checked against `run_session_into` on the untraced
/// agent.
pub fn run_traced(seed: u64, seconds: f64, spans_out: &std::path::Path) -> Report {
    let mut ph = Phases::new();
    let mut rig = setup(seed, &mut ph);
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(1 << 18, 64)));
    let (mut timed, calls): (Vec<TimedAgent>, Vec<Calls>) = rig
        .agents
        .iter()
        .map(|(name, agent)| timed_agent(&rig, name, agent, &tracer))
        .unzip();

    let mut reference = SessionRun::default();
    let mut traced = SessionRun::default();
    // Warm-up: one session per agent on both paths.
    for (k, (_, agent)) in rig.agents.iter_mut().enumerate() {
        let trace = &rig.sessions[0].0;
        run_session_into(agent, &rig.video, &rig.cfg, trace, &mut reference);
        stream_traced(
            &mut timed[k],
            &rig.video,
            &rig.cfg,
            trace,
            &tracer,
            &mut traced,
        );
    }
    tracer.borrow_mut().reset_totals();
    for c in &calls {
        c.signal.set(0);
        c.fallback.set(0);
    }

    let (mut round_ns, mut round_decisions, mut allocs) = (0u128, 0u64, 0u64);
    let (mut failed, mut attempted, mut switches, mut videos) = (0u64, 0u64, 0u64, 0u64);
    let mut agent_decisions = [0u64; 3];
    let mut outcomes = Outcomes::default();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut pass = 0;
    'run: loop {
        for (k, (_, agent)) in rig.agents.iter_mut().enumerate() {
            for (trace, label) in &rig.sessions {
                let a0 = counting_alloc::allocations();
                let s = Instant::now();
                run_session_into(agent, &rig.video, &rig.cfg, trace, &mut reference);
                round_ns += s.elapsed().as_nanos();
                allocs += counting_alloc::allocations() - a0;
                round_decisions += reference.chunks;
                stream_traced(
                    &mut timed[k],
                    &rig.video,
                    &rig.cfg,
                    trace,
                    &tracer,
                    &mut traced,
                );
                agent_decisions[k] += traced.chunks;
                switches += traced.switches as u64;
                videos += 1;
                attempted += traced.chunks;
                failed += session_mismatches(&reference, &traced);
                failed += reference
                    .variance
                    .iter()
                    .chain(&reference.raw)
                    .filter(|v| !v.is_finite())
                    .count() as u64;
                if failed > 0 {
                    break 'run;
                }
                if pass == 0 {
                    let first = reference.switch_index.map(|i| i as u64);
                    outcomes.record(*label, first, Some(0));
                }
                if pass > 0 && t0.elapsed() >= budget {
                    break 'run;
                }
            }
        }
        pass += 1;
    }
    let written = tracer.borrow().write_tsv(spans_out);

    let tr = tracer.borrow();
    let us = |n: Name| tr.mean_us(n);
    let per_agent_us =
        |n: Name, k: usize| tr.totals[n as usize] as f64 / agent_decisions[k].max(1) as f64 / 1e3;
    let decisions = tr.rounds as f64;
    let kdec = decisions / 1e3;
    let observing: u64 = calls.iter().map(|c| c.signal.get()).sum();
    let fallback: u64 = calls.iter().map(|c| c.fallback.get()).sum();
    let layers: f64 = Name::LAYERS.iter().map(|&n| us(n)).sum();

    let mut r = Report::new(true, attempted, failed);
    r.note(format!(
        "{} traced decisions; timing adapters matched run_session_into bit for bit: {}",
        tr.rounds,
        failed == 0
    ));
    r.spans(spans_out, written);
    for n in Name::LAYERS {
        if let Some(metric) = n.metric() {
            r.metric(metric, us(n));
        }
    }
    r.metric("abr.fallback_share", fallback as f64 / decisions);
    r.metric("abr.rollovers_per_kdec", videos as f64 / kdec);
    r.metric("core.signal.u_s_us", per_agent_us(Name::SignalUs, 0));
    r.metric("core.signal.u_pi_us", per_agent_us(Name::SignalUpi, 1));
    r.metric("core.signal.u_v_us", per_agent_us(Name::SignalUv, 2));
    r.metric("core.monitor.observing_share", observing as f64 / decisions);
    r.metric("core.monitor.trips_per_kdec", switches as f64 / kdec);
    let round_us = round_ns as f64 / round_decisions as f64 / 1e3;
    r.closure(round_us, layers, layers + us(Name::Round));
    r.traced_tail(&ph, &outcomes, allocs as f64 / round_decisions as f64);
    r
}
