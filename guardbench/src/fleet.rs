//! The three fleet workloads: `FleetEngine::round` over 1024 guarded
//! sessions, untraced for the end-to-end metrics, and — in the traced
//! run — in lockstep with a replica round that makes the same public
//! calls the engine makes, one span around each.

use std::time::{Duration, Instant};

use osa_abr::policy::BufferBased;
use osa_abr::sim::{AbrConfig, MultiSession};
use osa_abr::video::{VideoModel, CHUNK_COUNT};
use osa_abr::{HISTORY_LEN, NUM_BITRATES, OBS_DIM};
use osa_bench::counting_alloc;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_core::serve::FleetMonitors;
use osa_nn::quant::{QuantScratch, QuantStacked};
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::Tensor;
use osa_nn::workspace::Workspace;
use osa_ocsvm::detector::NoveltyDetector;
use osa_ocsvm::features::{FeatureWindow, FEATURE_DIM};
use osa_ocsvm::OcSvm;
use osa_trace::{Dataset, Trace};

use crate::outcome::{Label, OutcomeTracker, Outcomes};
use crate::report::Report;
use crate::setup::{self, Phases, SETUP_REPEATS};
use crate::span::{Name, Tracer};
use crate::stats::{Positions, MIN_SAMPLES};

/// Concurrent sessions of every fleet workload: few enough that a run
/// holds over a hundred videos, so every position in the video meets
/// enough quiet rounds on a shared machine (see `stats::Positions`).
const SESSIONS: usize = 1024;
/// Sessions per batched dispatch (`ServeConfig`'s default).
const SHARD: usize = 256;
/// Rounds run inside set-up to grow lane scratch before timing.
const WARMUP_ROUNDS: u64 = 2;
/// The outcome window: the deterministic metrics (QoE, switch
/// outcomes, detection delay) cover the first 384 rounds — eight whole
/// 48-chunk videos per session, 8192 videos — whatever the run length.
const OUTCOME_ROUNDS: u64 = 384;
/// Reverse switching of `fleet_us_transient` (as in `benches/serve.rs`):
/// m = 3 quiet windows hand back, a re-trip within 8 decisions locks.
const REVERSE: ReverseConfig = ReverseConfig {
    quiet_windows: 3,
    retrip_guard: 8,
};
/// Trace samples (1 s each) where the transient shifts begin and end.
const SHIFT_START: usize = 10;
const SPLICE_END: usize = 40;
const OUTAGE_END: usize = 70;
const OUTAGE_MBPS: f32 = 0.4;
/// Separates the Belgium splice sources from the Norway links' stream.
const BELGIUM_SALT: u64 = 0xBE16_1A4D;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Guard {
    /// U_V, sticky, no shift.
    ValueSteady,
    /// Anchored U_S with reverse switching, transient shifts.
    NoveltyTransient,
}

#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    pub guard: Guard,
    pub precision: ServePrecision,
}

/// Layer shapes of the stacked nets, for the computed GEMM metrics.
#[derive(Clone, Copy, Debug)]
struct Shapes {
    replicas: usize,
    /// `(in, out)` per actor layer; the critic differs only in its
    /// 1-wide head.
    actor: [(usize, usize); 3],
    critic: [(usize, usize); 3],
}

impl Shapes {
    fn of(ens: &PensieveEnsemble) -> Shapes {
        let c = ens.config();
        let (m, h) = (c.merge_in(), c.merge);
        assert_eq!(ens.actor().in_dim(), OBS_DIM);
        assert_eq!(ens.actor().out_dim(), NUM_BITRATES);
        assert_eq!(ens.critic().out_dim(), 1);
        Shapes {
            replicas: ens.replicas(),
            actor: [(OBS_DIM, m), (m, h), (h, NUM_BITRATES)],
            critic: [(OBS_DIM, m), (m, h), (h, 1)],
        }
    }

    /// GEMM flops (2 per multiply-add) of one round's forwards.
    fn flops_per_round(&self, with_critic: bool) -> f64 {
        let rows = (self.replicas * SESSIONS) as f64;
        let madds = |layers: &[(usize, usize); 3]| -> f64 {
            layers.iter().map(|&(k, n)| (k * n) as f64).sum::<f64>()
        };
        let mut f = madds(&self.actor);
        if with_critic {
            f += madds(&self.critic);
        }
        2.0 * rows * f
    }

    /// Bytes one round's forwards move, from tensor sizes: per shard,
    /// every layer reads its weights (4 bytes f32, 1 byte int8) and
    /// bias, reads its f32 input rows and writes its f32 output rows.
    fn bytes_per_round(&self, with_critic: bool, weight_bytes: f64) -> f64 {
        let shards = SESSIONS.div_ceil(SHARD) as f64;
        let r = self.replicas as f64;
        let net = |layers: &[(usize, usize); 3]| -> f64 {
            layers
                .iter()
                .map(|&(k, n)| {
                    let (k, n) = (k as f64, n as f64);
                    r * k * n * weight_bytes + r * n * 4.0 + r * SHARD as f64 * (k + n) * 4.0
                })
                .sum::<f64>()
        };
        let mut b = net(&self.actor);
        if with_critic {
            b += net(&self.critic);
        }
        shards * b
    }
}

/// A built fleet plus everything the run needs alongside it.
struct Rig {
    engine: FleetEngine,
    replica: Option<Replica>,
    tracker: OutcomeTracker,
    shapes: Shapes,
}

/// The calibrated guard every copy of the fleet deploys.
struct Deploy {
    serve: ServeConfig,
    svm: Option<OcSvm>,
}

impl Deploy {
    fn signal(&self) -> FleetSignal {
        match &self.svm {
            Some(svm) => FleetSignal::Novelty(svm.clone()),
            None => FleetSignal::ValueDisagreement,
        }
    }
}

/// Norway links from the workload seed; under the transient guard a
/// quarter carry a spliced Belgium window and a quarter an outage
/// (the shift scenarios of `benches/serve.rs`).
fn fleet_traces(spec: &FleetSpec, seed: u64) -> (Vec<Trace>, Vec<Label>) {
    let mut traces = Dataset::Norway.generate(SESSIONS, osap::CORPUS_LEN, seed);
    let mut labels = vec![Label::InDistribution; SESSIONS];
    if spec.guard == Guard::NoveltyTransient {
        let belgium =
            Dataset::Belgium.generate(SESSIONS / 4, osap::CORPUS_LEN, seed ^ BELGIUM_SALT);
        for (j, t) in traces.iter_mut().enumerate() {
            let onset_s = SHIFT_START as f64 * t.interval_s as f64;
            match j % 4 {
                0 => {
                    let src = &belgium[j / 4].mbps;
                    let end = SPLICE_END.min(t.mbps.len()).min(src.len());
                    t.mbps[SHIFT_START..end].copy_from_slice(&src[SHIFT_START..end]);
                }
                1 => {
                    let end = OUTAGE_END.min(t.mbps.len());
                    for v in &mut t.mbps[SHIFT_START..end] {
                        *v = v.min(OUTAGE_MBPS);
                    }
                }
                _ => continue,
            }
            labels[j] = Label::Shifted { onset_s };
        }
    }
    (traces, labels)
}

/// Calibrate the fleet's guard on the corpus's validation split.
fn calibrate_guard(
    spec: &FleetSpec,
    text: &str,
    video: &VideoModel,
    cfg: &AbrConfig,
    split: &osa_trace::Split,
    ph: &mut Phases,
) -> Deploy {
    let ens = shared(ph.time(Name::SetupLoad, || setup::parse_ensemble(text)));
    let monitor = || Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L);
    match spec.guard {
        Guard::ValueSteady => {
            let alpha = ph.time(Name::SetupCalibrate, || {
                let mut agent =
                    abr_safe_agent(ens.clone(), ValueDisagreement::new(ens.clone()), monitor());
                calibrate(&mut agent, video, cfg, &split.validation, DEFAULT_MARGIN).alpha
            });
            Deploy {
                serve: ServeConfig {
                    alpha,
                    shard: SHARD,
                    auto_reset: true,
                    precision: spec.precision,
                    ..ServeConfig::default()
                },
                svm: None,
            }
        }
        Guard::NoveltyTransient => {
            let svm = ph.time(Name::SetupFit, || {
                osap::fit_us_svm(&ens, video, cfg, &split.train)
            });
            // Anchor at the unanchored in-distribution mean, then
            // recalibrate α against the anchored variance.
            let (mu, alpha) = ph.time(Name::SetupCalibrate, || {
                let mut agent =
                    abr_safe_agent(ens.clone(), NoveltySignal::new(svm.clone()), monitor());
                let v = &split.validation;
                let mu = calibrate_novelty(&mut agent, video, cfg, v, DEFAULT_MARGIN).mu;
                agent.monitor_mut().set_anchor(Some(mu));
                (
                    mu,
                    calibrate_novelty(&mut agent, video, cfg, v, DEFAULT_MARGIN).alpha,
                )
            });
            Deploy {
                serve: ServeConfig {
                    alpha,
                    anchor: Some(mu),
                    reverse: Some(REVERSE),
                    shard: SHARD,
                    auto_reset: true,
                    precision: spec.precision,
                    ..ServeConfig::default()
                },
                svm: Some(svm),
            }
        }
    }
}

/// One serving ensemble, int8-calibrated when the spec serves int8.
fn serving_ensemble(
    spec: &FleetSpec,
    text: &str,
    video: &VideoModel,
    cfg: &AbrConfig,
    split: &osa_trace::Split,
    ph: &mut Phases,
) -> PensieveEnsemble {
    let mut ens = ph.time(Name::SetupLoad, || setup::parse_ensemble(text));
    if spec.precision == ServePrecision::Int8 {
        ph.time(Name::SetupInt8, || {
            let calib = calibration_observations(&mut ens, video, cfg, &split.validation, 64);
            ens.calibrate_int8(&calib);
        });
    }
    ens
}

/// Build the fleet (and, for the traced run, its replica) from scratch.
/// Warm-up rounds are run by [`setup_and_warm`].
fn setup(spec: &FleetSpec, seed: u64, with_replica: bool, ph: &mut Phases) -> Rig {
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let text = ph.time(Name::SetupLoad, setup::artifact_text);
    let split = ph.time(Name::SetupTraces, osap::corpus);
    let (traces, labels) = ph.time(Name::SetupTraces, || fleet_traces(spec, seed));
    let deploy = calibrate_guard(spec, &text, &video, &cfg, &split, ph);
    let ens = serving_ensemble(spec, &text, &video, &cfg, &split, ph);
    let shapes = Shapes::of(&ens);
    let replica = with_replica.then(|| {
        let ens = serving_ensemble(spec, &text, &video, &cfg, &split, ph);
        Replica::new(ens, &deploy, video.clone(), cfg.clone(), traces.clone())
    });
    let engine = FleetEngine::new(
        ens,
        deploy.signal(),
        video,
        cfg,
        traces,
        SESSIONS,
        &deploy.serve,
    );
    Rig {
        engine,
        replica,
        tracker: OutcomeTracker::new(SESSIONS, labels),
        shapes,
    }
}

/// Output checks on one round of `engine`: every action in range and
/// every monitor variance finite. Returns the failed decisions.
fn check_round(engine: &FleetEngine) -> u64 {
    let (sim, mon) = (engine.sim(), engine.monitors());
    (0..engine.len())
        .filter(|&i| sim.prev_level(i) >= NUM_BITRATES || !mon.variance(i).is_finite())
        .count() as u64
}

/// Sessions whose replica state differs from the engine's: action
/// (`prev_level`), switches, recoveries, variance and lifetime QoE
/// bits.
fn replica_mismatches(engine: &FleetEngine, replica: &Replica) -> u64 {
    let (es, em) = (engine.sim(), engine.monitors());
    let (rs, rm) = (&replica.sim, &replica.monitors);
    (0..engine.len())
        .filter(|&i| {
            es.prev_level(i) != rs.prev_level(i)
                || em.switches(i) != rm.switches(i)
                || em.recoveries(i) != rm.recoveries(i)
                || em.variance(i).to_bits() != rm.variance(i).to_bits()
                || es.qoe_total(i).to_bits() != rs.qoe_total(i).to_bits()
        })
        .count() as u64
}

/// Lifetime QoE per chunk over the whole fleet.
fn qoe_per_chunk(engine: &FleetEngine) -> f64 {
    let sim = engine.sim();
    let qoe: f64 = (0..engine.len()).map(|i| sim.qoe_total(i)).sum();
    let chunks: u64 = (0..engine.len()).map(|i| sim.chunks_total(i)).sum();
    qoe / chunks as f64
}

/// Progress of one run: checks, outcome window, attempted decisions.
struct Run {
    attempted: u64,
    failed: u64,
    qoe: Option<f64>,
    outcomes: Outcomes,
}

impl Run {
    fn new() -> Run {
        Run {
            attempted: 0,
            failed: 0,
            qoe: None,
            outcomes: Outcomes::default(),
        }
    }

    /// Book-keeping after one engine round (outside any timed window).
    fn after_round(&mut self, rig: &mut Rig) {
        self.attempted += SESSIONS as u64;
        self.failed += check_round(&rig.engine);
        if rig.tracker.rounds() < OUTCOME_ROUNDS {
            rig.tracker.after_round(&rig.engine);
            if rig.tracker.rounds() == OUTCOME_ROUNDS {
                self.qoe = Some(qoe_per_chunk(&rig.engine));
                self.outcomes = rig.tracker.outcomes;
            }
        }
    }

    /// True once the outcome window's metrics are in.
    fn window_done(&self) -> bool {
        self.qoe.is_some()
    }
}

/// Set up, run the warm-up rounds, and return the rig with the time it
/// took. Warm-up rounds count toward the outcome window.
fn setup_and_warm(
    spec: &FleetSpec,
    seed: u64,
    traced: Option<&mut Tracer>,
    run: &mut Run,
    ph: &mut Phases,
) -> (Rig, f64) {
    let start = Instant::now();
    let mut rig = setup(spec, seed, traced.is_some(), ph);
    let mut tracer = traced;
    for _ in 0..WARMUP_ROUNDS {
        rig.engine.round();
        if let (Some(rep), Some(t)) = (rig.replica.as_mut(), tracer.as_deref_mut()) {
            rep.round(t);
        }
        run.after_round(&mut rig);
    }
    (rig, start.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &FleetSpec, seed: u64, seconds: f64) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(Rig, Run)> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous rig before building the next, so the peak
        // resident set is one fleet's.
        drop(kept.take());
        let mut run = Run::new();
        let mut ph = Phases::new();
        let (rig, s) = setup_and_warm(spec, seed, None, &mut run, &mut ph);
        setups.push(s);
        kept = Some((rig, run));
    }
    let (mut rig, mut run) = kept.expect("at least one set-up");
    // The fleet's rounds repeat with the video.
    let mut rounds = Positions::new(CHUNK_COUNT);
    let mut allocs = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while run.failed == 0
        && (t0.elapsed() < budget || rounds.len() < MIN_SAMPLES || !run.window_done())
    {
        let a0 = counting_alloc::allocations();
        let s = Instant::now();
        rig.engine.round();
        let ns = s.elapsed().as_nanos() as f64;
        allocs += counting_alloc::allocations() - a0;
        rounds.push(ns);
        run.after_round(&mut rig);
    }
    let decisions = (rounds.len() * SESSIONS) as f64;
    let mut r = Report::new(false, run.attempted, run.failed);
    r.timings(&rounds.timing(), SESSIONS as f64, "rounds");
    let qoe = run.qoe.unwrap_or(f64::NAN);
    r.quality(&mut setups, qoe, &run.outcomes, allocs as f64 / decisions);
    r
}

/// The traced run: per-layer metrics from the replica's spans, with the
/// replica checked bit for bit against the engine every round.
pub fn run_traced(
    spec: &FleetSpec,
    seed: u64,
    seconds: f64,
    spans_out: &std::path::Path,
) -> Report {
    // ~120 spans per round; archive the first ~2000 rounds.
    let mut tracer = Tracer::new(1 << 18, 4096);
    let mut run = Run::new();
    let mut ph = Phases::new();
    let (mut rig, _) = setup_and_warm(spec, seed, Some(&mut tracer), &mut run, &mut ph);
    tracer.reset_totals();
    let mut mismatched = replica_mismatches(&rig.engine, rig.replica.as_ref().expect("replica"));
    rig.replica.as_mut().expect("replica").counters = Counters::default();

    let mut engine_ns = 0u128;
    let mut engine_rounds = 0u64;
    let mut allocs = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while run.failed == 0
        && mismatched == 0
        && (t0.elapsed() < budget || (engine_rounds as usize) < MIN_SAMPLES || !run.window_done())
    {
        let a0 = counting_alloc::allocations();
        let s = Instant::now();
        rig.engine.round();
        engine_ns += s.elapsed().as_nanos();
        allocs += counting_alloc::allocations() - a0;
        engine_rounds += 1;
        let rep = rig.replica.as_mut().expect("replica");
        rep.round(&mut tracer);
        mismatched = replica_mismatches(&rig.engine, rig.replica.as_ref().expect("replica"));
        run.after_round(&mut rig);
    }
    run.failed += mismatched;
    let written = tracer.write_tsv(spans_out);

    let c = rig.replica.as_ref().expect("replica").counters;
    let us = |n: Name| tracer.mean_us(n);
    let layers: f64 = Name::LAYERS.iter().map(|&n| us(n)).sum();
    let with_critic = spec.guard == Guard::ValueSteady;
    let weight_bytes = match spec.precision {
        ServePrecision::Int8 => 1.0,
        ServePrecision::F32 => 4.0,
    };
    let forward_us = us(Name::ActorForward) + us(Name::CriticForward) + us(Name::QuantForward);
    let kdec = c.decisions as f64 / 1e3;
    let share = |part: u64, whole: u64| {
        if whole > 0 {
            part as f64 / whole as f64
        } else {
            0.0
        }
    };

    let mut r = Report::new(true, run.attempted, run.failed);
    r.note(format!(
        "{} traced rounds; replica matched the engine bit for bit: {}",
        tracer.rounds,
        mismatched == 0
    ));
    r.spans(spans_out, written);
    for n in Name::LAYERS {
        if let Some(metric) = n.metric() {
            r.metric(metric, us(n));
        }
    }
    r.metric("abr.fallback_share", share(c.fallback, c.decisions));
    r.metric("abr.rollovers_per_kdec", c.rollovers as f64 / kdec);
    let flops = rig.shapes.flops_per_round(with_critic);
    r.metric("nn.gflops", flops / (forward_us * 1e3));
    let bytes = rig.shapes.bytes_per_round(with_critic, weight_bytes);
    r.metric("nn.mb_moved", bytes / 1e6);
    r.metric("ocsvm.scored_share", share(c.scored, c.us_observed));
    r.metric(
        "core.monitor.observing_share",
        share(c.observing, c.decisions),
    );
    r.metric("core.monitor.trips_per_kdec", c.trips as f64 / kdec);
    r.metric(
        "core.monitor.recoveries_per_kdec",
        c.recoveries as f64 / kdec,
    );
    r.metric("core.monitor.locks_per_kdec", c.locks as f64 / kdec);
    let round_us = engine_ns as f64 / engine_rounds as f64 / 1e3;
    r.closure(round_us, layers, layers + us(Name::Round));
    let decisions = engine_rounds as f64 * SESSIONS as f64;
    r.traced_tail(&ph, &run.outcomes, allocs as f64 / decisions);
    r
}

/// Counts at the replica's layer boundaries since the last reset.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    decisions: u64,
    observing: u64,
    fallback: u64,
    trips: u64,
    recoveries: u64,
    locks: u64,
    rollovers: u64,
    /// U_S sessions that pushed a sample, and windows scored.
    us_observed: u64,
    scored: u64,
}

/// The replica's per-lane scratch (the engine's `LaneScratch`, one lane).
struct Scratch {
    ws: Workspace,
    qscratch: QuantScratch,
    x: Tensor,
    logits: Tensor,
    values: Tensor,
    probs: Tensor,
    mean: [f32; NUM_BITRATES],
    devs: Vec<f32>,
    feat: [f32; FEATURE_DIM],
    feats: Tensor,
    us_idx: Vec<usize>,
    us_scores: Vec<f32>,
}

/// A replica of `FleetEngine::round` at pool width 1, built from the
/// same public calls the engine makes (`fill_observations_range`, the
/// stacked or quantized forwards, `FeatureWindow` and
/// `OcSvm::score_batch_into`, `FleetMonitors`, `BufferBased`,
/// `step_all`), with a span around each. The ensemble heads are
/// `pub(crate)` in `osa-core`, so the replica carries its own copy of
/// them ([`softmax_row`], [`trimmed_mean`]); the per-round bit check
/// against the engine keeps that copy honest.
struct Replica {
    sim: MultiSession,
    actor: StackedNet,
    critic: StackedNet,
    quant: Option<(QuantStacked, QuantStacked)>,
    replicas: usize,
    keep: usize,
    svm: Option<OcSvm>,
    monitors: FleetMonitors,
    raw: Vec<f32>,
    learned: Vec<u8>,
    windows: Vec<FeatureWindow>,
    actions: Vec<usize>,
    bb: BufferBased,
    completed_seen: Vec<u64>,
    scratch: Scratch,
    counters: Counters,
}

impl Replica {
    fn new(
        ens: PensieveEnsemble,
        deploy: &Deploy,
        video: VideoModel,
        cfg: AbrConfig,
        traces: Vec<Trace>,
    ) -> Replica {
        let (replicas, keep) = (ens.replicas(), ens.keep());
        let (actor, critic, quant) = ens.into_serving_nets();
        let quant = match deploy.serve.precision {
            ServePrecision::Int8 => Some(quant.expect("int8 serving calibrated the nets")),
            ServePrecision::F32 => None,
        };
        assert!(
            deploy.serve.auto_reset,
            "the replica mirrors auto-reset fleets"
        );
        Replica {
            sim: MultiSession::new(video, cfg, traces, SESSIONS, true),
            actor,
            critic,
            quant,
            replicas,
            keep,
            svm: deploy.svm.clone(),
            monitors: FleetMonitors::new(SESSIONS, &deploy.serve),
            raw: vec![0.0; SESSIONS],
            learned: vec![0; SESSIONS],
            windows: vec![FeatureWindow::new(); SESSIONS],
            actions: vec![0; SESSIONS],
            bb: BufferBased::default(),
            completed_seen: vec![0; SESSIONS],
            scratch: Scratch {
                ws: Workspace::new(),
                qscratch: QuantScratch::new(),
                x: Tensor::zeros(SHARD, OBS_DIM),
                logits: Tensor::zeros(0, 0),
                values: Tensor::zeros(0, 0),
                probs: Tensor::zeros(replicas * SHARD, NUM_BITRATES),
                mean: [0.0; NUM_BITRATES],
                devs: Vec::with_capacity(replicas),
                feat: [0.0; FEATURE_DIM],
                feats: Tensor::zeros(SHARD, FEATURE_DIM),
                us_idx: Vec::with_capacity(SHARD),
                us_scores: Vec::with_capacity(SHARD),
            },
            counters: Counters::default(),
        }
    }

    /// One traced round: the engine's parallel phase shard by shard,
    /// then its serial phase split into a monitor pass and an action
    /// pass (each session's pick reads only its own monitor and buffer,
    /// so the split changes no bit), the simulator step, and rollover.
    pub fn round(&mut self, t: &mut Tracer) {
        let root = t.open(Name::Round);
        let mut first = 0;
        while first < SESSIONS {
            let b = (SESSIONS - first).min(SHARD);
            self.decide_shard(first, b, t);
            first += b;
        }

        let id = t.open(Name::MonitorUpdate);
        for i in 0..SESSIONS {
            self.counters.decisions += 1;
            if !self.monitors.observing(i) {
                continue;
            }
            self.counters.observing += 1;
            let (sw, rec, locked) = (
                self.monitors.switches(i),
                self.monitors.recoveries(i),
                self.monitors.locked(i),
            );
            self.monitors.update(i, self.raw[i]);
            self.counters.trips += (self.monitors.switches(i) - sw) as u64;
            self.counters.recoveries += (self.monitors.recoveries(i) - rec) as u64;
            self.counters.locks += u64::from(!locked && self.monitors.locked(i));
        }
        t.close(id);

        let id = t.open(Name::FallbackPick);
        for i in 0..SESSIONS {
            self.actions[i] = if self.monitors.tripped(i) {
                self.counters.fallback += 1;
                // The engine's rounding: the observation stores
                // buffer/10 as f32, the fallback reads it ×10 in f64.
                let buf_obs = (self.sim.buffer_s(i) / 10.0) as f32;
                self.bb.level_for_buffer(buf_obs as f64 * 10.0)
            } else {
                self.learned[i] as usize
            };
        }
        t.close(id);

        t.span(Name::StepAll, || {
            self.sim.step_all(&self.actions);
        });

        let id = t.open(Name::MonitorReset);
        for i in 0..SESSIONS {
            let c = self.sim.sessions_completed(i);
            if c != self.completed_seen[i] {
                self.completed_seen[i] = c;
                self.counters.rollovers += 1;
                self.monitors.reset_session(i);
                self.raw[i] = 0.0;
                self.windows[i].reset();
            }
        }
        t.close(id);
        t.close(root);
        t.end_round();
    }

    fn decide_shard(&mut self, first: usize, b: usize, t: &mut Tracer) {
        let s = &mut self.scratch;
        t.span(Name::FillObs, || {
            self.sim.fill_observations_range(first, b, &mut s.x)
        });
        match &self.quant {
            Some((qa, _)) => t.span(Name::QuantForward, || {
                qa.forward_into(&s.x, &mut s.qscratch, &mut s.logits)
            }),
            None => t.span(Name::ActorForward, || {
                self.actor.forward_into(&s.x, &mut s.ws, &mut s.logits)
            }),
        }
        let replicas = self.replicas;
        t.span(Name::EnsembleHead, || {
            s.probs.resize_shape(replicas * b, NUM_BITRATES);
            for row in 0..replicas * b {
                softmax_row(s.logits.row(row), s.probs.row_mut(row));
            }
            for s_i in 0..b {
                for (j, m) in s.mean.iter_mut().enumerate() {
                    let mut sum = 0.0f32;
                    for r in 0..replicas {
                        sum += s.probs.get(r * b + s_i, j);
                    }
                    *m = sum / replicas as f32;
                }
                let mut best = 0;
                for (j, &p) in s.mean.iter().enumerate() {
                    if p > s.mean[best] {
                        best = j;
                    }
                }
                self.learned[first + s_i] = best as u8;
            }
        });

        match &self.svm {
            None => {
                match &self.quant {
                    Some((_, qc)) => t.span(Name::QuantForward, || {
                        qc.forward_into(&s.x, &mut s.qscratch, &mut s.values)
                    }),
                    None => t.span(Name::CriticForward, || {
                        self.critic.forward_into(&s.x, &mut s.ws, &mut s.values)
                    }),
                }
                let keep = self.keep;
                t.span(Name::EnsembleHead, || {
                    for s_i in 0..b {
                        let mut mean = 0.0f32;
                        for r in 0..replicas {
                            mean += s.values.get(r * b + s_i, 0);
                        }
                        mean /= replicas as f32;
                        s.devs.clear();
                        for r in 0..replicas {
                            s.devs.push((s.values.get(r * b + s_i, 0) - mean).abs());
                        }
                        self.raw[first + s_i] = trimmed_mean(&mut s.devs, keep);
                    }
                });
            }
            Some(svm) => {
                let c = &mut self.counters;
                t.span(Name::Feature, || {
                    s.feats.reset_rows(FEATURE_DIM);
                    s.us_idx.clear();
                    for s_i in 0..b {
                        let i = first + s_i;
                        // A sticky or locked fallback stops observing:
                        // its feature window freezes.
                        if !self.monitors.observing(i) {
                            continue;
                        }
                        c.us_observed += 1;
                        let fw = &mut self.windows[i];
                        fw.push(s.x.get(s_i, HISTORY_LEN - 1) * 10.0);
                        if fw.ready() {
                            fw.write(&mut s.feat);
                            s.feats.push_row(&s.feat);
                            s.us_idx.push(s_i);
                        }
                    }
                    c.scored += s.us_idx.len() as u64;
                });
                if !s.us_idx.is_empty() {
                    t.span(Name::ScoreBatch, || {
                        s.us_scores.clear();
                        s.us_scores.resize(s.us_idx.len(), 0.0);
                        svm.score_batch_into(&s.feats, &mut s.us_scores);
                    });
                    t.span(Name::Feature, || {
                        for (&s_i, &score) in s.us_idx.iter().zip(&s.us_scores) {
                            self.raw[first + s_i] = score;
                        }
                    });
                }
            }
        }
    }
}

/// Mean of the `keep` smallest entries, sorted with `total_cmp` — a
/// copy of `osa_core::ensemble::trimmed_mean` (crate-private there).
fn trimmed_mean(devs: &mut [f32], keep: usize) -> f32 {
    devs.sort_unstable_by(f32::total_cmp);
    devs[..keep].iter().sum::<f32>() / keep as f32
}

/// Row-wise max-subtracted softmax — a copy of
/// `osa_core::ensemble::softmax_row` (crate-private there).
fn softmax_row(logits: &[f32], probs: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (p, &l) in probs.iter_mut().zip(logits) {
        *p = (l - max).exp();
        sum += *p;
    }
    for p in probs {
        *p /= sum;
    }
}
