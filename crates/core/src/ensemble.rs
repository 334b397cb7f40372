//! The Pensieve agent/value ensemble behind U_π and U_V (§3.1).
//!
//! The paper trains i = 5 replicas of the agent from different seeds and
//! reads uncertainty off their disagreement: U_π is the KL divergence of
//! each replica's action distribution from the ensemble mean, U_V the
//! distance of each replica's value estimate from the mean value — in
//! both cases the top-2 outliers are discarded and the kept 3 averaged,
//! so one diverged replica cannot fake (or mask) uncertainty.
//!
//! # One GEMM, not five
//!
//! Every decision needs all replicas' outputs, so the ensemble snapshots
//! the replica weights into two [`StackedNet`]s (actor towers, critic
//! towers) and evaluates each layer for all replicas in a **single
//! grouped GEMM** — see `osa_nn::stacked`. `BENCH_osap.json` pins this
//! against five sequential `Sequential` forwards.
//!
//! # One set of heads, any batch size
//!
//! The heads run over `b` sessions at once, on replica-major output
//! rows (`row = r·b + s`): softmax → replica mean → argmax for the
//! learned action, and value mean → trimmed mean for U_V, behind one
//! f32/int8 forward dispatch. The scalar [`PensieveEnsemble`] calls them
//! with `b = 1`; the fleet engine ([`crate::serve`]) calls them once per
//! shard. Both paths therefore produce the same bits by construction.
//!
//! # Shared forward between acting and U_π
//!
//! The safe agent *acts* with the ensemble-mean distribution (argmax),
//! which needs exactly the stacked actor forward U_π also needs. The
//! ensemble therefore caches the most recent policy evaluation together
//! with the observation it ran on: when the U_π signal observes an
//! observation first, the subsequent [`PensieveEnsemble::act`] on the
//! bit-identical observation reuses the cached action — the *marginal*
//! cost of U_π is just the KL sums. Any other observation misses and
//! runs its own forward, so a stale forward can never leak into a
//! decision, whatever order session resets run in; nothing needs to
//! invalidate the cache except [`PensieveEnsemble::set_precision`] and
//! [`PensieveEnsemble::calibrate_int8`], which change the forward
//! itself.

use std::cell::RefCell;
use std::rc::Rc;

use osa_abr::{NUM_BITRATES, OBS_DIM};
use osa_nn::json::{obj, JsonError, Value};
use osa_nn::quant::{QuantScratch, QuantStacked};
use osa_nn::stacked::StackedNet;
use osa_nn::tensor::Tensor;
use osa_nn::workspace::Workspace;
use osa_pensieve::{PensieveAgent, PensieveConfig};

use crate::signal::UncertaintySignal;

/// Serialized-ensemble format version (bumped on any layout change).
pub const ENSEMBLE_FORMAT_VERSION: u32 = 1;

/// Numeric precision the serving forwards run at: train f32, serve
/// either f32 or int8-quantized (see `osa_nn::quant`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServePrecision {
    /// The f32 stacked kernels (bit-identical to training forwards).
    #[default]
    F32,
    /// Post-training int8: ~4× smaller weight traffic, decisions match
    /// f32 within quantization error (pinned by the switch-fidelity
    /// e2e test). Requires [`PensieveEnsemble::calibrate_int8`] first.
    Int8,
}

/// Probability floor for the U_π KL sum (see
/// [`PensieveEnsemble::policy_disagreement`]).
pub const KL_FLOOR: f32 = 1e-6;

/// The stacked serving nets of an ensemble, the precision they run at,
/// and the batched heads over their outputs. Immutable while serving:
/// every caller brings its own [`HeadScratch`].
pub(crate) struct ServingNets {
    actor: StackedNet,
    critic: StackedNet,
    /// Int8 serving nets, present once
    /// [`PensieveEnsemble::calibrate_int8`] has run.
    quant: Option<(QuantStacked, QuantStacked)>,
    precision: ServePrecision,
    replicas: usize,
    /// Members averaged after discarding the `replicas − keep` largest
    /// disagreements (§3.1: keep 3 of 5).
    keep: usize,
}

/// Per-caller buffers for [`ServingNets`]' forwards and heads. All
/// paths are allocation-free once the buffers have grown to the
/// caller's batch size.
pub(crate) struct HeadScratch {
    ws: Workspace,
    qscratch: QuantScratch,
    logits: Tensor,
    values: Tensor,
    /// Per-row softmax of the last policy head (`replicas·b × levels`).
    probs: Tensor,
    /// Replica-mean distribution per session (`b × levels`).
    mean: Tensor,
    devs: Vec<f32>,
}

impl HeadScratch {
    /// Buffers pre-sized for batches of up to `rows` sessions.
    pub(crate) fn new(replicas: usize, rows: usize) -> HeadScratch {
        HeadScratch {
            ws: Workspace::new(),
            qscratch: QuantScratch::new(),
            logits: Tensor::zeros(0, 0),
            values: Tensor::zeros(0, 0),
            probs: Tensor::zeros(replicas * rows, NUM_BITRATES),
            mean: Tensor::zeros(rows, NUM_BITRATES),
            devs: Vec::with_capacity(replicas),
        }
    }
}

impl ServingNets {
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// Pick the serving precision; `Int8` requires calibrated nets.
    pub(crate) fn set_precision(&mut self, precision: ServePrecision) -> Result<(), String> {
        if precision == ServePrecision::Int8 && self.quant.is_none() {
            return Err("set_precision(Int8) before calibrate_int8".into());
        }
        self.precision = precision;
        Ok(())
    }

    /// Stacked forward of the actor (or, with `critic`, the critic)
    /// towers at the serving precision: `x.rows()` observations in,
    /// replica-major rows out.
    fn forward(
        &self,
        critic: bool,
        x: &Tensor,
        ws: &mut Workspace,
        qscratch: &mut QuantScratch,
        out: &mut Tensor,
    ) {
        let (net, quant) = match (critic, &self.quant) {
            (false, q) => (&self.actor, q.as_ref().map(|(a, _)| a)),
            (true, q) => (&self.critic, q.as_ref().map(|(_, c)| c)),
        };
        match (self.precision, quant) {
            (ServePrecision::Int8, Some(q)) => q.forward_into(x, qscratch, out),
            _ => net.forward_into(x, ws, out),
        }
    }

    /// Policy head for the `b = x.rows()` observations in `x`: one
    /// stacked actor forward, a softmax per replica row, the replica
    /// mean per session (left in `sc.mean`), and its argmax (ties →
    /// lowest level, matching `Policy::greedy`), handed to
    /// `act(session, level)`.
    pub(crate) fn policy_batch(
        &self,
        x: &Tensor,
        sc: &mut HeadScratch,
        mut act: impl FnMut(usize, usize),
    ) {
        self.forward(false, x, &mut sc.ws, &mut sc.qscratch, &mut sc.logits);
        let (replicas, b) = (self.replicas, x.rows());
        sc.probs.resize_shape(replicas * b, NUM_BITRATES);
        sc.mean.resize_shape(b, NUM_BITRATES);
        for row in 0..replicas * b {
            softmax_row(sc.logits.row(row), sc.probs.row_mut(row));
        }
        for s in 0..b {
            let mean = sc.mean.row_mut(s);
            for (j, m) in mean.iter_mut().enumerate() {
                let mut sum = 0.0f32;
                for r in 0..replicas {
                    sum += sc.probs.get(r * b + s, j);
                }
                *m = sum / replicas as f32;
            }
            let mut best = 0;
            for (j, &p) in mean.iter().enumerate() {
                if p > mean[best] {
                    best = j;
                }
            }
            act(s, best);
        }
    }

    /// Raw U_V for the `b = x.rows()` observations in `x`: one stacked
    /// critic forward, then per session the distance of each replica's
    /// value from the replica mean, trimmed to the `keep` closest and
    /// averaged, handed to `out(session, spread)`.
    pub(crate) fn value_spread_batch(
        &self,
        x: &Tensor,
        sc: &mut HeadScratch,
        mut out: impl FnMut(usize, f32),
    ) {
        self.forward(true, x, &mut sc.ws, &mut sc.qscratch, &mut sc.values);
        let (replicas, b) = (self.replicas, x.rows());
        for s in 0..b {
            let mut mean = 0.0f32;
            for r in 0..replicas {
                mean += sc.values.get(r * b + s, 0);
            }
            mean /= replicas as f32;
            sc.devs.clear();
            for r in 0..replicas {
                sc.devs.push((sc.values.get(r * b + s, 0) - mean).abs());
            }
            out(s, trimmed_mean(&mut sc.devs, self.keep));
        }
    }
}

/// A stacked ensemble of Pensieve replicas: the mean-policy actor the
/// safe agent runs, and the disagreement statistics behind U_π and U_V.
/// Every per-observation path is the batched head at `b = 1`.
pub struct PensieveEnsemble {
    cfg: PensieveConfig,
    nets: ServingNets,
    scratch: HeadScratch,
    x: Tensor,
    /// Observation of the last [`PensieveEnsemble::policy_eval`] — kept
    /// apart from `x`, which the U_V critic forward overwrites.
    key: [f32; OBS_DIM],
    /// Learned level of the last [`PensieveEnsemble::policy_eval`].
    action: usize,
    /// Whether `key`/`action` hold a forward at the current precision.
    cached: bool,
}

impl PensieveEnsemble {
    /// Snapshot trained replicas into stacked actor/critic nets. All
    /// replicas must share one architecture; needs at least 2 (no
    /// disagreement exists among fewer).
    pub fn from_agents(agents: &[PensieveAgent]) -> Result<PensieveEnsemble, String> {
        if agents.len() < 2 {
            return Err("ensemble needs at least 2 replicas".into());
        }
        let cfg = agents[0].config();
        for (r, a) in agents.iter().enumerate() {
            if a.config() != cfg {
                return Err(format!("replica {r} architecture differs from replica 0"));
            }
        }
        let actors: Vec<&osa_nn::Sequential> =
            agents.iter().map(|a| &a.actor_critic().actor).collect();
        let critics: Vec<&osa_nn::Sequential> =
            agents.iter().map(|a| &a.actor_critic().critic).collect();
        let actor = StackedNet::from_nets(&actors).map_err(|e| e.to_string())?;
        let critic = StackedNet::from_nets(&critics).map_err(|e| e.to_string())?;
        let replicas = agents.len();
        Ok(PensieveEnsemble {
            cfg,
            nets: ServingNets {
                actor,
                critic,
                quant: None,
                precision: ServePrecision::F32,
                replicas,
                keep: replicas.saturating_sub(2).max(1),
            },
            scratch: HeadScratch::new(replicas, 1),
            x: Tensor::zeros(1, OBS_DIM),
            key: [0.0; OBS_DIM],
            action: 0,
            cached: false,
        })
    }

    pub fn replicas(&self) -> usize {
        self.nets.replicas
    }

    pub fn keep(&self) -> usize {
        self.nets.keep
    }

    /// The stacked actor towers, for callers that run their own
    /// forwards.
    pub fn actor(&self) -> &StackedNet {
        &self.nets.actor
    }

    /// The stacked critic towers (see [`PensieveEnsemble::actor`]).
    pub fn critic(&self) -> &StackedNet {
        &self.nets.critic
    }

    /// Quantize the serving forwards to int8, calibrating per-layer
    /// activation scales on `calib` (`rows × OBS_DIM` validation-split
    /// observations — see `crate::eval::calibration_observations`).
    /// Keeps the f32 nets; call [`set_precision`] to pick which one
    /// serves. Drops the cached policy evaluation, which may have run on
    /// the int8 nets this replaces.
    ///
    /// [`set_precision`]: PensieveEnsemble::set_precision
    pub fn calibrate_int8(&mut self, calib: &Tensor) {
        let ws = &mut self.scratch.ws;
        let qa = QuantStacked::from_stacked(&self.nets.actor, calib, ws);
        let qc = QuantStacked::from_stacked(&self.nets.critic, calib, ws);
        self.nets.quant = Some((qa, qc));
        self.cached = false;
    }

    /// Switch the serving precision. `Int8` requires a prior
    /// [`calibrate_int8`]; the cached policy evaluation is dropped
    /// because the two paths do not produce bit-identical logits.
    ///
    /// [`calibrate_int8`]: PensieveEnsemble::calibrate_int8
    pub fn set_precision(&mut self, precision: ServePrecision) -> Result<(), String> {
        self.nets.set_precision(precision)?;
        self.cached = false;
        Ok(())
    }

    pub fn precision(&self) -> ServePrecision {
        self.nets.precision
    }

    /// The calibrated int8 (actor, critic) pair, if any.
    pub fn quantized(&self) -> Option<&(QuantStacked, QuantStacked)> {
        self.nets.quant.as_ref()
    }

    /// Consume the ensemble into every serving net it carries:
    /// `(actor, critic, quantized pair)`.
    pub fn into_serving_nets(
        self,
    ) -> (StackedNet, StackedNet, Option<(QuantStacked, QuantStacked)>) {
        (self.nets.actor, self.nets.critic, self.nets.quant)
    }

    /// Consume the ensemble into its nets and heads — the fleet
    /// engine's intake (it brings one [`HeadScratch`] per lane).
    pub(crate) fn into_heads(self) -> ServingNets {
        self.nets
    }

    pub fn config(&self) -> PensieveConfig {
        self.cfg
    }

    /// Stacked actor forward of one observation: per-replica softmax,
    /// the ensemble-mean distribution and its argmax, cached for an
    /// [`act`] on the same observation.
    ///
    /// [`act`]: PensieveEnsemble::act
    pub fn policy_eval(&mut self, obs: &[f32]) {
        self.x.row_mut(0).copy_from_slice(obs);
        let mut level = 0;
        self.nets
            .policy_batch(&self.x, &mut self.scratch, |_, a| level = a);
        self.key.copy_from_slice(obs);
        self.action = level;
        self.cached = true;
    }

    /// Ensemble-mean action distribution of the last [`policy_eval`].
    ///
    /// [`policy_eval`]: PensieveEnsemble::policy_eval
    pub fn mean_probs(&self) -> &[f32] {
        self.scratch.mean.row(0)
    }

    /// Per-replica action distributions of the last [`policy_eval`]
    /// (`replicas × NUM_BITRATES`), e.g. for disagreement ablations.
    ///
    /// [`policy_eval`]: PensieveEnsemble::policy_eval
    pub fn replica_probs(&self) -> &Tensor {
        &self.scratch.probs
    }

    /// Act with the ensemble-mean policy: argmax of the mean
    /// distribution (ties → lowest level, matching `Policy::greedy`).
    /// Reuses the cached forward when it ran on a bit-identical
    /// observation (a U_π observation of this decision), so each
    /// decision computes at most one actor forward.
    pub fn act(&mut self, obs: &[f32]) -> usize {
        let key = self.key.iter().map(|k| k.to_bits());
        let hit = self.cached && key.eq(obs.iter().map(|o| o.to_bits()));
        if !hit {
            self.policy_eval(obs);
        }
        self.action
    }

    /// Raw U_π: per-replica `KL(π_r ‖ π_mean)`, discard the top-2
    /// outliers, average the kept members.
    ///
    /// Actions carrying less than [`KL_FLOOR`] probability in a replica
    /// are skipped and the mean is floored at the same value: trained
    /// softmaxes routinely push losing actions into denormals (and a
    /// denormal divided by the replica count underflows to 0), turning
    /// the textbook sum into `±inf` over action mass that couldn't
    /// matter less. The floored KL stays within `ln(1/KL_FLOOR)` per
    /// action of the exact value on any meaningful disagreement.
    pub fn policy_disagreement(&mut self, obs: &[f32]) -> f32 {
        self.policy_eval(obs);
        let sc = &mut self.scratch;
        let mean = sc.mean.row(0);
        sc.devs.clear();
        for r in 0..self.nets.replicas {
            let mut kl = 0.0f32;
            for (j, &p) in sc.probs.row(r).iter().enumerate() {
                if p > KL_FLOOR {
                    kl += p * (p / mean[j].max(KL_FLOOR)).ln();
                }
            }
            sc.devs.push(kl.max(0.0));
        }
        trimmed_mean(&mut sc.devs, self.nets.keep)
    }

    /// Raw U_V: per-replica distance of the value estimate from the
    /// ensemble mean, discard the top-2 outliers, average the kept
    /// members.
    pub fn value_disagreement(&mut self, obs: &[f32]) -> f32 {
        self.x.row_mut(0).copy_from_slice(obs);
        let mut spread = 0.0;
        self.nets
            .value_spread_batch(&self.x, &mut self.scratch, |_, v| spread = v);
        spread
    }

    /// Serialize as `{format_version, replicas: [PensieveAgent docs]}`.
    /// This is the *source* representation — re-loading rebuilds the
    /// stacked nets from the replica weights, bit-exactly.
    ///
    /// A replica whose document fails to parse surfaces as the
    /// workspace's typed [`JsonError`] (with the replica index prefixed
    /// to the message) instead of panicking mid-save.
    pub fn agents_to_json(agents: &[PensieveAgent]) -> Result<String, JsonError> {
        let docs: Vec<Value> = agents
            .iter()
            .enumerate()
            .map(|(r, a)| {
                Value::parse(&a.to_json()).map_err(|e| JsonError {
                    msg: format!("replica {r}: {}", e.msg),
                    pos: e.pos,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(obj(vec![
            ("format_version", Value::Num(ENSEMBLE_FORMAT_VERSION as f64)),
            ("replicas", Value::Arr(docs)),
        ])
        .to_json())
    }

    /// Load the replica agents saved by [`agents_to_json`].
    ///
    /// Never panics on a corrupt artifact: parse failures, schema
    /// mismatches, and non-finite weight values (the lexer accepts
    /// overflowing literals like `1e999` as ±∞, which JSON cannot
    /// re-serialize) all come back as `Err`.
    ///
    /// [`agents_to_json`]: PensieveEnsemble::agents_to_json
    pub fn agents_from_json(text: &str) -> Result<Vec<PensieveAgent>, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let version = v
            .get("format_version")
            .and_then(Value::as_usize)
            .ok_or("missing format_version")?;
        if version != ENSEMBLE_FORMAT_VERSION as usize {
            return Err(format!("unsupported ensemble format_version {version}"));
        }
        let docs = v
            .get("replicas")
            .and_then(Value::as_arr)
            .ok_or("missing replicas array")?;
        docs.iter()
            .enumerate()
            .map(|(r, d)| {
                let doc = d.try_to_json().map_err(|e| format!("replica {r}: {e}"))?;
                PensieveAgent::from_json(&doc).map_err(|e| format!("replica {r}: {e}"))
            })
            .collect()
    }

    /// Load an ensemble straight from its JSON document.
    pub fn from_json(text: &str) -> Result<PensieveEnsemble, String> {
        PensieveEnsemble::from_agents(&PensieveEnsemble::agents_from_json(text)?)
    }
}

/// Mean of the `keep` smallest entries (the §3.1 outlier discard),
/// sorting in place with `total_cmp` so the reduction order — and the
/// bits — never depend on the caller.
fn trimmed_mean(devs: &mut [f32], keep: usize) -> f32 {
    devs.sort_unstable_by(f32::total_cmp);
    let kept = &devs[..keep];
    kept.iter().sum::<f32>() / keep as f32
}

/// Row-wise max-subtracted softmax (the same math as
/// `osa_mdp::ActorCritic::action_probs_batch_into`).
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

/// The ensemble shared between the acting policy and the U_π/U_V
/// signals of one [`crate::safe_agent::SafeAgent`].
pub type SharedEnsemble = Rc<RefCell<PensieveEnsemble>>;

/// Wrap an ensemble for sharing.
pub fn shared(ens: PensieveEnsemble) -> SharedEnsemble {
    Rc::new(RefCell::new(ens))
}

/// U_π — agent-ensemble KL-divergence-to-mean (§3.1). Observing runs
/// the stacked actor forward and leaves it cached for the decision's
/// `act`, so this signal's marginal cost is the KL computation alone.
pub struct PolicyDisagreement {
    ens: SharedEnsemble,
}

impl PolicyDisagreement {
    pub fn new(ens: SharedEnsemble) -> Self {
        PolicyDisagreement { ens }
    }
}

impl UncertaintySignal<[f32]> for PolicyDisagreement {
    fn name(&self) -> &'static str {
        "u_pi"
    }

    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.ens.borrow_mut().policy_disagreement(obs)
    }
}

/// U_V — value-ensemble distance-to-mean (§3.1). Costs one stacked
/// critic forward per decision on top of the acting forward.
pub struct ValueDisagreement {
    ens: SharedEnsemble,
}

impl ValueDisagreement {
    pub fn new(ens: SharedEnsemble) -> Self {
        ValueDisagreement { ens }
    }
}

impl UncertaintySignal<[f32]> for ValueDisagreement {
    fn name(&self) -> &'static str {
        "u_v"
    }

    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.ens.borrow_mut().value_disagreement(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_mdp::Policy;
    use osa_nn::rng::Rng;

    fn agents(n: usize) -> Vec<PensieveAgent> {
        (0..n)
            .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s as u64)))
            .collect()
    }

    fn obs(seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..OBS_DIM).map(|_| rng.range_f32(0.0, 1.0)).collect()
    }

    #[test]
    fn mean_probs_match_per_replica_forwards() {
        let mut reps = agents(5);
        let mut ens = PensieveEnsemble::from_agents(&reps).unwrap();
        let o = obs(3);
        ens.policy_eval(&o);
        let mut expect = vec![0.0f32; NUM_BITRATES];
        for a in reps.iter_mut() {
            let p = a.actor_critic_mut().action_probs(&o);
            for (e, &pv) in expect.iter_mut().zip(&p) {
                *e += pv / 5.0;
            }
        }
        // Conv-lowered stacked layers match the replica forward to
        // rounding, not bit-for-bit (see osa_nn::stacked docs).
        for (a, b) in ens.mean_probs().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5, "stacked {a} vs sequential {b}");
        }
    }

    #[test]
    fn disagreement_of_identical_replicas_is_zero() {
        let one = PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(9));
        let clones: Vec<PensieveAgent> = (0..5)
            .map(|_| PensieveAgent::from_json(&one.to_json()).unwrap())
            .collect();
        let mut ens = PensieveEnsemble::from_agents(&clones).unwrap();
        let o = obs(1);
        // Mathematically zero; the mean-of-5 rounds in f32, so the KL
        // comes out at ~1e-8 rather than exactly 0.
        assert!(ens.policy_disagreement(&o).abs() < 1e-6);
        assert!(ens.value_disagreement(&o).abs() < 1e-6);
        // Distinct replicas must actually disagree.
        let mut ens = PensieveEnsemble::from_agents(&agents(5)).unwrap();
        assert!(ens.policy_disagreement(&o) > 0.0);
        assert!(ens.value_disagreement(&o) > 0.0);
    }

    #[test]
    fn act_reuses_a_cached_forward_only_for_its_own_observation() {
        let reps = agents(5);
        let fresh_act = |o: &[f32]| PensieveEnsemble::from_agents(&reps).unwrap().act(o);
        let a = obs(7);
        let want_a = fresh_act(&a);
        let b = (8..200)
            .map(obs)
            .find(|b| fresh_act(b) != want_a)
            .expect("an observation the ensemble acts on differently");
        let mut ens = PensieveEnsemble::from_agents(&reps).unwrap();
        // A U_π forward left over from `a` (another decision, or the
        // previous session) must not answer the act on `b`...
        ens.policy_disagreement(&a);
        assert_eq!(ens.act(&b), fresh_act(&b));
        // ...while the decision that observed `b` reuses its own.
        ens.policy_disagreement(&b);
        assert_eq!(ens.act(&b), fresh_act(&b));
        assert_eq!(ens.act(&a), want_a);
    }

    #[test]
    fn ensemble_round_trips_through_json() {
        let reps = agents(3);
        let text = PensieveEnsemble::agents_to_json(&reps).unwrap();
        let loaded = PensieveEnsemble::agents_from_json(&text).unwrap();
        assert_eq!(loaded.len(), 3);
        let mut a = PensieveEnsemble::from_agents(&reps).unwrap();
        let mut b = PensieveEnsemble::from_agents(&loaded).unwrap();
        let o = obs(11);
        assert_eq!(
            a.policy_disagreement(&o).to_bits(),
            b.policy_disagreement(&o).to_bits()
        );
        assert_eq!(
            a.value_disagreement(&o).to_bits(),
            b.value_disagreement(&o).to_bits()
        );
    }

    #[test]
    fn corrupt_artifacts_error_instead_of_panicking() {
        // Truncated document.
        assert!(PensieveEnsemble::agents_from_json("{\"format_ver").is_err());
        // Wrong version.
        assert!(
            PensieveEnsemble::agents_from_json("{\"format_version\":99,\"replicas\":[]}").is_err()
        );
        // A number overflowed to ±∞ in the file (the lexer accepts
        // `1e999` as inf): re-serializing the replica doc used to panic
        // inside `to_json`; it must surface as a replica-indexed error.
        let good = PensieveEnsemble::agents_to_json(&agents(2)).unwrap();
        let spliced = good.replacen("\"history\":8", "\"history\":1e999", 1);
        assert_ne!(spliced, good, "corruption splice must land");
        let err = match PensieveEnsemble::agents_from_json(&spliced) {
            Err(e) => e,
            Ok(_) => panic!("non-finite number in artifact must not load"),
        };
        assert!(err.contains("replica 0"), "error names the replica: {err}");
    }

    #[test]
    fn keep_discards_the_top_two() {
        let ens = PensieveEnsemble::from_agents(&agents(5)).unwrap();
        assert_eq!(ens.keep(), 3);
        let mut devs = [5.0, 0.5, 100.0, 1.0, 1.5];
        assert!((trimmed_mean(&mut devs, ens.keep()) - 1.0).abs() < 1e-6);
    }
}
