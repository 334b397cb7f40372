//! The [`UncertaintySignal`] trait and the U_S novelty signal.
//!
//! A signal maps the stream of per-decision observations to a scalar
//! uncertainty value; the [`crate::monitor::Monitor`] smooths that value
//! with a k-window variance and trips after l consecutive exceedances
//! (§2.5). The trait is generic over the observation type so the same
//! machinery can guard the ABR case study (`O = [f32]`, the `osa_abr`
//! observation row) and any other domain — `safe_agent`'s tests guard
//! a toy domain whose observation is a struct.

use osa_abr::sim::{newest_tput_mbps, AbrConfig};
use osa_abr::video::VideoModel;
use osa_nn::tensor::Tensor;
use osa_ocsvm::detector::{NoveltyDetector, OcSvm, OcSvmConfig};
use osa_ocsvm::features::{window_features, FeatureWindow, FEATURE_DIM};
use osa_trace::Trace;

use crate::ensemble::SharedEnsemble;
use crate::eval::run_session;
use crate::monitor::{Monitor, DEFAULT_K};
use crate::safe_agent::abr_safe_agent;
use crate::DEFAULT_L;

/// A per-decision uncertainty scalar over observations of type `O`.
///
/// `observe` is called exactly once per decision, *before* the policy
/// acts, and must be allocation-free after warm-up — its cost is the
/// per-decision price of safety that `BENCH_osap.json` records. Signals
/// that need warm-up (feature windows, variance rings) return their
/// quiet value until ready.
pub trait UncertaintySignal<O: ?Sized> {
    /// Stable identifier used in figure artifacts and bench reports
    /// (`"u_s"`, `"u_pi"`, `"u_v"`).
    fn name(&self) -> &'static str;

    /// Consume one observation and return the raw uncertainty value.
    fn observe(&mut self, obs: &O) -> f32;

    /// Forget all per-session state (called at session boundaries).
    /// Stateless signals keep the default no-op.
    fn reset(&mut self) {}
}

/// Boxed signals forward, so heterogeneous signal sets (the figure
/// binaries sweep U_S/U_π/U_V through one loop) can live in one `Vec`.
impl<O: ?Sized, S: UncertaintySignal<O> + ?Sized> UncertaintySignal<O> for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, obs: &O) -> f32 {
        (**self).observe(obs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// The always-quiet signal: raw value 0 for every observation. Wrapping
/// a [`crate::safe_agent::SafeAgent`] around it yields the *unguarded*
/// learned policy — the baseline every figure compares against.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSignal;

impl<O: ?Sized> UncertaintySignal<O> for NullSignal {
    fn name(&self) -> &'static str {
        "none"
    }

    fn observe(&mut self, _obs: &O) -> f32 {
        0.0
    }
}

/// U_S — the paper's classic-ND baseline (§2.4): a novelty detector
/// over the §3.1 throughput features. Each decision pushes the newest
/// throughput sample into the incremental [`FeatureWindow`]; once warm,
/// the raw signal is the detector's novelty score of the current
/// feature vector.
pub struct NoveltySignal<D: NoveltyDetector> {
    detector: D,
    window: FeatureWindow,
    feat: [f32; FEATURE_DIM],
    last: f32,
}

impl<D: NoveltyDetector> NoveltySignal<D> {
    /// Wrap an already-fitted detector.
    pub fn new(detector: D) -> Self {
        NoveltySignal {
            detector,
            window: FeatureWindow::new(),
            feat: [0.0; FEATURE_DIM],
            last: 0.0,
        }
    }

    pub fn detector(&self) -> &D {
        &self.detector
    }
}

impl<D: NoveltyDetector> UncertaintySignal<[f32]> for NoveltySignal<D> {
    fn name(&self) -> &'static str {
        "u_s"
    }

    /// Features live on the Mbit/s scale of [`novelty_corpus`], the
    /// scale the detector was fitted on.
    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.window.push(newest_tput_mbps(obs));
        if self.window.ready() {
            self.window.write(&mut self.feat);
            self.last = self.detector.score(&self.feat);
        }
        // Until warm, hold the quiet value (0.0 initially) so the
        // monitor's variance window sees no spurious jump.
        self.last
    }

    fn reset(&mut self) {
        self.window.reset();
        self.last = 0.0;
    }
}

/// Train traces harvested for the U_S fit corpus. More data is
/// strictly kinder to the classic-ND baseline's accuracy — but its
/// support-vector count (and so its per-decision cost) grows with the
/// corpus, which is the runtime asymmetry `BENCH_osap.json` records:
/// U_π/U_V cost is constant in corpus size.
pub const US_FIT_TRACES: usize = 16;

/// Taps the newest throughput sample while the wrapped agent streams.
/// Its `reset` is the default no-op (see [`novelty_corpus`]).
struct RateCollector {
    rates: Vec<f32>,
}

impl UncertaintySignal<[f32]> for RateCollector {
    fn name(&self) -> &'static str {
        "rate-collector"
    }

    fn observe(&mut self, obs: &[f32]) -> f32 {
        self.rates.push(newest_tput_mbps(obs));
        0.0
    }
}

/// The U_S training corpus: §3.1 feature windows (one row each) of the
/// throughput the ensemble-mean policy sees on the first
/// [`US_FIT_TRACES`] of `traces` — in-distribution by construction.
///
/// Composition: the rate tap is never reset, so its series is the
/// concatenation of every session streamed so far, and after each
/// session the *whole* concatenation is windowed again. With 48-chunk
/// sessions, session `i` adds `48·i − 13` windows: 6320 for the 16
/// traces, of which only 755 are distinct — the first trace's windows
/// appear 16 times, and 195 of the distinct windows straddle a session
/// boundary. Every figure, quickstart and benchmark is pinned to this
/// corpus, so per-session windows are a change of its own (ROADMAP
/// item 1).
pub fn novelty_corpus(
    ens: &SharedEnsemble,
    video: &VideoModel,
    cfg: &AbrConfig,
    traces: &[Trace],
) -> Tensor {
    let mut tap = abr_safe_agent(
        ens.clone(),
        RateCollector { rates: Vec::new() },
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let mut rows = Vec::new();
    for t in &traces[..US_FIT_TRACES.min(traces.len())] {
        run_session(&mut tap, video, cfg, t);
        rows.extend_from_slice(window_features(&tap.signal().rates).data());
    }
    Tensor::from_vec(rows.len() / FEATURE_DIM, FEATURE_DIM, rows)
}

/// The U_S detector: a default-configured one-class SVM fitted on
/// `corpus` (a [`novelty_corpus`]).
pub fn fit_novelty(corpus: &Tensor) -> OcSvm {
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(corpus);
    svm
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_abr::{HISTORY_LEN, OBS_DIM};
    use osa_ocsvm::features::FEATURE_PAIRS;
    use osa_ocsvm::features::FEATURE_WINDOW;

    /// Scores a feature vector by its plain sum — enough to check the
    /// plumbing without a real fit.
    struct SumDetector;
    impl NoveltyDetector for SumDetector {
        fn name(&self) -> &'static str {
            "sum"
        }
        fn fit(&mut self, _x: &Tensor) {}
        fn score(&self, x: &[f32]) -> f32 {
            x.iter().sum()
        }
    }

    #[test]
    fn warmup_then_scores_track_throughput() {
        let mut sig = NoveltySignal::new(SumDetector);
        let mut obs = [0.0f32; OBS_DIM];
        let warm = FEATURE_WINDOW + FEATURE_PAIRS - 1;
        for i in 0..warm - 1 {
            obs[HISTORY_LEN - 1] = 0.3;
            assert_eq!(sig.observe(&obs), 0.0, "push {i} should still be quiet");
        }
        obs[HISTORY_LEN - 1] = 0.3;
        let s = sig.observe(&obs);
        // 5 pairs of (mean 3.0 Mbit/s, std 0): sum = 15.
        assert!((s - 15.0).abs() < 1e-4, "got {s}");
        sig.reset();
        assert_eq!(sig.observe(&obs), 0.0);
    }
}
