//! The novelty detector behind the U_S uncertainty signal.
//!
//! The paper's classic-ND baseline is a one-class SVM ([`OcSvm`]) behind
//! the [`NoveltyDetector`] contract: `fit` on a matrix of
//! in-distribution feature rows, then score queries — higher means more
//! novel — either one row at a time ([`NoveltyDetector::score`]) or a
//! whole batch in one call ([`NoveltyDetector::score_batch_into`]).
//!
//! # The batched scoring engine
//!
//! [`OcSvm`] scoring is dominated by `Σᵢ αᵢ exp(-γ‖z(x) − svᵢ‖²)` over
//! ~650 support vectors. The batched engine decomposes the distance,
//! `‖z − svᵢ‖² = ‖z‖² + ‖svᵢ‖² − 2·z·svᵢᵀ`, so the cross terms for a
//! batch of `S` queries become ONE `S×d · (nsv×d)ᵀ` GEMM through the
//! `osa-nn` lane-group micro-kernels, followed by a fused
//! exponential + α-weighted lane-8 reduction per row ([`crate::kernel`]).
//! Support-vector norms (`‖svᵢ‖²`) and the α·exp weights' inputs are
//! precomputed at fit time; each query is standardized exactly once
//! (the old scalar loop re-divided by the per-dimension std for every
//! support vector).
//!
//! The batched path is the *canonical* computation: the scalar `score`
//! delegates to a batch of one, so scores are bit-identical at every
//! batch size — GEMM rows are computed independently (and sharded by
//! row across the pool), so grouping queries can never change a row's
//! bits, at any `OSA_THREADS`. Scratch lives in a thread-local
//! [`Workspace`] arena, so neither path allocates after its first call
//! on a given thread.

use crate::kernel::{exp_fast, sq_norm};
use crate::smo::{solve_one_class, SmoConfig, SmoResult};
use osa_nn::tensor::{fold8, Tensor, KLANES};
use osa_nn::workspace::Workspace;

/// A novelty scorer: fit on in-distribution rows, then score queries.
/// Higher scores mean *more novel* for every implementation.
pub trait NoveltyDetector {
    /// Short stable identifier used in benchmark and figure artifacts.
    fn name(&self) -> &'static str;
    /// Fit on a matrix whose rows are in-distribution feature vectors.
    /// Panics if `x` is empty.
    fn fit(&mut self, x: &Tensor);
    /// Novelty score of one feature vector (same dimensionality as the
    /// training rows). Panics if called before `fit`. Never allocates
    /// (implementations may warm a thread-local scratch arena on their
    /// first call per thread).
    fn score(&self, x: &[f32]) -> f32;
    /// Score every row of `x` into `out` in one call. Bit-identical to
    /// scoring the rows one at a time with [`NoveltyDetector::score`] —
    /// for [`OcSvm`] the batch *is* the canonical path and the scalar
    /// call delegates here; the default implementation loops the scalar
    /// path, which keeps that contract trivially true for detectors
    /// without a batched kernel. Panics if `out.len() != x.rows()` or
    /// before `fit`.
    fn score_batch_into(&self, x: &Tensor, out: &mut [f32]) {
        assert_eq!(x.rows(), out.len(), "score_batch_into output length");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.score(x.row(i));
        }
    }
}

/// Per-dimension standardization statistics of a training set.
#[derive(Clone, Debug, Default)]
struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    fn fit(x: &Tensor) -> Standardizer {
        let (n, d) = (x.rows(), x.cols());
        assert!(n > 0, "cannot standardize an empty training set");
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(i)) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; d];
        for i in 0..n {
            for ((s, &v), &m) in var.iter_mut().zip(x.row(i)).zip(&mean) {
                let dv = v as f64 - m;
                *s += dv * dv;
            }
        }
        Standardizer {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std: var
                .iter()
                .map(|&s| ((s / n as f64).sqrt() as f32).max(1e-6))
                .collect(),
        }
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        let mut z = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            self.apply_row_into(x.row(i), z.row_mut(i));
        }
        z
    }

    /// Standardize one raw row into `z`. Dimensions are checked by
    /// `debug_assert!` only — callers validate query width once at the
    /// batch boundary, not per row.
    #[inline]
    fn apply_row_into(&self, x: &[f32], z: &mut [f32]) {
        debug_assert_eq!(x.len(), self.mean.len(), "standardizer dimension");
        debug_assert_eq!(z.len(), self.mean.len(), "standardizer dimension");
        for (j, zv) in z.iter_mut().enumerate() {
            *zv = (x[j] - self.mean[j]) / self.std[j];
        }
    }
}

/// Configuration for [`OcSvm`].
#[derive(Clone, Copy, Debug)]
pub struct OcSvmConfig {
    /// Schölkopf ν: upper-bounds the training outlier fraction and
    /// lower-bounds the support-vector fraction.
    pub nu: f64,
    /// RBF width; `None` picks `1/d` on standardized data.
    pub gamma: Option<f32>,
    /// SMO convergence controls.
    pub smo: SmoConfig,
}

impl Default for OcSvmConfig {
    fn default() -> Self {
        OcSvmConfig {
            nu: 0.1,
            gamma: None,
            smo: SmoConfig::default(),
        }
    }
}

/// The paper's one-class SVM (§3.1): RBF kernel, ν-parameterized dual
/// solved by [`solve_one_class`]. The novelty score is the negated
/// decision function `ρ − Σᵢ αᵢ K(z(x), svᵢ)` — positive outside the
/// learned region, negative inside.
#[derive(Clone, Debug)]
pub struct OcSvm {
    cfg: OcSvmConfig,
    std: Standardizer,
    gamma: f32,
    /// Standardized support vectors, one per row.
    svs: Tensor,
    /// Dual coefficient of each support vector (f32 is plenty for the
    /// score sum; the solver works in f64).
    sv_alphas: Vec<f32>,
    /// `‖svᵢ‖²` in the lane-8 accumulation order, precomputed at fit
    /// time for the distance decomposition.
    sv_norms: Vec<f32>,
    rho: f32,
    /// `ln(max(ρ, LOG_FLOOR))`, precomputed so the score epilogue is one
    /// `ln` per row instead of two.
    ln_rho: f32,
    diag: Option<FitDiag>,
}

/// Solver diagnostics surfaced for tests and the runtime-cost table.
#[derive(Clone, Copy, Debug)]
pub struct FitDiag {
    pub iters: usize,
    pub kkt_gap: f64,
    pub support_vectors: usize,
    /// Training rows at the box ceiling (the margin-error count that ν
    /// upper-bounds as a fraction).
    pub bounded_svs: usize,
}

impl OcSvm {
    pub fn new(cfg: OcSvmConfig) -> OcSvm {
        OcSvm {
            cfg,
            std: Standardizer::default(),
            gamma: 0.0,
            svs: Tensor::zeros(0, 0),
            sv_alphas: Vec::new(),
            sv_norms: Vec::new(),
            rho: 0.0,
            ln_rho: 0.0,
            diag: None,
        }
    }

    pub fn support_vectors(&self) -> usize {
        self.sv_alphas.len()
    }

    pub fn diag(&self) -> Option<FitDiag> {
        self.diag
    }

    /// Decision function `Σᵢ αᵢ K(z(x), svᵢ) − ρ` (positive inside).
    pub fn decision(&self, x: &[f32]) -> f32 {
        self.kernel_sum(x) - self.rho
    }

    /// Raw linear-domain novelty `ρ − Σᵢ αᵢ K(z(x), svᵢ)` (positive
    /// outside). Saturates at ρ for far inputs — see
    /// [`NoveltyDetector::score`] for the monitoring-friendly transform.
    pub fn raw_score(&self, x: &[f32]) -> f32 {
        self.rho - self.kernel_sum(x)
    }

    /// Kernel expansions `Σᵢ αᵢ K(z(xⱼ), svᵢ)` for every row of `x` in
    /// one pass: standardize the batch, one `S×d · (nsv×d)ᵀ` GEMM for
    /// the cross terms, then the fused exp + α-weighted reduction per
    /// row. This is the canonical evaluation — the scalar accessors
    /// ([`OcSvm::decision`], [`OcSvm::raw_score`],
    /// [`NoveltyDetector::score`]) all route through it as a batch of
    /// one, so results are bit-identical at every batch size. Panics if
    /// called before `fit`, on a query-width mismatch, or if
    /// `out.len() != x.rows()`.
    pub fn kernel_sums_into(&self, x: &Tensor, out: &mut [f32]) {
        assert!(!self.sv_alphas.is_empty(), "OcSvm::score before fit");
        assert_eq!(x.cols(), self.std.mean.len(), "feature dimension");
        assert_eq!(x.rows(), out.len(), "kernel_sums_into output length");
        let s = x.rows();
        if s == 0 {
            return;
        }
        let (mut z, mut cross) = SCORE_ARENA.with(|w| {
            let mut w = w.borrow_mut();
            (w.take(s, x.cols()), w.take(s, self.svs.rows()))
        });
        for i in 0..s {
            self.std.apply_row_into(x.row(i), z.row_mut(i));
        }
        z.matmul_t_into(&self.svs, &mut cross);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.weighted_row(sq_norm(z.row(i)), cross.row(i));
        }
        SCORE_ARENA.with(|w| {
            let mut w = w.borrow_mut();
            w.recycle(z);
            w.recycle(cross);
        });
    }

    /// One row of the batched epilogue: reconstruct each squared
    /// distance from the precomputed norms and the GEMM cross term,
    /// then accumulate `αᵢ·exp(-γd²)` in the lane-8 contract order.
    /// The `max(0.0)` guards the decomposition against tiny negative
    /// distances from cancellation (exact zero is guaranteed only when
    /// the operands are bit-identical, e.g. a query that *is* a support
    /// vector).
    #[inline]
    fn weighted_row(&self, xn: f32, cross: &[f32]) -> f32 {
        let g = self.gamma;
        let norms = &self.sv_norms[..cross.len()];
        let alphas = &self.sv_alphas[..cross.len()];
        let n = cross.len();
        let mut lanes = [0.0f32; KLANES];
        let mut p = 0;
        while p + KLANES <= n {
            let nx: &[f32; KLANES] = norms[p..][..KLANES].try_into().expect("lane group");
            let cx: &[f32; KLANES] = cross[p..][..KLANES].try_into().expect("lane group");
            let ax: &[f32; KLANES] = alphas[p..][..KLANES].try_into().expect("lane group");
            for l in 0..KLANES {
                let d2 = (xn + nx[l] - 2.0 * cx[l]).max(0.0);
                lanes[l] += ax[l] * exp_fast(-g * d2);
            }
            p += KLANES;
        }
        let rem = n - p; // tail: support vector p + l lands in lane l
        for l in 0..rem {
            let d2 = (xn + norms[p + l] - 2.0 * cross[p + l]).max(0.0);
            lanes[l] += alphas[p + l] * exp_fast(-g * d2);
        }
        fold8(lanes)
    }

    fn kernel_sum(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.std.mean.len(), "feature dimension");
        let mut q = SCORE_ARENA.with(|w| w.borrow_mut().take(1, x.len()));
        q.row_mut(0).copy_from_slice(x);
        let mut out = [0.0f32];
        self.kernel_sums_into(&q, &mut out);
        SCORE_ARENA.with(|w| w.borrow_mut().recycle(q));
        out[0]
    }
}

thread_local! {
    /// Scratch for the batched scorer: the standardized query block and
    /// the GEMM cross-term block. Thread-local (mirroring the pack
    /// arena in `osa_nn::tensor`) so scoring stays `&self` and
    /// allocation-free after the first call per thread — each fleet
    /// lane warms its own pool once.
    static SCORE_ARENA: std::cell::RefCell<Workspace> =
        std::cell::RefCell::new(Workspace::new());
}

/// Floor for the kernel expansion before taking logs: far inputs
/// underflow `Σ αᵢ K` to exactly 0.
const LOG_FLOOR: f32 = 1e-30;

impl NoveltyDetector for OcSvm {
    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn fit(&mut self, x: &Tensor) {
        self.std = Standardizer::fit(x);
        let z = self.std.apply(x);
        self.gamma = self.cfg.gamma.unwrap_or(1.0 / x.cols().max(1) as f32);
        let r: SmoResult = solve_one_class(&z, self.gamma, self.cfg.nu, &self.cfg.smo);
        let c = 1.0 / (self.cfg.nu * x.rows() as f64);
        let sv_idx: Vec<usize> = (0..x.rows()).filter(|&i| r.alphas[i] > 0.0).collect();
        let mut svs = Tensor::zeros(sv_idx.len(), x.cols());
        for (s, &i) in sv_idx.iter().enumerate() {
            svs.row_mut(s).copy_from_slice(z.row(i));
        }
        self.sv_alphas = sv_idx.iter().map(|&i| r.alphas[i] as f32).collect();
        self.sv_norms = (0..sv_idx.len()).map(|s| sq_norm(svs.row(s))).collect();
        self.svs = svs;
        self.rho = r.rho as f32;
        self.ln_rho = self.rho.max(LOG_FLOOR).ln();
        self.diag = Some(FitDiag {
            iters: r.iters,
            kkt_gap: r.kkt_gap,
            support_vectors: sv_idx.len(),
            bounded_svs: sv_idx
                .iter()
                .filter(|&&i| r.alphas[i] >= c * (1.0 - 1e-8))
                .count(),
        });
    }

    /// Log-domain novelty `ln ρ − ln Σᵢ αᵢ K(z(x), svᵢ)`.
    ///
    /// A strictly monotone transform of [`OcSvm::raw_score`]: same sign
    /// at the decision boundary (`f = ρ`), same induced ordering. The
    /// linear-domain value saturates at ρ as the kernels underflow, so
    /// under a *sustained* distribution shift it goes constant and its
    /// k-window variance collapses back below any threshold; the log
    /// domain keeps growing like `γ·d²`, which is what the variance
    /// monitor needs to see.
    fn score(&self, x: &[f32]) -> f32 {
        self.ln_rho - self.kernel_sum(x).max(LOG_FLOOR).ln()
    }

    /// The batched engine: one GEMM for the whole batch's cross terms,
    /// then the log epilogue per row. [`NoveltyDetector::score`] is a
    /// batch of one through the same code, so the bits never depend on
    /// batch size.
    fn score_batch_into(&self, x: &Tensor, out: &mut [f32]) {
        self.kernel_sums_into(x, out);
        for o in out.iter_mut() {
            *o = self.ln_rho - o.max(LOG_FLOOR).ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::rng::Rng;

    fn cluster(n: usize, d: usize, center: f32, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = Tensor::zeros(n, d);
        for v in t.data_mut() {
            *v = center + rng.range_f32(-0.5, 0.5);
        }
        t
    }

    #[test]
    fn ocsvm_ranks_far_points_above_training_points() {
        let x = cluster(120, 4, 1.0, 11);
        let mut det = OcSvm::new(OcSvmConfig::default());
        det.fit(&x);
        let inlier = det.score(x.row(0));
        let outlier = det.score(&[25.0; 4]);
        assert!(outlier > inlier, "outlier {outlier} <= inlier {inlier}");
    }

    #[test]
    fn ocsvm_score_variants_agree_on_the_boundary_sign() {
        let x = cluster(80, 3, 0.0, 5);
        let mut det = OcSvm::new(OcSvmConfig::default());
        det.fit(&x);
        // Inliers near the cluster, outliers far away: decision,
        // raw_score, and the log-domain score must classify alike.
        for q in [[0.1f32, -0.2, 0.05], [0.3, 0.1, -0.1], [8.0, -9.0, 7.5]] {
            assert_eq!(det.decision(&q).to_bits(), (-det.raw_score(&q)).to_bits());
            assert_eq!(
                det.raw_score(&q) > 0.0,
                det.score(&q) > 0.0,
                "log transform must preserve the boundary at {q:?}"
            );
        }
        // Monotone: a far point scores strictly above a near one.
        assert!(det.score(&[9.0, 9.0, 9.0]) > det.score(&[0.1, -0.2, 0.05]));
    }
}
