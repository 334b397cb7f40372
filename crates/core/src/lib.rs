//! `osa-core` — the OSAP framework, the paper's contribution
//! (DESIGN.md §1 row 8).
//!
//! Online safety assurance as described in §2 of the paper:
//!
//! - [`signal`] — the [`UncertaintySignal`] trait, generic over the
//!   observation type, plus U_S ([`NoveltySignal`], novelty detection
//!   via [`osa_ocsvm`]) and its one fit pipeline ([`novelty_corpus`],
//!   [`fit_novelty`]);
//! - [`ensemble`] — the stacked Pensieve replica ensemble (i = 5,
//!   top-2 outliers discarded) with U_π ([`PolicyDisagreement`],
//!   KL-to-mean) and U_V ([`ValueDisagreement`], value
//!   distance-to-mean); inference is one grouped GEMM per layer across
//!   all replicas (`osa_nn::stacked`), never five sequential forwards;
//! - [`monitor`] — k-window variance smoothing and
//!   l-consecutive-exceedance thresholding (§2.5): one state machine,
//!   failing closed on non-finite variances, of which the scalar
//!   [`Monitor`] is a fleet of one;
//! - [`calibrate`] — (α, l) calibration against in-distribution traces;
//! - [`safe_agent`] — the [`SafeAgent`] wrapper: learned policy while
//!   quiet, Buffer-Based once tripped, sticky by default with opt-in
//!   hysteresis-based reverse switching
//!   ([`ReverseConfig`](monitor::ReverseConfig));
//! - [`eval`] — session runs with signal time series, and the
//!   normalized 0 = Random / 1 = BB scoring (§3.3) shared by every
//!   figure binary;
//! - [`serve`] — the fleet-scale serving engine: 100k+ concurrent
//!   sessions with per-session monitor records, sharded across
//!   `osa-runtime` lanes, decided by session-major batched stacked
//!   forwards.
//!
//! # Determinism
//!
//! Signal values, switch decisions, and calibration are bit-identical
//! at any `osa-runtime` worker count: the stacked forwards ride the
//! deterministic grouped GEMM, and every reduction in this crate
//! (variance rings, KL sums, outlier discard) runs in a fixed order —
//! pinned by `tests/determinism_pool.rs` across pools {1, 2, 4, 8}.
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod ensemble;
pub mod eval;
pub mod monitor;
pub mod safe_agent;
pub mod serve;
pub mod signal;

pub use calibrate::{calibrate, calibrate_novelty, Calibration, DEFAULT_MARGIN};
pub use ensemble::{
    shared, PensieveEnsemble, PolicyDisagreement, ServePrecision, SharedEnsemble,
    ValueDisagreement, ENSEMBLE_FORMAT_VERSION,
};
pub use eval::{
    anchors, calibration_observations, evaluate_safe_agent, normalized, run_session,
    run_session_into, Anchors, SafeScore, SessionRun,
};
pub use monitor::{Monitor, ReverseConfig, DEFAULT_K};
pub use safe_agent::{
    abr_safe_agent, AbrSafeAgent, BufferFallback, EnsemblePolicy, SafeAgent, SafetyPolicy,
    BUFFER_COL,
};
pub use serve::{FleetEngine, FleetSignal, FleetTelemetry, ServeConfig};
pub use signal::{fit_novelty, novelty_corpus, NoveltySignal, NullSignal, UncertaintySignal};

/// Ensemble size the paper uses for U_π and U_V (§3.1).
pub const ENSEMBLE_SIZE: usize = 5;

/// Ensemble members kept after discarding the top-2 outliers (§3.1).
pub const ENSEMBLE_KEEP: usize = 3;

/// Consecutive threshold exceedances required before defaulting (§3.1).
pub const DEFAULT_L: usize = 3;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::calibrate::{calibrate, calibrate_novelty, Calibration, DEFAULT_MARGIN};
    pub use crate::ensemble::{
        shared, PensieveEnsemble, PolicyDisagreement, ServePrecision, SharedEnsemble,
        ValueDisagreement, ENSEMBLE_FORMAT_VERSION,
    };
    pub use crate::eval::{
        anchors, calibration_observations, evaluate_safe_agent, normalized, run_session,
        run_session_into, Anchors, SafeScore, SessionRun,
    };
    pub use crate::monitor::{Monitor, ReverseConfig, DEFAULT_K};
    pub use crate::safe_agent::{
        abr_safe_agent, AbrSafeAgent, BufferFallback, EnsemblePolicy, SafeAgent, SafetyPolicy,
        BUFFER_COL,
    };
    pub use crate::serve::{FleetEngine, FleetSignal, FleetTelemetry, ServeConfig};
    pub use crate::signal::{
        fit_novelty, novelty_corpus, NoveltySignal, NullSignal, UncertaintySignal,
    };
    pub use crate::{DEFAULT_L, ENSEMBLE_KEEP, ENSEMBLE_SIZE};
}

const _: () = assert!(
    ENSEMBLE_KEEP <= ENSEMBLE_SIZE && ENSEMBLE_SIZE - ENSEMBLE_KEEP == 2,
    "the paper's i = 5 / keep = 3 trimmed configuration"
);
