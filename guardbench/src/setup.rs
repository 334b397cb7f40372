//! Pieces every workload's set-up shares: the committed ensemble
//! artifact, timed set-up phases, and the process's peak resident set.
//! The training corpus (`osap::corpus`, seed 2020) is the model's
//! training contract, so the SVM fit and every calibration use it
//! whatever the workload seed.

use std::time::Instant;

use osa_bench::osap;
use osa_core::PensieveEnsemble;

use crate::span::{Name, NAMES};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Wall time per set-up phase of one set-up, in ns.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    ns: [u64; NAMES],
}

impl Phases {
    pub fn new() -> Phases {
        Phases { ns: [0; NAMES] }
    }

    /// Run `f` as set-up phase `name`.
    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.ns[name as usize] += start.elapsed().as_nanos() as u64;
        r
    }

    pub fn ms(&self, name: Name) -> f64 {
        self.ns[name as usize] as f64 / 1e6
    }
}

/// The committed 5-replica ensemble's JSON text.
pub fn artifact_text() -> String {
    std::fs::read_to_string(osap::ARTIFACT).expect("read the committed ensemble artifact")
}

/// One owned ensemble parsed from the artifact text.
pub fn parse_ensemble(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("the committed ensemble artifact parses")
}

/// Peak resident set (`VmHWM`) of this process in MB (2^20 bytes); NaN,
/// which fails the run, where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
