//! OSAP end-to-end quickstart — the CI smoke test for the safety layer.
//!
//! Builds the paper's §3.1 pipeline from the committed ensemble
//! artifact: fit the U_S one-class SVM on in-distribution throughput
//! windows, stand up U_S and U_V safe agents over the 5-replica
//! Pensieve ensemble, calibrate (α, l) on the validation split, then
//! deploy on one in-distribution Norway session (must stay quiet) and
//! one Belgium 4G session (distribution shift — both signals must trip,
//! and the decision-aware U_V at least as early as the input-side U_S).
//! The whole run executes twice and must produce identical transcripts
//! — the safety layer is bit-deterministic at any `OSA_THREADS`.
//!
//! ```sh
//! cargo run --release --example osap_quickstart
//! ```

use osa::abr::prelude::*;
use osa::core::prelude::*;
use osa::trace::prelude::*;

/// Corpus contract shared with `examples/osap_ensemble_train.rs`.
const CORPUS_COUNT: usize = 60;
const CORPUS_LEN: usize = 400;
const CORPUS_SEED: u64 = 2020;

fn trip_report(name: &str, quiet: Option<usize>, shifted: Option<usize>) -> String {
    let fmt = |s: Option<usize>| match s {
        Some(i) => format!("switched at decision {i}"),
        None => "never switched".to_string(),
    };
    format!(
        "{name}: in-distribution {}, Belgium {}",
        fmt(quiet),
        fmt(shifted)
    )
}

fn run_once() -> Vec<String> {
    let split = Split::generate(Dataset::Norway, CORPUS_COUNT, CORPUS_LEN, CORPUS_SEED);
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/artifacts/pensieve_ensemble_norway.json"
    ))
    .expect("run `cargo run --release --example osap_ensemble_train` first");
    let ens = shared(PensieveEnsemble::from_json(&text).expect("valid ensemble artifact"));
    let mut lines = Vec::new();

    // U_S feature corpus: throughput windows harvested from
    // in-distribution sessions driven by the ensemble-mean policy.
    let corpus = novelty_corpus(&ens, &video, &cfg, &split.train);
    let svm = fit_novelty(&corpus);
    let diag = svm.diag().expect("fitted");
    lines.push(format!(
        "U_S one-class SVM: {} windows, {} support vectors, KKT gap {:.3e}",
        corpus.rows(),
        diag.support_vectors,
        diag.kkt_gap
    ));

    let mut u_s = abr_safe_agent(
        ens.clone(),
        NoveltySignal::new(svm),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let mut u_v = abr_safe_agent(
        ens.clone(),
        ValueDisagreement::new(ens.clone()),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let cal_s = calibrate(&mut u_s, &video, &cfg, &split.validation, DEFAULT_MARGIN);
    let cal_v = calibrate(&mut u_v, &video, &cfg, &split.validation, DEFAULT_MARGIN);
    lines.push(format!(
        "calibrated: U_S alpha {:.4e}, U_V alpha {:.4e} (k {}, l {}, margin {DEFAULT_MARGIN})",
        cal_s.alpha, cal_v.alpha, cal_s.k, cal_s.l
    ));

    // Deployment: a held-out Norway session (in-distribution) and a
    // Belgium 4G session (the paper's distribution-shift scenario).
    let quiet = split.test[0].clone();
    let shifted = Dataset::Belgium
        .generate(1, CORPUS_LEN, 77)
        .pop()
        .expect("one Belgium trace");

    let s_quiet = run_session(&mut u_s, &video, &cfg, &quiet).switch_index;
    let s_shift = run_session(&mut u_s, &video, &cfg, &shifted).switch_index;
    let v_quiet = run_session(&mut u_v, &video, &cfg, &quiet).switch_index;
    let v_shift = run_session(&mut u_v, &video, &cfg, &shifted).switch_index;
    lines.push(trip_report("U_S", s_quiet, s_shift));
    lines.push(trip_report("U_V", v_quiet, v_shift));

    assert_eq!(s_quiet, None, "U_S must stay quiet in distribution");
    assert_eq!(v_quiet, None, "U_V must stay quiet in distribution");
    let s_at = s_shift.expect("U_S must trip on the Belgium shift");
    let v_at = v_shift.expect("U_V must trip on the Belgium shift");
    assert!(
        v_at <= s_at,
        "decision-aware U_V ({v_at}) must trip at least as early as input-side U_S ({s_at})"
    );
    lines
}

fn main() {
    let start = std::time::Instant::now();
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "quickstart must be bit-deterministic");
    for line in &first {
        println!("{line}");
    }
    println!("two runs identical ({:.2?})", start.elapsed());
}
