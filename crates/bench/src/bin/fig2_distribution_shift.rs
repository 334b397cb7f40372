//! Figure 2 — QoE under distribution shift (§2.2 / §3.3).
//!
//! The Norway-trained system streams six Belgium 4G sessions. The
//! unguarded ensemble-mean policy is out of its depth there; each
//! guarded agent should detect the shift and hand over to Buffer-Based,
//! recovering most of the gap to a BB-from-the-start oracle. Anchors
//! (0 = Random, 1 = BB) are recomputed *on the Belgium set*, so 1.0 is
//! what a perfectly-timed switch could approach.
//!
//! Writes `artifacts/figures/fig2_distribution_shift.json`.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;
use osa_nn::json::{obj, Value};
use osa_trace::prelude::*;

fn main() {
    let split = osap::corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let ens = osap::load_ensemble();
    let shifted = Dataset::Belgium.generate(6, osap::CORPUS_LEN, 77);
    let anch = anchors(&video, &cfg, &shifted, osap::CORPUS_SEED);
    let mut rows = Vec::new();

    println!("policy            norm QoE   switched/6   mean switch idx");
    let mut push_row = |name: &str, score: &SafeScore, alpha: Option<f32>| {
        let norm = normalized(score.mean_qoe, &anch);
        println!(
            "{name:<16} {norm:+9.3}   {:>10}   {:>15.1}",
            score.switched_sessions, score.mean_switch_index
        );
        let mut fields = vec![
            ("policy", Value::Str(name.into())),
            ("normalized_qoe", Value::Num(norm)),
            (
                "switched_sessions",
                Value::Num(score.switched_sessions as f64),
            ),
            ("mean_switch_index", Value::Num(score.mean_switch_index)),
            ("rebuffer_s_per_session", Value::Num(score.mean_rebuffer_s)),
        ];
        if let Some(a) = alpha {
            fields.push(("alpha", Value::Num(a as f64)));
        }
        rows.push(obj(fields));
    };

    let svm = fit_novelty(&novelty_corpus(&ens, &video, &cfg, &split.train));
    let mut unguarded = abr_safe_agent(
        ens.clone(),
        NullSignal,
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let score = evaluate_safe_agent(&mut unguarded, &video, &cfg, &shifted);
    push_row("ensemble-mean", &score, None);

    for (name, mut agent, cal) in osap::calibrated_signal_agents(
        &ens,
        svm.clone(),
        &video,
        &cfg,
        &split.validation,
        DEFAULT_MARGIN,
    ) {
        let score = evaluate_safe_agent(&mut agent, &video, &cfg, &shifted);
        push_row(name, &score, Some(cal.alpha));
    }

    let report = obj(vec![
        ("figure", Value::Str("fig2_distribution_shift".into())),
        ("dataset", Value::Str("belgium-4g".into())),
        ("margin", Value::Num(DEFAULT_MARGIN as f64)),
        ("random_qoe", Value::Num(anch.random_qoe)),
        ("bb_qoe", Value::Num(anch.bb_qoe)),
        ("rows", Value::Arr(rows)),
    ]);
    let path = osap::figure_path("fig2_distribution_shift.json");
    osa_bench::write_report(&path, report).expect("write figure artifact");
    println!("written to {}", path.display());
}
