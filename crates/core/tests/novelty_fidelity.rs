//! U_S fidelity after the batched novelty-scoring engine, end to end.
//!
//! The batched engine changed the *arithmetic order* of OC-SVM scoring
//! (distance decomposition + `exp_fast` instead of per-SV sequential
//! distances + libm `exp`), so raw score bits differ from the pre-batch
//! implementation by design and the figure artifacts regenerate once.
//! What must NOT drift is the safety behavior of the paper's two
//! headline scenarios, and the agreement between the two production
//! paths that now share the engine:
//!
//! - **fig1 scenario (in-distribution Norway):** a U_S agent calibrated
//!   by [`calibrate`] never switches on held-out in-distribution
//!   traces — zero spurious trips tolerated.
//! - **fig2 scenario (shifted Belgium 4G):** the shift trips most
//!   sessions, and the fleet engine's per-shard batched scoring agrees
//!   with the scalar per-decision agent on every trip decision — same
//!   trip/no-trip, first switch within ±2 decisions (expected exact:
//!   both paths are the same canonical batch engine).
//!
//! These bounds are quoted in EXPERIMENTS.md — widen only with a
//! documented reason.

use osa_abr::prelude::*;
use osa_core::prelude::*;
use osa_ocsvm::prelude::*;
use osa_trace::prelude::*;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

/// First-switch agreement between the scalar and fleet paths (fig2).
const SWITCH_INDEX_TOLERANCE: usize = 2;

fn artifact_text() -> String {
    std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`")
}

fn load_ensemble(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("artifact parses")
}

fn us_agent(text: &str, svm: OcSvm, alpha: f32) -> AbrSafeAgent<NoveltySignal<OcSvm>> {
    let ens = shared(load_ensemble(text));
    abr_safe_agent(
        ens.clone(),
        NoveltySignal::new(svm),
        Monitor::new(DEFAULT_K, alpha, DEFAULT_L),
    )
}

#[test]
fn batched_us_keeps_fig1_quiet_and_fig2_tripping_with_fleet_parity() {
    let text = artifact_text();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    // The figures' U_S fit pipeline on a few training traces.
    let ens = shared(load_ensemble(&text));
    let svm = fit_novelty(&novelty_corpus(&ens, &video, &cfg, &split.train[..4]));

    let mut agent = us_agent(&text, svm.clone(), f32::INFINITY);
    let cal = calibrate(
        &mut agent,
        &video,
        &cfg,
        &split.validation[..3],
        DEFAULT_MARGIN,
    );
    assert!(cal.alpha.is_finite() && cal.alpha > 0.0);

    // fig1: held-out in-distribution traces must never switch.
    let in_dist = &split.test[..4];
    let mut run = SessionRun::default();
    for t in in_dist {
        run_session_into(&mut agent, &video, &cfg, t, &mut run);
        assert_eq!(
            run.switch_index, None,
            "fig1: calibrated U_S agent spuriously switched on {}",
            t.id
        );
    }

    // fig2: the Belgium 4G shift must trip most sessions on the scalar
    // path, and the fleet engine's per-shard batched scoring must agree
    // per session.
    let shifted = Dataset::Belgium.generate(4, 400, 77);
    let mut scalar_profile = Vec::new();
    for t in &shifted {
        run_session_into(&mut agent, &video, &cfg, t, &mut run);
        scalar_profile.push(run.switch_index);
    }
    let tripped = scalar_profile.iter().filter(|s| s.is_some()).count();
    assert!(
        tripped >= shifted.len() / 2,
        "fig2 precondition: the shift must trip most sessions ({tripped}/{})",
        shifted.len()
    );

    let serve = ServeConfig {
        alpha: cal.alpha,
        shard: 3, // smaller than the fleet: forces sub-batched lanes
        ..ServeConfig::default()
    };
    let n = shifted.len();
    let mut fleet = FleetEngine::new(
        load_ensemble(&text),
        FleetSignal::Novelty(svm),
        video.clone(),
        cfg.clone(),
        shifted.clone(),
        n,
        &serve,
    );
    while fleet.round() {}
    for (i, want) in scalar_profile.iter().enumerate() {
        let got = fleet.monitors().tripped_at(i);
        match (*want, got) {
            (Some(si), Some(fi)) => assert!(
                si.abs_diff(fi) <= SWITCH_INDEX_TOLERANCE,
                "fig2 session {i}: first switch scalar @ {si} vs fleet @ {fi} \
                 (tolerance {SWITCH_INDEX_TOLERANCE})"
            ),
            (None, None) => {}
            (w, g) => panic!("fig2 session {i}: trip diverged (scalar {w:?}, fleet {g:?})"),
        }
    }
}
