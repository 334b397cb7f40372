//! Proof that the OSAP steady-state decision loop is allocation-free:
//! signal observe → k-window variance → threshold → act, for all three
//! signals, must not touch the heap after warm-up.
//!
//! Everything in the loop reuses preallocated storage: the ensemble's
//! stacked forward writes into workspace tensors, U_π/U_V deviations
//! go into a capacity-5 scratch vec, U_S's feature window is an
//! incremental ring writing into a fixed array, and the monitor is a
//! fixed ring. The safety layer adds *zero* allocations on top of the
//! policy it guards.
//!
//! Lives in its own integration-test binary because `CountingAlloc` is
//! process-global state.

use osa_abr::prelude::*;
use osa_bench::counting_alloc::{min_window_allocations, CountingAlloc};
use osa_core::prelude::*;
use osa_nn::rng::Rng;
use osa_ocsvm::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP_DECISIONS: usize = 32;
// Min-over-windows isolates the decision loop's own allocations from
// concurrent libtest-harness noise (see `min_window_allocations`).
const WINDOWS: usize = 5;
const DECISIONS_PER_WINDOW: usize = 50;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

/// A bank of plausible observations to cycle through, so the loop sees
/// changing inputs (constant inputs would let a lazy cache hide
/// allocations that real traffic triggers).
fn obs_bank(rng: &mut Rng) -> Vec<Vec<f32>> {
    (0..16)
        .map(|_| (0..OBS_DIM).map(|_| rng.next_f32() * 0.5).collect())
        .collect()
}

fn fitted_svm(rng: &mut Rng) -> OcSvm {
    let rates: Vec<f32> = (0..160).map(|_| 1.0 + rng.next_f32() * 3.0).collect();
    fit_novelty(&window_features(&rates))
}

#[test]
fn steady_state_safe_agent_loop_is_allocation_free() {
    let mut rng = Rng::seed_from_u64(7);
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    let ens = shared(PensieveEnsemble::from_json(&text).expect("artifact parses"));
    let bank = obs_bank(&mut rng);

    // Monitors with an infinite threshold: the measured loop is the
    // quiet steady state (observe → variance → compare → learned act),
    // which is where every in-distribution decision lives.
    let mut u_s = abr_safe_agent(
        ens.clone(),
        NoveltySignal::new(fitted_svm(&mut rng)),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let mut u_pi = abr_safe_agent(
        ens.clone(),
        PolicyDisagreement::new(ens.clone()),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );
    let mut u_v = abr_safe_agent(
        ens.clone(),
        ValueDisagreement::new(ens.clone()),
        Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L),
    );

    let mut i = 0usize;
    let mut round =
        |u_s: &mut AbrSafeAgent<_>, u_pi: &mut AbrSafeAgent<_>, u_v: &mut AbrSafeAgent<_>| {
            let obs: &[f32] = &bank[i % bank.len()];
            i += 1;
            std::hint::black_box(u_s.decide(obs));
            std::hint::black_box(u_pi.decide(obs));
            std::hint::black_box(u_v.decide(obs));
        };

    for _ in 0..WARMUP_DECISIONS {
        round(&mut u_s, &mut u_pi, &mut u_v);
    }

    let min = min_window_allocations(WINDOWS, DECISIONS_PER_WINDOW, || {
        round(&mut u_s, &mut u_pi, &mut u_v);
    });
    assert_eq!(
        min, 0,
        "steady-state safe-agent loop touched the heap ({min} allocations \
         in the cleanest of {WINDOWS} windows of {DECISIONS_PER_WINDOW} \
         decisions across U_S, U_pi, and U_V)"
    );
}
