//! One run's result: human-readable lines, then the JSON line the
//! benchmark contract asks for as the last line of standard output.

use std::io;
use std::path::Path;

use crate::outcome::Outcomes;
use crate::setup::Phases;
use crate::span::Name;
use crate::stats::{Summary, Timing, TAIL_SAMPLES};

/// The JSON line's metrics with `--trace 0`, with their units — the
/// `end_to_end` entries of `BENCHMARK.json`, in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qoe_per_chunk", "qoe/chunk"),
    ("correct_switch_share", "share"),
];

/// The JSON line's metrics with `--trace 1` — the `per_layer` entries of
/// `BENCHMARK.json`, in order. A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("abr.fill_obs_us", "us"),
    ("abr.step_all_us", "us"),
    ("abr.session_step_us", "us"),
    ("abr.fallback_pick_us", "us"),
    ("abr.fallback_share", "share"),
    ("abr.rollovers_per_kdec", "1/kdec"),
    ("nn.actor_forward_us", "us"),
    ("nn.gflops", "GFLOP/s"),
    ("nn.mb_moved", "MB/round"),
    ("core.ensemble.head_us", "us"),
    ("core.ensemble.policy_decide_us", "us"),
    ("ocsvm.feature_us", "us"),
    ("ocsvm.score_batch_us", "us"),
    ("ocsvm.scored_share", "share"),
    ("core.signal.u_s_us", "us"),
    ("core.signal.u_pi_us", "us"),
    ("core.signal.u_v_us", "us"),
    ("core.monitor.update_us", "us"),
    ("core.monitor.reset_us", "us"),
    ("core.monitor.observing_share", "share"),
    ("core.monitor.trips_per_kdec", "1/kdec"),
    ("core.monitor.recoveries_per_kdec", "1/kdec"),
    ("core.monitor.locks_per_kdec", "1/kdec"),
    ("core.serve.round_us", "us"),
    ("core.serve.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
    ("core.ensemble.load_ms", "ms"),
    ("trace.generate_ms", "ms"),
    ("ocsvm.fit_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("allocs_per_decision", "count"),
    ("wrong_switch_share", "share"),
    ("detection_delay_chunks", "chunks"),
    ("failed_decision_share", "share"),
];

/// Layer metrics only the on-request workloads (`fleet_uv_steady`,
/// `fleet_uv_steady_int8`) move: their per-layer report prints them,
/// but its JSON line leaves them out, as no workload of
/// `BENCHMARK.json` calls these layers.
pub const ON_REQUEST_LAYER: &[(&str, &str)] = &[
    ("nn.critic_forward_us", "us"),
    ("nn.quant_forward_us", "us"),
    ("nn.int8_calibrate_ms", "ms"),
];

/// The spans must account for the untraced round within this share:
/// `|round − Σ layer self times| ≤ CLOSURE_TOLERANCE · round`.
pub const CLOSURE_TOLERANCE: f64 = 0.10;

pub struct Report {
    attempted: u64,
    failed: u64,
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    /// Printed alongside, not part of the JSON line.
    info: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// An end-to-end report (`traced = false`) or a per-layer one.
    pub fn new(traced: bool, attempted: u64, failed: u64) -> Report {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut r = Report {
            attempted: attempted.max(1),
            failed,
            table,
            values: vec![None; table.len()],
            info: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        };
        if failed > 0 {
            r.fail(format!("{failed} decisions failed an output check"));
        }
        r
    }

    /// Set one of the JSON line's metrics, or print an on-request
    /// layer's.
    pub fn metric(&mut self, name: &str, value: f64) {
        if let Some(i) = self.table.iter().position(|(n, _)| *n == name) {
            self.values[i] = Some(value);
            return;
        }
        match ON_REQUEST_LAYER.iter().find(|(n, _)| *n == name) {
            Some(&(n, unit)) if self.table == PER_LAYER => self.info(n, value, unit),
            _ => panic!("{name} is not a metric of this report"),
        }
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// The timing metrics from per-decision (scalar) or per-round
    /// (fleet) samples in ns, each standing for `decisions_per_sample`
    /// decisions: from the run's quiet samples (see [`Timing`]), with
    /// the whole run's percentiles printed beside them. p95 must leave
    /// [`TAIL_SAMPLES`] samples beyond it.
    pub fn timings(&mut self, t: &Timing, decisions_per_sample: f64, what: &str) {
        if !t.by_p95.p95_supported() {
            self.fail(format!(
                "{} samples leave fewer than {TAIL_SAMPLES} beyond p95",
                t.by_p95.n
            ));
        }
        self.note(format!(
            "{} timed {what}; quiet samples: {} ({} {what} for p50, {} for p95; \
             highest supported percentile p{})",
            t.all.n,
            t.picked,
            t.by_p50.n,
            t.by_p95.n,
            t.by_p95.top.map_or(0.0, |q| q.0),
        ));
        self.metric("decisions_per_s", t.per_s * decisions_per_sample);
        self.metric("decision_p50_us", t.by_p50.p50 / 1e3);
        self.metric("decision_p95_us", t.by_p95.p95 / 1e3);
        self.info("whole_run_decision_p50_us", t.all.p50 / 1e3, "us");
        self.info("whole_run_decision_p95_us", t.all.p95 / 1e3, "us");
    }

    /// The rest of the end-to-end metrics, and the deterministic ones
    /// printed beside them.
    pub fn quality(
        &mut self,
        setups: &mut [f64],
        qoe_per_chunk: f64,
        outcomes: &Outcomes,
        allocs_per_decision: f64,
    ) {
        self.metric("setup_s", Summary::of(setups).p50);
        self.metric("peak_rss_mb", crate::setup::peak_rss_mb());
        self.metric("qoe_per_chunk", qoe_per_chunk);
        self.metric("correct_switch_share", 1.0 - outcomes.wrong_switch_share());
        self.info("wrong_switch_share", outcomes.wrong_switch_share(), "share");
        self.info("allocs_per_decision", allocs_per_decision, "count");
        let delay = outcomes.detection_delay_chunks();
        self.info(
            "detection_delay_chunks",
            delay.unwrap_or(f64::NAN),
            "chunks",
        );
        let failed_share = self.failed as f64 / self.attempted as f64;
        self.info("failed_decision_share", failed_share, "share");
        self.outcomes(outcomes);
    }

    /// The per-layer report's set-up spans, and the end-to-end counts it
    /// repeats.
    pub fn traced_tail(&mut self, ph: &Phases, outcomes: &Outcomes, allocs_per_decision: f64) {
        self.metric("core.ensemble.load_ms", ph.ms(Name::SetupLoad));
        self.metric("trace.generate_ms", ph.ms(Name::SetupTraces));
        self.metric("ocsvm.fit_ms", ph.ms(Name::SetupFit));
        self.metric("core.calibrate_ms", ph.ms(Name::SetupCalibrate));
        self.metric("nn.int8_calibrate_ms", ph.ms(Name::SetupInt8));
        self.metric("allocs_per_decision", allocs_per_decision);
        self.metric("wrong_switch_share", outcomes.wrong_switch_share());
        let delay = outcomes.detection_delay_chunks();
        self.metric("detection_delay_chunks", delay.unwrap_or(0.0));
        let failed_share = self.failed as f64 / self.attempted as f64;
        self.metric("failed_decision_share", failed_share);
        self.outcomes(outcomes);
    }

    fn outcomes(&mut self, o: &Outcomes) {
        self.note(format!(
            "outcome window: {} videos ({} shifted): {} wrong switch outcomes, \
             {} shifted videos detected ({} before onset)",
            o.videos, o.shifted, o.wrong, o.detected, o.early
        ));
    }

    /// Record where the traced run's spans went; failing to write them
    /// fails the run.
    pub fn spans(&mut self, path: &Path, written: io::Result<()>) {
        match written {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.fail(format!("spans not written to {}: {e}", path.display())),
        }
    }

    /// Check that the spans account for the round, and report the
    /// untraced round, the unattributed rest and the tracing overhead.
    pub fn closure(&mut self, round_us: f64, layers_us: f64, traced_round_us: f64) {
        self.metric("core.serve.round_us", round_us);
        self.metric("core.serve.unattributed_us", round_us - layers_us);
        let overhead = 100.0 * (traced_round_us - round_us) / round_us;
        self.metric("trace.overhead_pct", overhead);
        self.note(format!(
            "spans account for {:.1}% of the untraced round (tolerance ±{:.0}%)",
            100.0 * layers_us / round_us,
            100.0 * CLOSURE_TOLERANCE
        ));
        let share = (round_us - layers_us).abs() / round_us;
        if !share.is_finite() || share > CLOSURE_TOLERANCE {
            self.fail(format!(
                "layer spans sum to {layers_us:.1} us against a {round_us:.1} us round"
            ));
        }
    }

    /// No output check failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && (0..self.table.len()).all(|i| self.value(i).is_finite())
    }

    /// A metric never set reads 0 in a per-layer report (the layer was
    /// not called) and is missing — so the run fails — in an end-to-end
    /// one.
    fn value(&self, i: usize) -> f64 {
        let unset = if self.table == PER_LAYER {
            0.0
        } else {
            f64::NAN
        };
        self.values[i].unwrap_or(unset)
    }

    /// Print every line; the JSON object comes last.
    pub fn print(&self, workload: &str) {
        println!("workload {workload}");
        for n in &self.notes {
            println!("  note: {n}");
        }
        let metrics = self
            .table
            .iter()
            .enumerate()
            .map(|(i, &(n, u))| (n, self.value(i), u));
        for (name, v, unit) in metrics.chain(self.info.iter().copied()) {
            println!("  {name:<34} {v:>16.4} {unit}");
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .table
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| {
                // JSON has no NaN or infinity; a failed run may carry one.
                let v = self.value(i);
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::json::Value;

    #[test]
    fn json_line_shape() {
        let mut r = Report::new(false, 10, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metric(name, i as f64 + 0.5);
        }
        r.info("not_in_json", 3.0, "s");
        let line = r.json();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"decisions_per_s\": {\"value\": 0.5, \"unit\": \"1/s\"}, "
        ));
        let v = Value::parse(&line).expect("valid JSON");
        let metrics = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(!line.contains("not_in_json"));

        // An unset end-to-end metric fails the run; an unset layer is 0.
        let r = Report::new(false, 10, 0);
        assert!(r.json().starts_with("{\"correct\": false"));
        assert!(r.json().contains("\"value\": null"));
        let r = Report::new(true, 10, 0);
        assert!(r.json().starts_with("{\"correct\": true"));
        assert!(r
            .json()
            .contains("\"nn.gflops\": {\"value\": 0, \"unit\": \"GFLOP/s\"}"));
        assert!(!Report::new(true, 10, 2).correct());

        // An on-request layer is printed, not put in the JSON line.
        let mut r = Report::new(true, 10, 0);
        r.metric("nn.quant_forward_us", 4.5);
        assert!(r.correct() && !r.json().contains("nn.quant_forward_us"));
        assert_eq!(r.info, [("nn.quant_forward_us", 4.5, "us")]);
    }

    #[test]
    fn closure_tolerance() {
        let mut r = Report::new(true, 1, 0);
        r.closure(100.0, 95.0, 101.0);
        assert!(r.correct());
        r.closure(100.0, 85.0, 101.0);
        assert!(!r.correct());
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }
}
