//! A short run of every workload: the output schema, the correctness
//! gate, and (traced) the per-layer schema and the per-request
//! remainder.

use viewbench::layers::PER_LAYER;
use viewbench::{measure, Report, Workload, END_TO_END};

const SECONDS: f64 = 0.6;

fn assert_schema(report: &Report, names: &[(&str, &str)]) {
    assert!(report.correct(), "gate failed: {:?}", report.mismatches);
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    assert_eq!(got, names);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let json = serde_json::parse(&report.json()).expect("the result line is JSON");
    let object = json.as_object().expect("an object");
    let keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_the_gate() {
    for workload in Workload::ALL {
        let report = measure(workload, 3, SECONDS, false, true);
        assert_schema(&report, &END_TO_END);
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let text = report.lines.join("\n");
        assert!(text.contains("phase setup: sent"), "{text}");
        assert!(text.contains("error_ratio: 0"), "{text}");
    }
}

#[test]
fn traced_runs_report_every_exercised_layer_and_the_remainder() {
    for workload in Workload::ALL {
        let report = measure(workload, 4, SECONDS, true, true);
        let exercised: Vec<(&str, &str)> = PER_LAYER
            .into_iter()
            .filter(|(name, _)| !workload.unexercised().contains(name))
            .collect();
        assert_schema(&report, &exercised);
        let text = report.lines.join("\n");
        assert!(text.contains("with a negative remainder"), "{text}");
        for name in workload.unexercised() {
            assert!(
                text.contains(&format!("layer {name}: not exercised")),
                "{text}"
            );
        }
        assert!(report.spans_jsonl.as_deref().is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn failed_gates_make_the_report_incorrect() {
    let mut report = measure(Workload::SliderWarm, 5, 0.2, false, true);
    assert!(report.correct());
    report.mismatches.push("forced".into());
    assert!(!report.correct());
    assert!(report.json().starts_with("{\"correct\": false"));
}
