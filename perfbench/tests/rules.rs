//! The benchmark's own rules: the tail percentile, self time of nested
//! spans, the metric-name character set, failure accounting, and the
//! agreement of the metric catalogue with `BENCHMARK.json` and the layer
//! map.

use dubhe_perfbench::report::{
    result_json, valid_name, valid_unit, Ops, Outcome, END_TO_END, PER_LAYER,
};
use dubhe_perfbench::stats::{median, tail, TAIL_BEYOND};
use dubhe_perfbench::trace::{self_ns_each, self_times, Span, Tracer};
use dubhe_perfbench::{Args, WORKLOADS};
use dubhe_select::protocol::WireMsg;
use serde::Value;

#[test]
fn tail_keeps_at_least_ten_samples_beyond() {
    assert_eq!(TAIL_BEYOND, 10);
    for n in 0..=10 {
        let xs: Vec<f64> = (0..n).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "{n} samples have no tail");
    }
    // 11 samples: only the smallest has ten beyond it.
    let xs: Vec<f64> = (0..11).rev().map(f64::from).collect();
    assert_eq!(tail(&xs).unwrap().0, 0.0);
    for n in [11usize, 12, 50, 100, 1000, 12345] {
        let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let (v, pct) = tail(&xs).unwrap();
        let beyond = xs.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        assert!((pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
    }
    // 100 samples: the tail is the 90th percentile.
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((90.0, 90.0)));
    // Ties beyond the tail value still count as samples beyond.
    let mut xs = vec![1.0; 5];
    xs.extend(vec![7.0; 10]);
    assert_eq!(tail(&xs).unwrap().0, 1.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

fn span(name: &'static str, sample: u64, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        sample,
        start_ns: start,
        end_ns: end,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // round [0,100) ⊃ a [10,40) ⊃ c [20,30); round ⊃ b [50,60).
    let spans = vec![
        span("round", 0, 0, 100, None),
        span("a", 0, 10, 40, Some(0)),
        span("c", 0, 20, 30, Some(1)),
        span("b", 0, 50, 60, Some(0)),
        span("round", 1, 200, 250, None),
        span("a", 1, 210, 215, Some(4)),
        span("a", 1, 220, 230, Some(4)),
    ];
    assert_eq!(self_ns_each(&spans), vec![60, 20, 10, 10, 35, 5, 10]);
    let per = self_times(&spans);
    assert_eq!(per[&0]["round"], 60);
    assert_eq!(per[&0]["a"], 20);
    assert_eq!(per[&1]["a"], 15);
    // Self times of one sample add up to its root's duration.
    for (sample, root) in [(0u64, 100u64), (1, 50)] {
        assert_eq!(per[&sample].values().sum::<u64>(), root);
    }
}

#[test]
fn live_tracer_nests_and_a_disabled_one_records_nothing() {
    let mut tr = Tracer::new(true);
    tr.set_sample(7);
    let root = tr.enter("round");
    let inner = tr.span("x", || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        5
    });
    tr.exit(root);
    assert_eq!(inner, 5);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].sample, 7);
    let selfs = self_ns_each(spans);
    assert_eq!(selfs[0] + spans[1].dur_ns(), spans[0].dur_ns());
    assert!(spans[1].dur_ns() >= 2_000_000);

    let mut off = Tracer::new(false);
    let e = off.enter("round");
    off.span("x", || ());
    off.exit(e);
    assert!(off.spans().is_empty());
}

#[test]
fn metric_names_and_units_follow_the_character_set() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
    for good in [
        "a",
        "9",
        "round_ms_p50",
        "he.fold_us",
        "a-b.c_d",
        &"x".repeat(64),
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in [
        "",
        "_a",
        ".a",
        "-a",
        "a b",
        "a/b",
        "é",
        "a\"b",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for good in ["ms", "s", "1/s", "%", "clients/s", "B", "count", "ratio"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every metric name is used once");
}

#[test]
fn a_refused_operation_counts_in_failed_share() {
    let mut ops = Ops::default();
    assert!(ops.reply(&WireMsg::Ack));
    assert!(ops.reply(&WireMsg::Batch { envelopes: vec![] }));
    assert!(!ops.reply(&WireMsg::Error {
        detail: "client 3 is bound to a different channel identity".into()
    }));
    assert!(ops.record(&Ok::<(), ()>(())));
    assert_eq!(
        ops,
        Ops {
            attempted: 4,
            failed: 1
        }
    );
    assert_eq!(ops.failed_share(), 0.25);

    let outcome = Outcome {
        correct: true,
        ops,
        ..Outcome::default()
    };
    let line = result_json(&outcome, true);
    assert!(line.contains("\"attempted\": 4, \"failed\": 1"), "{line}");
}

#[test]
fn result_line_carries_every_catalogued_metric() {
    let mut outcome = Outcome {
        correct: true,
        ops: Ops {
            attempted: 3,
            failed: 0,
        },
        ..Outcome::default()
    };
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        outcome.end_to_end.insert(name, 1.5 + i as f64);
    }
    let line = result_json(&outcome, false);
    let v: Value = serde_json::from_str(&line).expect("result is JSON");
    let metrics = field(&v, "metrics");
    for (name, unit) in END_TO_END {
        let m = field(metrics, name);
        assert_eq!(field(m, "unit"), &Value::Str(unit.to_string()));
    }
    assert_eq!(field(&v, "correct"), &Value::Bool(true));
    // A missing end-to-end metric makes the run incorrect.
    outcome.end_to_end.remove("setup_s");
    assert!(result_json(&outcome, false).starts_with("{\"correct\": false"));
    // A missing per-layer metric reads 0: the layer was not exercised.
    assert!(result_json(&outcome, true).starts_with("{\"correct\": true"));
}

#[test]
fn arguments_parse_strictly() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload select_net --seed 7 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.trace),
        ("select_net", 7, true)
    );
    assert_eq!(a.seconds.as_secs(), 10);
    assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(Args::parse(&argv(
        "--workload select_net --seed x --seconds 1 --trace 0"
    ))
    .is_err());
    assert!(Args::parse(&argv(
        "--workload select_net --seed 1 --seconds 1 --trace 2"
    ))
    .is_err());
    assert!(Args::parse(&argv("--workload select_net --seed 1 --seconds")).is_err());
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
        }
        other => panic!("not an object: {other:?}"),
    }
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|i| match field(i, key) {
                Value::Str(s) => s.clone(),
                other => panic!("{key} is not a string: {other:?}"),
            })
            .collect(),
        other => panic!("not an array: {other:?}"),
    }
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

#[test]
fn catalogue_matches_benchmark_json_and_the_layer_map() {
    let root = env!("CARGO_MANIFEST_DIR");
    let bench = read_json(&format!("{root}/../BENCHMARK.json"));
    let names = |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
    assert_eq!(
        strings(field(&bench, "end_to_end"), "name"),
        names(END_TO_END)
    );
    assert_eq!(
        strings(field(&bench, "per_layer"), "name"),
        names(PER_LAYER)
    );
    assert_eq!(strings(field(&bench, "workloads"), "name"), WORKLOADS);
    let units = |list: &[(&str, &str)]| list.iter().map(|m| m.1.to_string()).collect::<Vec<_>>();
    assert_eq!(
        strings(field(&bench, "end_to_end"), "unit"),
        units(END_TO_END)
    );
    assert_eq!(
        strings(field(&bench, "per_layer"), "unit"),
        units(PER_LAYER)
    );

    // Every catalogued metric is described in the layer map, and every
    // pairing names known metrics and a known workload.
    let map = read_json(&format!("{root}/layers.json"));
    let described = field(&map, "metrics");
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    for name in &all {
        field(described, name);
    }
    let entries = field(&map, "map");
    let layers = strings(entries, "layer");
    let moves = strings(entries, "moves");
    let on = strings(entries, "workload");
    for ((l, m), w) in layers.iter().zip(&moves).zip(&on) {
        assert!(
            PER_LAYER.iter().any(|p| p.0 == l),
            "unknown layer metric {l}"
        );
        assert!(all.contains(&m.as_str()), "{l}: unknown metric {m}");
        assert!(WORKLOADS.contains(&w.as_str()), "{l}: unknown workload {w}");
    }
    assert_eq!(strings(field(&map, "workloads"), "name"), WORKLOADS);
}
