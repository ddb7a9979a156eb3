//! The metric catalogue, what a run measured, and the one-line JSON
//! result.

use std::collections::BTreeMap;

use dubhe_select::protocol::{ListenerStats, WireMsg};

use crate::stats::{median, tail};
use crate::sys::Usage;

/// Every end-to-end metric, with its unit. A `--trace 0` run reports all
/// of them, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("round_ms_p50", "ms"),
    ("clients_per_s", "clients/s"),
    ("client_cpu_ms_p50", "ms"),
    ("checkin_ms_p50", "ms"),
    ("wire_bytes_per_client", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. A `--trace 1` run reports all of
/// them, on every workload; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client_cpu_ms_tail", "ms"),
    ("checkin_ms_tail", "ms"),
    ("he.keygen_ms", "ms"),
    ("he.encrypt_registry_ms", "ms"),
    ("he.encrypt_distribution_ms", "ms"),
    ("he.decrypt_total_ms", "ms"),
    ("he.decrypt_total_share", "ratio"),
    ("he.agent_decrypt_ms", "ms"),
    ("he.fold_us", "us"),
    ("select.register_us", "us"),
    ("select.tentative_ms", "ms"),
    ("protocol.coordinator_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.seal_us", "us"),
    ("protocol.open_us", "us"),
    ("protocol.handshake_ms", "ms"),
    ("protocol.epoch_change_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("net.exchange_us_p50", "us"),
    ("net.exchange_us_tail", "us"),
    ("net.residual_us", "us"),
    ("net.frames", "count"),
    ("net.peak_write_queue_bytes", "B"),
    ("net.backpressure_disconnects", "count"),
    ("net.decode_errors", "count"),
    ("net.handshakes_failed", "count"),
    ("net.aead_rejections", "count"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.busy_share", "ratio"),
    ("proc.ctx_switches", "count"),
    ("proc.steal_share", "ratio"),
    ("trace.leftover_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
];

/// A metric name: a letter or digit, then at most 63 more letters, digits,
/// `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Attempted and failed operations. An operation is one call into the
/// system under test: a role call, a request/reply exchange, a check-in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; returns whether it succeeded.
    pub fn record<T, E>(&mut self, result: &Result<T, E>) -> bool {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result.is_ok()
    }

    /// Counts one request/reply exchange: a `WireMsg::Error` reply is a
    /// refused operation.
    pub fn reply(&mut self, reply: &WireMsg) -> bool {
        let refused = matches!(reply, WireMsg::Error { .. });
        self.record(&if refused { Err(()) } else { Ok(()) })
    }

    /// Failed or refused operations ÷ operations attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The samples every workload's end-to-end metrics come from.
pub struct Measured<'a> {
    /// Per round, in milliseconds.
    pub round_ms: &'a [f64],
    /// Per client and round, in milliseconds.
    pub client_cpu_ms: &'a [f64],
    /// Per registration, in milliseconds.
    pub checkin_ms: &'a [f64],
    /// Registrations completed in the measured window.
    pub registrations: usize,
    pub wall_s: f64,
    pub wire_bytes_per_client: f64,
    /// Seconds of each set-up repetition.
    pub setup_s: &'a [f64],
    /// Resource usage at the end of the window.
    pub usage: Usage,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    pub ops: Ops,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub spans: Option<crate::trace::Tracer>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("GATE FAILED: {}", what.into()));
        }
    }

    /// Records the end-to-end metrics and the `_tail` metrics; returns a
    /// note naming the percentile each tail sits at.
    pub fn record(&mut self, m: &Measured) -> String {
        let e2e = &mut self.end_to_end;
        e2e.insert("round_ms_p50", median(m.round_ms).unwrap_or(0.0));
        e2e.insert("clients_per_s", m.registrations as f64 / m.wall_s);
        e2e.insert("client_cpu_ms_p50", median(m.client_cpu_ms).unwrap_or(0.0));
        e2e.insert("checkin_ms_p50", median(m.checkin_ms).unwrap_or(0.0));
        e2e.insert("wire_bytes_per_client", m.wire_bytes_per_client);
        e2e.insert("setup_s", median(m.setup_s).unwrap_or(0.0));
        e2e.insert("peak_rss_mb", m.usage.peak_rss_mb);
        self.per_layer
            .insert("failed_share", self.ops.failed_share());
        let mut notes = Vec::new();
        for (name, xs) in [
            ("client_cpu_ms_tail", m.client_cpu_ms),
            ("checkin_ms_tail", m.checkin_ms),
        ] {
            match tail(xs) {
                Some((v, pct)) => {
                    self.per_layer.insert(name, v);
                    notes.push(format!("{name} = p{pct:.3} of {}", xs.len()));
                }
                None => self.gate(false, format!("{name}: too few samples for a tail")),
            }
        }
        notes.join(", ")
    }

    /// Records a listener's counters, and gates on a clean run: no failed
    /// handshake, AEAD rejection, downgrade, decode error, truncated frame
    /// or backpressure disconnect, and exactly `handshakes` handshakes.
    pub fn listener(&mut self, stats: &ListenerStats, handshakes: usize) {
        let layers = &mut self.per_layer;
        layers.insert(
            "net.frames",
            (stats.frames_received + stats.frames_sent) as f64,
        );
        layers.insert("net.peak_write_queue_bytes", stats.peak_write_queue as f64);
        layers.insert(
            "net.backpressure_disconnects",
            stats.backpressure_disconnects as f64,
        );
        layers.insert("net.decode_errors", stats.decode_errors as f64);
        layers.insert("net.handshakes_failed", stats.handshakes_failed as f64);
        layers.insert("net.aead_rejections", stats.aead_rejections as f64);
        self.gate(
            stats.handshakes_completed == handshakes,
            format!(
                "{} handshakes, expected {handshakes}",
                stats.handshakes_completed
            ),
        );
        self.gate(
            stats.handshakes_failed == 0
                && stats.aead_rejections == 0
                && stats.downgrades_refused == 0
                && stats.decode_errors == 0
                && stats.truncated_frames == 0
                && stats.backpressure_disconnects == 0,
            "no failed handshake, AEAD rejection, downgrade, decode error, truncation or backpressure",
        );
    }
}

/// Renders the result line. Metrics come from `catalogue`; a metric the
/// workload did not produce reads 0 (an end-to-end metric is never
/// missing — the run is marked incorrect if one is).
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let (catalogue, values) = if trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut correct = outcome.correct && outcome.ops.attempted > 0;
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                correct = false;
                0.0
            }
            None => {
                correct &= trace;
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit the `f64` carries.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}
