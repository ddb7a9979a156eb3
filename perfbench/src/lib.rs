//! The Dubhe benchmark: three closed-loop workloads, each loading a
//! different layer of the stack, with end-to-end metrics from an untraced
//! run and per-layer self times from a traced one.
//!
//! * [`inproc`] — `select_inproc`: full HE sessions in one process.
//! * [`net`] — `select_net`: the same session shape over a sealed
//!   loopback `ReactorListener`.
//! * [`churn`] — `checkin_churn`: one device at a time connects,
//!   handshakes, uploads and leaves.

pub mod calib;
pub mod churn;
pub mod inproc;
pub mod net;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, and the last repetition's state is the one measured.
pub const SETUP_REPS: u64 = 5;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["select_inproc", "select_net", "checkin_churn"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Where a traced run writes its spans (JSON lines).
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--trace-out <path>]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: Duration::from_secs(10),
            trace: false,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => {
                    parsed.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("bad --seconds {value}"));
                    }
                    parsed.seconds = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    }
                }
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "unknown workload {:?} (one of {})",
                parsed.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(parsed)
    }
}

/// Runs the named workload.
pub fn run(args: &Args) -> report::Outcome {
    match args.workload.as_str() {
        "select_inproc" => inproc::run(args),
        "select_net" => net::run(args),
        "checkin_churn" => churn::run(args),
        other => unreachable!("parse accepted {other}"),
    }
}

/// Runs `set_up` [`SETUP_REPS`] times (passing the repetition), keeping
/// the last result; returns it with each repetition's seconds. Earlier
/// results are dropped outside the timed part.
pub fn repeat_set_up<S>(
    mut set_up: impl FnMut(u64) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = std::time::Instant::now();
        let s = set_up(rep)?;
        seconds.push(t.elapsed().as_secs_f64());
        drop(last.replace(s));
    }
    Ok((last.expect("SETUP_REPS > 0"), seconds))
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
