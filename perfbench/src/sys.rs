//! Process and thread resource readings (Linux).

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Whole-process resource usage, every thread included (also exited ones),
/// plus the host's steal time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    pub peak_rss_mb: f64,
    /// CPU-seconds per CPU the hypervisor ran something else on this
    /// machine's CPUs (`/proc/stat`); 0 where that is unavailable.
    pub steal_s: f64,
}

/// Steal time summed over all CPUs and divided by their count, from the
/// aggregate `cpu` line of `/proc/stat` (in 1/100 s ticks).
fn steal_s_per_cpu() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
        .max(1);
    let steal = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    steal / 100.0 / cpus as f64
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a correctly sized, writable `struct rusage`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&r.utime),
            sys_s: secs(&r.stime),
            ctx_switches: (r.nvcsw + r.nivcsw) as u64,
            peak_rss_mb: r.maxrss as f64 / 1024.0,
            steal_s: steal_s_per_cpu(),
        }
    }
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a correctly sized, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `proc.*` per-layer metrics over one measured window.
pub fn proc_metrics(
    before: &Usage,
    after: &Usage,
    wall_s: f64,
    registrations: usize,
    out: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    let user = after.user_s - before.user_s;
    let sys = after.sys_s - before.sys_s;
    out.insert("proc.cpu_user_s", user);
    out.insert("proc.cpu_sys_s", sys);
    out.insert("proc.busy_share", (user + sys) / (wall_s * nproc() as f64));
    out.insert(
        "proc.ctx_switches",
        (after.ctx_switches - before.ctx_switches) as f64 / registrations.max(1) as f64,
    );
    out.insert(
        "proc.steal_share",
        (after.steal_s - before.steal_s) / wall_s,
    );
}
