//! Host counters of this process, read from `/proc/self` with std only,
//! and the calling thread's CPU clock.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux reports them in `USER_HZ`, which is 100 on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// CPU time and fault counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl Sample {
    /// Counters accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Reads user and sys CPU time and minor faults of this process.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is missing or malformed.
pub fn sample() -> Result<Sample, String> {
    let text =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat(&text)
}

fn parse_stat(text: &str) -> Result<Sample, String> {
    // The command name may hold spaces; every field after it follows the
    // last ')'. Field 3 (state) is index 0 there, so field n is n - 3.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("no ')' in /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or_else(|| format!("/proc/self/stat has no field {n}"))?
            .parse::<u64>()
            .map_err(|e| format!("/proc/self/stat field {n}: {e}"))
    };
    Ok(Sample {
        minflt: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// `struct timespec` as Linux's C library lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    /// From the C library std already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run, in ns.
///
/// Read with `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which brings the
/// running slice up to date first. `/proc/thread-self/schedstat` advances
/// only at scheduler ticks (4 ms at `HZ=250`), a sixth of a 23 ms image
/// scan.
///
/// # Errors
///
/// Fails when the clock cannot be read.
pub fn thread_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the clock id is valid on Linux.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    let secs = u64::try_from(ts.tv_sec).map_err(|e| e.to_string())?;
    let nanos = u64::try_from(ts.tv_nsec).map_err(|e| e.to_string())?;
    Ok(secs * 1_000_000_000 + nanos)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set size of this process (`VmRSS`), in bytes.
///
/// # Errors
///
/// Fails when `/proc/self/status` is missing or has no `VmRSS` line.
pub fn rss_bytes() -> Result<u64, String> {
    status_kb("VmRSS:").map(|kb| kb * 1024)
}

fn status_kb(key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

/// Logical CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let line = "42 (my (odd) prog) R 1 42 42 0 -1 4194560 1234 0 5 0 250 75 0 0 20 0 3 0 100";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minflt, 1234);
        assert!((s.user_s - 2.5).abs() < 1e-12);
        assert!((s.sys_s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reads_this_process() {
        let a = sample().unwrap();
        let _work: Vec<u8> = vec![1; 1 << 20];
        let b = sample().unwrap();
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(rss_bytes().unwrap() > 0);
        assert!(nproc() >= 1);
        let t0 = thread_cpu_ns().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_ns().unwrap() > t0, "{x}");
    }
}
