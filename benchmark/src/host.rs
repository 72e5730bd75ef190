//! What the numbers were measured on: recorded with every run, because
//! a host-time metric means nothing without its host.

use metro_harness::results::git_describe;
use metro_harness::Json;

/// Threads the host offers this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The host record: core count, CPU model, compiler, source revision.
#[must_use]
pub fn info() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::from(cpu_model())),
        ("rustc", Json::from(rustc_version())),
        ("git", Json::from(git_describe())),
    ])
}

/// CPU time the calling thread has used so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). The host-time metrics are differences
/// of this clock, not of the wall clock: on a shared host the wall
/// clock also counts the time the host spent running something else
/// (the kernel keeps stolen and preempted time out of a thread's CPU
/// time), and it is that time which varies from run to run. On an idle
/// host the two agree for a thread that never sleeps.
#[must_use]
#[allow(unsafe_code)]
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, which
    // writes nothing else. This is the package's only `unsafe`.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "this host offers no per-thread CPU clock");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Where there is no per-thread CPU clock to ask, the wall clock.
#[must_use]
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// This process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not offer it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_names_its_fields() {
        let doc = info();
        assert!(doc.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        for key in ["cpu_model", "rustc", "git"] {
            assert!(doc.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
    }

    #[test]
    fn the_cpu_clock_advances_with_work_and_not_with_sleep() {
        let started = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_s() - started;
        let mut x = 1u64;
        while thread_cpu_s() - started - slept < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        if cfg!(target_os = "linux") {
            assert!((0.0..0.02).contains(&slept), "{slept}");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
