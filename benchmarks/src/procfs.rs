//! Process CPU time from the C library's clock, resident set from
//! `/proc/self/status`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("actbench reads /proc and declares the 64-bit Linux `timespec`");

/// `struct timespec` as the C library of 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A `kB` line of `/proc/<pid>/status`, e.g. `VmHWM:     12345 kB`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU time of this process, threads that have ended
/// included, in nanoseconds.
///
/// `utime + stime` of `/proc/self/stat` is the same quantity in 10 ms ticks:
/// a third-of-a-second round resolved it to 3 %, and the per-op figure came
/// out as the same few multiples of a tick run after run.
pub fn cpu_time_ns() -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable value with the layout the C library
    // expects of a `timespec` on this target (checked at the top of the
    // file), and `clock_gettime` writes to nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "Linux has a CPU-time clock for every process");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// Resident set size (`VmRSS`) of this process in MiB.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmRSS").expect("VmRSS in /proc/self/status") as f64 / 1024.0
}

/// Touch `bytes` of fresh memory and give it back.
///
/// In a lazily backed virtual machine the first touch of a page the guest
/// has never used costs tens of microseconds in the host, so a run whose
/// footprint outgrows what earlier processes touched slows down from that
/// point on, which says nothing about the program. Touching the footprint
/// once, before anything is timed, takes that cost out of the rounds.
pub fn prefault(bytes: usize) {
    const PAGE: usize = 4096;
    let mut block = vec![0u8; bytes];
    for offset in (0..bytes).step_by(PAGE) {
        // Written, not only read: a zero-filled mapping is backed by the
        // shared zero page until its first write.
        block[offset] = 1;
    }
    std::hint::black_box(&block);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_to_kilobytes() {
        let status = "Name:\tactbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(204800));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn the_live_sources_read() {
        assert!(rss_mib() > 0.0);
    }

    #[test]
    fn cpu_time_counts_the_work_of_a_thread_that_has_ended() {
        let before = cpu_time_ns();
        std::thread::spawn(|| {
            let until = std::time::Instant::now() + std::time::Duration::from_millis(20);
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        })
        .join()
        .expect("spinning thread");
        let worked = cpu_time_ns() - before;
        assert!(worked >= 10_000_000, "20 ms of work counted {worked} ns");
    }
}
