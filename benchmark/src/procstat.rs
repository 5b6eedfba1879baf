//! What the kernel says about this process — CPU time and peak
//! resident memory, read from `/proc` — and the one thing the benchmark
//! tells the kernel: which CPU to keep a workload on.

use std::fs;

// The two calls `/proc` has no file for; std already links the C
// library they live in.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread, and every thread spawned from it later,
/// to the highest-numbered CPU it is allowed on (CPU 0 takes most
/// interrupts). Returns that CPU's number.
///
/// Call it before anything spawns a thread. With every thread of a
/// workload on one busy CPU, a hand-off between threads is a context
/// switch; left to roam over the CPUs of a shared virtual machine it is
/// the wake-up of a halted vCPU, which costs several times the request
/// it carries and moves with the host's load (README.md, "Steadiness").
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = last_cpu(&mask).ok_or("the affinity mask is empty")?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is `size` readable bytes; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, only.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// The highest CPU number set in an affinity mask.
fn last_cpu(mask: &[u64]) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Kernel clock ticks per second as exposed to user space. Linux fixes
/// `USER_HZ` at 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread) so
/// far, from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") / USER_HZ
}

/// utime + stime in clock ticks. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_kb(&status, "VmHWM:").expect("/proc/self/status has VmHWM") / 1024.0
}

fn parse_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 731 19 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(750.0));
        assert_eq!(parse_cpu_ticks("42 (x) R 1"), None);
    }

    #[test]
    fn vmhwm_is_parsed_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_kb(status, "VmHWM:"), Some(2048.0));
        assert_eq!(parse_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn the_last_allowed_cpu_is_chosen() {
        assert_eq!(last_cpu(&[0b0110, 0]), Some(2));
        assert_eq!(last_cpu(&[1, 1 << 5]), Some(69));
        assert_eq!(last_cpu(&[0, 0]), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_seconds() >= 0.0);
    }
}
