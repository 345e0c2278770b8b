//! What the benchmark reads of the machine it runs on, and the one setting
//! of its own process it changes.
//!
//! A commit runs on the writer's thread alone (the engine's pool has one
//! worker, which runs inline), so the writer's CPU time across
//! `IncrementalEngine::apply` is the commit's own cost.  On a shared host
//! its wall time also counts the time the hypervisor gives the vCPU to
//! other guests (steal) and the time the writer waits behind other threads
//! in this guest; the kernel leaves steal out of a thread's CPU clock.
//! [`Machine`] reads both waits, so a run can say how much of its wall time
//! was spent waiting for a processor.
//!
//! Where the heap, the stacks and the libraries land moves with the
//! kernel's address-space randomization, and with them which data share a
//! cache set: the same commits ran 5–10% faster or slower from one process
//! to the next.  [`fixed_address_layout`] re-runs the benchmark once with
//! randomization off for its own process, so every run of one build has
//! the same layout.

use std::ffi::{c_int, c_ulong};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn personality(persona: c_ulong) -> c_int;
}

/// The personality flag that turns address-space randomization off.
const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
/// Set in the environment of the re-run, so it is attempted only once.
const RERUN_MARK: &str = "RELACC_BENCH_FIXED_LAYOUT";

/// Replace this process by the same program with the same arguments and
/// address-space randomization off, unless it is already off.  Returns
/// (and the run goes on with a randomized layout) where the kernel refuses
/// the flag or the program cannot be re-run; no other process is started.
pub fn fixed_address_layout() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(RERUN_MARK).is_some() {
        return;
    }
    // SAFETY: personality(0xffffffff) only reads the calling process's
    // execution domain.
    let current = unsafe { personality(0xffff_ffff) };
    if current < 0 || (current as c_ulong) & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: sets a flag of this process's own execution domain, which
    // takes effect at the next exec.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        eprintln!("address-space randomization stays on: the kernel refused to turn it off");
        return;
    }
    let error = std::process::Command::new("/proc/self/exe")
        .args(std::env::args_os().skip(1))
        .env(RERUN_MARK, "1")
        .exec();
    eprintln!("address-space randomization stays on: cannot re-run the benchmark: {error}");
}

/// CPU time the calling thread has run so far.
pub fn thread_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // knows; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Time the calling thread has waited on a run queue of this guest
/// (`/proc/thread-self/schedstat`, second field); zero where unavailable.
fn thread_run_delay() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// `(steal, total)` clock ticks of every CPU of the machine
/// (`/proc/stat`); zeros where unavailable.
fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest times are already inside user and nice
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// A reading of the waits, taken on the writer's thread.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    run_delay: Duration,
    steal: u64,
    total: u64,
}

impl Machine {
    pub fn now() -> Self {
        let (steal, total) = machine_ticks();
        Machine {
            run_delay: thread_run_delay(),
            steal,
            total,
        }
    }

    /// Since `earlier`: the share of the machine's CPU time the hypervisor
    /// stole, and how long the calling thread waited for a CPU here.
    pub fn since(&self, earlier: &Machine) -> (f64, Duration) {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        let share = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        };
        (share, self.run_delay.saturating_sub(earlier.run_delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_counts_work_and_not_sleep() {
        let before = thread_time();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_time() - before;
        let before = thread_time();
        let mut x = 0u64;
        while thread_time() - before < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
        assert!(slept < Duration::from_millis(5), "sleep counted {slept:?}");
    }
}
