//! Thread placement for the two-thread ping-pong of `rpc_small`.
//!
//! Left to the scheduler, the client and echo threads of one process
//! share a CPU now and then: each hop is then a context switch instead
//! of a cross-CPU wake-up, and that process runs at about twice the rate
//! of the others (80k against 35k op/s on a 2-vCPU VM).  How often that
//! happens depends on the host, so the median over processes flipped
//! between the two modes.  Pinning the client to the first allowed CPU
//! and the echo thread to the second keeps every process in the common
//! mode, a cross-CPU hop, and uses both CPUs.
//!
//! The pin goes through `taskset`, which the benchmark runs and waits
//! for: setting the affinity of one thread needs a system call that
//! safe Rust does not offer.

use std::process::{Command, Stdio};

use crate::report::{err, BenchError};

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (as in `0-1` or `0,2-3`); empty where the
/// platform does not report it.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return Vec::new() };
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|s| s.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// The CPUs of the client and of the echo thread: the first two allowed
/// CPUs, or `None` when there are fewer than two.
pub fn ping_pong_cpus() -> Option<(usize, usize)> {
    match allowed_cpus()[..] {
        [a, b, ..] => Some((a, b)),
        _ => None,
    }
}

/// Pin the calling thread to `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<(), BenchError> {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").map_err(|e| err("thread id", e))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or_else(|| BenchError(format!("thread id from {}", link.display())))?;
    let status = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| err("run taskset", e))?;
    if status.success() {
        Ok(())
    } else {
        Err(BenchError(format!("taskset -p -c {cpu} {tid}: {status}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "no allowed CPUs listed");
        let last = *cpus.last().unwrap_or(&0);
        std::thread::spawn(move || pin_current_thread(last)).join().expect("join").expect("pin");
    }
}
