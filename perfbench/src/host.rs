//! The host-speed reference that end-to-end latencies are scaled by.
//!
//! The machines this benchmark runs on are shared, and other tenants slow
//! the core this run is pinned to in spells of seconds to minutes. Loops
//! bound by one dependency chain, arithmetic or a pointer chase through
//! memory, keep their speed to within a few percent; branchy,
//! allocation-heavy code like the engine's takes up to 1.7 times as long. Raw
//! latencies of one op stream therefore moved by 15–30% between runs
//! minutes apart, far more than the engine's own variation.
//!
//! So the run times a fixed piece of such code, the reference, after every
//! op and scales each op's latency by how fast the reference ran around it:
//! a scaled latency reads as milliseconds on a host where the reference
//! takes [`NOMINAL_MS`]. The reference runs in a child process (this binary,
//! started with [`PROBE_FLAG`]) on the same CPU, one sample at a time while
//! the benchmark waits, so its speed depends on the host and not on the
//! state of the benchmark's heap; it calls nothing in `logres`, so a change
//! to the engine moves the scaled figures in the same proportion as the
//! raw ones. The run prints both.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// The reference's time on a quiet core of the 2-vCPU machine the
/// benchmark was tuned on.
pub const NOMINAL_MS: f64 = 1.0;

/// The argument that makes this binary serve reference samples.
pub const PROBE_FLAG: &str = "--host-probe";

/// Reference samples on each side of an op that its scale is the median of.
const WINDOW: usize = 8;

/// Run the reference work once and return its wall time in milliseconds:
/// format 4,000 short strings, sort them, collect them into an ordered set
/// and clone it.
fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut names: Vec<String> = (0..4_000u32)
        .map(|i| format!("p{}", i.wrapping_mul(2_654_435_761) % 100_000))
        .collect();
    names.sort_unstable();
    let set: BTreeSet<String> = names.iter().cloned().collect();
    let copy = black_box(set.clone());
    drop((names, set, copy));
    start.elapsed().as_secs_f64() * 1e3
}

/// The child's side: one reference sample per line read, until the parent
/// closes the pipe.
pub fn serve() -> ExitCode {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() || writeln!(out, "{}", reference_ms()).is_err() || out.flush().is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The parent's handle on the child that runs the reference.
pub struct Probe {
    child: Child,
    input: ChildStdin,
    output: BufReader<ChildStdout>,
}

impl Probe {
    pub fn spawn() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("host probe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(PROBE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("host probe: {e}"))?;
        let (Some(input), Some(output)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("host probe: no pipes".to_owned());
        };
        Ok(Probe {
            child,
            input,
            output: BufReader::new(output),
        })
    }

    /// Time the reference once, in milliseconds.
    pub fn sample(&mut self) -> Result<f64, String> {
        let fail = |e: String| format!("host probe: {e}");
        self.input
            .write_all(b"\n")
            .and_then(|()| self.input.flush())
            .map_err(|e| fail(e.to_string()))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| fail(e.to_string()))?;
        line.trim()
            .parse()
            .map_err(|_| fail(format!("bad sample `{}`", line.trim())))
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The factor that scales a latency taken while the reference ran as in
/// `samples` to the nominal host speed.
pub fn scale(samples: &[f64]) -> f64 {
    NOMINAL_MS / median(&mut samples.to_vec())
}

/// One scale per reference sample: the scale of the samples within
/// [`WINDOW`] places of it.
pub fn rolling_scales(samples: &[f64]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(samples.len());
            scale(&samples[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_scales_by_one() {
        assert_eq!(scale(&[NOMINAL_MS; 5]), 1.0);
        assert_eq!(scale(&[NOMINAL_MS * 2.0, 9.0, NOMINAL_MS * 2.0]), 0.5);
    }

    #[test]
    fn rolling_scales_follow_a_slow_spell() {
        let mut samples = vec![NOMINAL_MS; 40];
        samples[20..].fill(NOMINAL_MS * 1.25);
        let scales = rolling_scales(&samples);
        assert_eq!(scales.len(), 40);
        assert_eq!(scales[0], 1.0);
        assert_eq!(scales[39], 0.8);
    }

    #[test]
    fn reference_takes_time() {
        assert!(reference_ms() > 0.0);
    }
}
