//! Runs one measurement in a fresh child process.
//!
//! Each run gets its own process so that the machine is the child's
//! alone while the parent sleeps, peak memory is per run, and one run's
//! allocator state, page cache warmth and thread pool never carry into
//! the next. The child says `ready` on its standard output when its
//! set-up is done; the parent times spawn-to-ready from outside, which
//! is what someone starting the program waits for.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The line a child prints once its set-up is complete.
pub const READY: &str = "ready";

#[derive(Debug)]
pub struct ChildOutcome {
    /// Seconds from just before the spawn to the child's `ready` line.
    pub ready_s: Option<f64>,
    /// Standard output after the `ready` line.
    pub stdout: String,
    pub stderr: String,
    /// Exit status zero.
    pub success: bool,
    /// The wall-clock guard killed it.
    pub timed_out: bool,
}

/// Spawns this executable again with `args` and `DLB_THREADS=threads`,
/// waits for it, and kills it if it outlives `limit`, so that a hang
/// fails fast instead of eating the pipeline's time cap.
pub fn run_child(
    args: &[String],
    threads: usize,
    limit: Duration,
) -> std::io::Result<ChildOutcome> {
    run_program(&std::env::current_exe()?, args, threads, limit)
}

/// [`run_child`] for any program.
pub fn run_program(
    program: &Path,
    args: &[String],
    threads: usize,
    limit: Duration,
) -> std::io::Result<ChildOutcome> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .env("DLB_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut stderr = child.stderr.take().expect("stderr was piped");

    // Readers run on threads so that neither pipe can fill and block
    // the child, and so that `ready` is stamped the moment it arrives.
    // The parent itself sleeps on a channel until the child closes its
    // standard output: no polling competes with the run for a core.
    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let out_reader = std::thread::spawn(move || {
        let mut rest = String::new();
        let mut lines = BufReader::new(stdout);
        let mut first = String::new();
        if lines.read_line(&mut first).is_ok() {
            if first.trim_end() == READY {
                let _ = ready_tx.send(started.elapsed().as_secs_f64());
            } else {
                rest.push_str(&first);
            }
        }
        let _ = lines.read_to_string(&mut rest);
        let _ = done_tx.send(rest);
    });
    let err_reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });

    let (stdout, timed_out) = match done_rx.recv_timeout(limit) {
        Ok(rest) => (rest, false),
        Err(_) => {
            child.kill()?;
            // The kill closes the pipe, so the reader finishes now.
            (done_rx.recv().unwrap_or_default(), true)
        }
    };
    let status = child.wait()?;
    out_reader.join().expect("stdout reader does not panic");
    let stderr = err_reader.join().expect("stderr reader does not panic");
    Ok(ChildOutcome {
        ready_s: ready_rx.try_recv().ok(),
        stdout,
        stderr,
        success: status.success() && !timed_out,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, limit_ms: u64) -> ChildOutcome {
        run_program(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            1,
            Duration::from_millis(limit_ms),
        )
        .unwrap()
    }

    #[test]
    fn ready_is_stamped_and_the_rest_is_returned() {
        let out = sh(
            "echo ready; echo '{\"x\":1}'; echo threads=$DLB_THREADS",
            10_000,
        );
        assert!(out.success && !out.timed_out);
        assert!(out.ready_s.unwrap() > 0.0);
        assert_eq!(out.stdout, "{\"x\":1}\nthreads=1\n");
    }

    #[test]
    fn a_failing_child_hands_back_its_stderr() {
        let out = sh("echo boom >&2; exit 3", 10_000);
        assert!(!out.success && !out.timed_out);
        assert_eq!(out.ready_s, None);
        assert_eq!(out.stderr, "boom\n");
    }

    #[test]
    fn a_hung_child_is_killed_at_the_limit() {
        let started = Instant::now();
        let out = sh("echo ready; exec sleep 30", 200);
        assert!(out.timed_out && !out.success);
        assert!(out.ready_s.is_some());
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
