//! Provenance of a set of numbers: which host, which compiler, which
//! commit, and how busy the machine was.

use std::process::Command;

use crate::procfs::loadavg;
use crate::workloads::host_cores;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Prints one `#` line stating where the numbers below it come from.
/// The pipeline's checkout is not a git repository; the commit reads
/// `unknown` there.
pub fn print_header(dlb_threads: usize) {
    println!(
        "# host_cores={} dlb_threads={} rustc=\"{}\" commit={} loadavg=\"{}\"",
        host_cores(),
        dlb_threads,
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        loadavg(),
    );
}
