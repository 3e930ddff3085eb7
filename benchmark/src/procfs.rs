//! `/proc/self/{status,stat}` readers: peak and current resident set,
//! CPU time and page faults of the calling process.

/// Clock ticks per second of the `utime`/`stime` fields. The kernel
/// reports them in `USER_HZ`, which is 100 on every Linux ABI; reading
/// it properly (`sysconf(_SC_CLK_TCK)`) would need libc, which the
/// offline build does not have.
const USER_HZ: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcStat {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Page faults served without I/O.
    pub minor_faults: u64,
}

impl ProcStat {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses the `kB` value of `key` (`"VmHWM"`, `"VmRSS"`) out of
/// `/proc/<pid>/status` text, in bytes.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kb: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb.checked_mul(1024)?)
    })
}

/// Parses `/proc/<pid>/stat` text. The second field is the command
/// name in parentheses and may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

fn status_bytes(key: &str) -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

/// Peak resident set size of this process so far, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM")
}

/// Current resident set size of this process, in bytes.
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS")
}

/// CPU time and fault counts of this process so far.
pub fn self_stat() -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The 1-, 5- and 15-minute load averages, as text.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\te2e\nVmPeak:\t  300000 kB\nVmHWM:\t  208904 kB\nVmRSS:\t   12044 kB\nThreads:\t3\n";

    #[test]
    fn status_values_come_back_in_bytes() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(208_904 * 1024));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(12_044 * 1024));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMX:\t1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        // comm = "a) (b 9 9", chosen to derail a naive split.
        let stat = "4242 (a) (b 9 9) R 1 4242 4242 0 -1 4194304 290123 0 17 0 1876 42 0 0 20 0 3 0 100 1000 200 rest";
        let parsed = parse_stat(stat).unwrap();
        assert_eq!(parsed.minor_faults, 290_123);
        assert_eq!(parsed.user_s, 18.76);
        assert_eq!(parsed.sys_s, 0.42);
        assert_eq!(parsed.cpu_s(), 18.76 + 0.42);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_bytes().unwrap() >= rss_bytes().unwrap());
        assert!(self_stat().is_some());
        assert_eq!(loadavg().split(' ').count(), 3);
    }
}
