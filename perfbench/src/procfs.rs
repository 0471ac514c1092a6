//! Process CPU time and peak memory from `/proc`, without `libc`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it runs on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads,
/// including ones that already exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb / 1024.0)
}

/// `utime + stime` in seconds from one `/proc/<pid>/stat` line. The
/// command name is parenthesised and may itself hold spaces or `)`, so the
/// fields are counted from the last `)`: `utime` and `stime` are fields
/// 14 and 15 of the line, 12th and 13th after the name.
fn parse_stat_cpu(line: &str) -> Option<f64> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu(line), Some(3.25));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(153_600.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
