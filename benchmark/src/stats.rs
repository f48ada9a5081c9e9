//! Order statistics and `/proc` readers.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a metric that does not
/// apply to a workload reads 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linux reports process times in clock ticks of 1/100 s on every
/// supported architecture (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed, including
/// threads that already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") / TICKS_PER_SEC
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces, so fields are counted from
/// its closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "42 (my prog) S 1 42 42 0 -1 4194560 100 0 0 0 37 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(42.0));
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
    }

    #[test]
    fn proc_readers_work_here() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
