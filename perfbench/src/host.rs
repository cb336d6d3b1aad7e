//! The host record printed with every run: CPUs, caches, SIMD level, and
//! the process's peak resident set.

use std::fmt;

pub struct Host {
    /// `available_parallelism`: the CPUs this process may run on.
    pub cpus: usize,
    pub l1d_bytes: usize,
    pub l2_bytes: usize,
    /// Whether the L1d/L2 sizes came from the live `vr_par::cache` probe.
    pub cache_probed: bool,
    /// Largest cache level's size from sysfs (`vr_par::cache` stops at L2).
    pub llc_bytes: Option<usize>,
    pub simd: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let cache = vr_par::cache::cache_info();
        Host {
            cpus: vr_cg::solver::host_cpus(),
            l1d_bytes: cache.l1d_bytes,
            l2_bytes: cache.l2_bytes,
            cache_probed: cache.probed,
            llc_bytes: llc_bytes(),
            simd: vr_par::simd::process_level().name(),
        }
    }

    /// One line placing a working set against the per-core L2 and the LLC.
    pub fn working_set_line(&self, label: &str, bytes: usize) -> String {
        let vs = |cache: usize| bytes as f64 / cache as f64;
        let llc = match self.llc_bytes {
            Some(l) => format!("{:.2}x LLC", vs(l)),
            None => "LLC unknown".to_string(),
        };
        format!(
            "working set {label}: {:.2} MiB = {:.2}x L2, {llc}",
            mib(bytes),
            vs(self.l2_bytes)
        )
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let llc = self
            .llc_bytes
            .map_or("unknown".to_string(), |b| format!("{:.1} MiB", mib(b)));
        write!(
            f,
            "host: cpus {} | L1d {} KiB, L2 {:.2} MiB ({}) | LLC {llc} | simd {}",
            self.cpus,
            self.l1d_bytes / 1024,
            mib(self.l2_bytes),
            if self.cache_probed {
                "probed"
            } else {
                "fallback"
            },
            self.simd
        )
    }
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Size of the highest cache level cpu0 reports.
fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten()
        .filter_map(|e| {
            let read = |name: &str| std::fs::read_to_string(e.path().join(name)).ok();
            let level: u32 = read("level")?.trim().parse().ok()?;
            let size = parse_size(&read("size")?)?;
            Some((level, size))
        })
        .max()
        .map(|(_, size)| size)
}

fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-wide CPU time from the first line of `/proc/stat`, in clock ticks:
/// (all time, time stolen by the hypervisor).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_ticks(stat.lines().next()?)
}

fn parse_cpu_ticks(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// The share of the host's CPU time stolen by the hypervisor since
/// `before`, a [`cpu_ticks`] reading. Steal stalls a width-2 team at every
/// barrier, so runs with more of it are slower.
pub fn steal_line(before: Option<(u64, u64)>) -> String {
    match (before, cpu_ticks()) {
        (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => format!(
            "hypervisor steal during the run: {:.1}% of CPU time",
            100.0 * (steal1 - steal0) as f64 / (all1 - all0) as f64
        ),
        _ => "hypervisor steal during the run: unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn parses_proc_stat_ticks() {
        let line = "cpu  950175 0 72786 844360 310 0 4859 13730 0 0";
        assert_eq!(
            parse_cpu_ticks(line),
            Some((950175 + 72786 + 844360 + 310 + 4859 + 13730, 13730))
        );
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3 4 5 6 7 8 0 0"), None);
        assert_eq!(parse_cpu_ticks("cpu 1 2 3"), None);
    }
}
