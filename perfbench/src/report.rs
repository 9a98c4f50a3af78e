//! Printing a run: a header line (seed, sessions, host fingerprint),
//! span totals for a traced run, and the result object as the last
//! line of standard output.

use std::fmt::Write;

use crate::bench::Report;
use crate::workload::Workload;

/// JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v` with every digit; non-finite values (never
/// produced by the metrics, which guard their divisions) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The CPU's brand string, from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".into()
}

/// The header line: what ran, on what.
pub fn header(workload: Workload, seed: u64, seconds: f64, trace: bool, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{trace},\"sessions\":{},\"measured_sessions\":{},\"in_flight\":{},\"host\":{{\"cpu\":{},\"nproc\":{nproc},\"rustc\":{}}}}}",
        quote(workload.name()),
        number(seconds),
        report.attempted,
        report.measured_sessions,
        number(report.in_flight),
        quote(&cpu_model()),
        quote(env!("PERFBENCH_RUSTC")),
    )
}

/// One line per span site recorded in the traced window.
pub fn span_lines(report: &Report) -> Vec<String> {
    report
        .spans
        .iter()
        .map(|(site, t)| {
            format!(
                "{{\"span\":{},\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                quote(site.name()),
                t.count,
                number(t.total_ns as f64 / 1e6),
                number(t.self_ns as f64 / 1e6)
            )
        })
        .collect()
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_and_numbers() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "0");
    }
}
