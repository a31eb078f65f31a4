//! Timing and reporting utilities for the experiment binaries.

use std::time::{Duration, Instant};

use dataframe::DataFrame;
use rdfframes_core::Result;

/// Outcome of running one alternative on one task.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Alternative name (e.g. "RDFFrames", "Naive Query Generation").
    pub name: String,
    /// Mean wall-clock time over the runs.
    pub mean: Duration,
    /// Rows in the result (sanity check that alternatives agree).
    pub rows: Option<usize>,
    /// Whether the alternative failed/was skipped.
    pub error: Option<String>,
}

impl Measurement {
    /// Seconds as f64 (for ratio computation).
    pub fn secs(&self) -> f64 {
        self.mean.as_secs_f64()
    }
}

/// Run `f` `runs` times (after one warmup) and average, like the paper's
/// "average running time of three runs".
pub fn measure<F>(name: &str, runs: usize, mut f: F) -> Measurement
where
    F: FnMut() -> Result<DataFrame>,
{
    // Warmup run (also catches errors early).
    let warm = f();
    if let Err(e) = warm {
        return Measurement {
            name: name.to_string(),
            mean: Duration::ZERO,
            rows: None,
            error: Some(e.to_string()),
        };
    }
    let rows = warm.ok().map(|df| df.len());
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let start = Instant::now();
        let r = f();
        total += start.elapsed();
        if let Err(e) = r {
            return Measurement {
                name: name.to_string(),
                mean: Duration::ZERO,
                rows,
                error: Some(e.to_string()),
            };
        }
    }
    Measurement {
        name: name.to_string(),
        mean: total / runs as u32,
        rows,
        error: None,
    }
}

/// The `[scale] [runs]` arguments every experiment binary takes (defaults:
/// scale 2000, 3 runs). An argument that is not a positive integer, or a
/// third argument, is a usage error — the process exits with status 2
/// rather than silently running the default scale.
pub fn scale_and_runs(bin: &str) -> (usize, usize) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale_and_runs(&args).unwrap_or_else(|bad| {
        eprintln!("{bin}: unexpected argument `{bad}`");
        eprintln!("usage: {bin} [scale] [runs]  (positive integers; defaults 2000 3)");
        std::process::exit(2);
    })
}

/// `Err` carries the offending argument.
fn parse_scale_and_runs(args: &[String]) -> std::result::Result<(usize, usize), &str> {
    let mut parsed = [2000usize, 3];
    if let Some(extra) = args.get(parsed.len()) {
        return Err(extra);
    }
    for (slot, arg) in parsed.iter_mut().zip(args) {
        *slot = arg.parse().ok().filter(|&n| n > 0).ok_or(arg.as_str())?;
    }
    Ok((parsed[0], parsed[1]))
}

/// Print one figure panel as an aligned table.
pub fn print_panel(title: &str, measurements: &[Measurement]) {
    println!("\n=== {title} ===");
    println!("{:<28} {:>12} {:>10}", "alternative", "time (ms)", "rows");
    for m in measurements {
        match &m.error {
            Some(e) => println!("{:<28} {:>12} {:>10}   ERROR: {e}", m.name, "-", "-"),
            None => println!(
                "{:<28} {:>12.2} {:>10}",
                m.name,
                m.mean.as_secs_f64() * 1e3,
                m.rows.map_or_else(|| "-".into(), |r| r.to_string())
            ),
        }
    }
}

/// Print a ratio table (Figure 5 style: ratio of each alternative to the
/// expert query).
pub fn print_ratios(title: &str, rows: &[(String, f64, Option<f64>, Option<f64>)]) {
    println!("\n=== {title} ===");
    println!(
        "{:<6} {:>14} {:>18} {:>14}",
        "query", "expert (ms)", "naive/expert", "rdfframes/expert"
    );
    for (name, expert_ms, naive_ratio, ours_ratio) in rows {
        let fmt = |r: &Option<f64>| match r {
            Some(v) => format!("{v:.2}"),
            None => "timeout".to_string(),
        };
        println!(
            "{:<6} {:>14.2} {:>18} {:>14}",
            name,
            expert_ms,
            fmt(naive_ratio),
            fmt(ours_ratio)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale_and_runs;

    #[test]
    fn scale_and_runs_default_parse_and_reject() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale_and_runs(&args(&[])), Ok((2000, 3)));
        assert_eq!(parse_scale_and_runs(&args(&["64"])), Ok((64, 3)));
        assert_eq!(parse_scale_and_runs(&args(&["64", "1"])), Ok((64, 1)));
        assert_eq!(parse_scale_and_runs(&args(&["--scale"])), Err("--scale"));
        assert_eq!(parse_scale_and_runs(&args(&["64", "x"])), Err("x"));
        assert_eq!(parse_scale_and_runs(&args(&["64", "0"])), Err("0"));
        assert_eq!(parse_scale_and_runs(&args(&["64", "1", "9"])), Err("9"));
    }
}
