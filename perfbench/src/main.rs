//! Corpus benchmark for the IMP reproduction.
//!
//! ```text
//! imp-perfbench --workload <dlp_clean|ilp_noc|faulty_remap|cold_session>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (all eight Table-3 kernels) on one host thread for
//! about `--seconds` of timed passes, checks every output against an
//! independent reference, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See README.md for the metrics.

mod check;
mod corpus;
mod hostspeed;
mod traced;

use corpus::{PassStats, Spec};
use hostspeed::Probe;
use std::process::ExitCode;
use std::time::Instant;

/// Timed passes a run makes even if `--seconds` is already spent.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports besides its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts a pass's runs and checks that its outputs and modelled
    /// figures equal the first pass's.
    pub fn absorb(&mut self, stats: &PassStats, first: &PassStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.errors.extend(stats.errors.iter().cloned());
        if stats.signature != first.signature {
            self.errors
                .push("outputs or modelled figures differ between passes".into());
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Property checks a workload's passes must meet beyond output accuracy.
pub fn check_properties(spec: Spec, stats: &PassStats, outcome: &mut Outcome) {
    use corpus::Kind;
    match spec.kind {
        Kind::FaultyRemap if stats.retired_arrays == 0 => outcome
            .errors
            .push("faulty_remap: a pass retired no array".into()),
        Kind::IlpNoc if stats.noc.retransmissions == 0 => outcome
            .errors
            .push("ilp_noc: a pass made no retransmission".into()),
        _ => {}
    }
}

/// The end-to-end run: a warm-up pass, then timed passes for about
/// `seconds`, each preceded by a timed preparation of every kernel.
///
/// Host times are taken at the reference host speed (see `hostspeed` and
/// README.md, *Steadiness*): the same pass takes up to twice as long
/// while other tenants load the shared host, for stretches longer than a
/// run, and the reference loop timed beside each kernel and each
/// preparation divides that slowdown out. Throughput comes from the
/// median normalized pass time and `setup_s` from the median normalized
/// preparation; preparations interleave with the passes so that their
/// samples, too, span the whole run.
fn measure(spec: Spec, seed: u64, seconds: f64) -> Result<(Vec<Metric>, Outcome), String> {
    let expected = spec.references(seed);
    let mut probe = Probe::new();
    let mut kernels = spec.prepare(seed, None)?;
    let first = corpus::pass(&mut kernels, &expected, None, Some(&mut probe));
    let mut outcome = Outcome::default();
    outcome.absorb(&first, &first);
    check_properties(spec, &first, &mut outcome);

    let mut setup = Vec::new();
    let mut setup_host = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_host = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // The previous kernels go first, so that the peak holds one set.
        drop(std::mem::take(&mut kernels));
        let before = probe.time();
        let t = Instant::now();
        kernels = spec.prepare(seed, None)?;
        let host_s = t.elapsed().as_secs_f64();
        setup.push(hostspeed::normalize(host_s, before, probe.time()));
        setup_host.push(host_s);
        let stats = corpus::pass(&mut kernels, &expected, None, Some(&mut probe));
        pass_s.push(stats.norm_s);
        pass_host.push(stats.host_s);
        probes.extend(&stats.probes);
        outcome.absorb(&stats, &first);
        check_properties(spec, &stats, &mut outcome);
    }

    let passes = pass_s.len();
    let pass_s = median(&mut pass_s);
    let setup_s = median(&mut setup);
    eprintln!(
        "{}: {passes} timed passes; median pass {pass_s:.4} s normalized, {:.4} s host; \
         median preparation {setup_s:.5} s normalized, {:.5} s host; median probe {:.6} s",
        spec.name,
        median(&mut pass_host),
        median(&mut setup_host),
        median(&mut probes),
    );
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("instances_per_s", first.instances as f64 / pass_s, "1/s"),
        metric("sim_insts_per_s", first.instructions as f64 / pass_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("sim_cycles", first.cycles as f64, "cycles"),
        metric(
            "energy_nj_per_instance",
            first.energy_j * 1e9 / first.instances as f64,
            "nJ",
        ),
        metric("lifetime_years", first.min_lifetime_years, "years"),
        metric("max_err_ratio", first.max_err_ratio, "ratio"),
    ];
    Ok((metrics, outcome))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: imp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = corpus::spec(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced::run(spec, args.seed, args.seconds)
    } else {
        measure(spec, args.seed, args.seconds)
    };
    let (metrics, outcome) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
