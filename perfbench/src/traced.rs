//! The traced run: per-layer metrics.
//!
//! The `imp_telemetry::Telemetry` recorder is installed in
//! `CompileOptions::telemetry` and `SimConfig::telemetry`, so the
//! compiler's own `compile.*` spans and the simulator's per-IB profiles
//! land in it; the benchmark records its own timings around each call
//! into a layer with `Telemetry::record_nanos`. Host times are per
//! preparation plus per pass. None of this feeds the end-to-end metrics.

use crate::corpus::{self, Body, KernelCounts, Kind, PassStats, Spec};
use crate::{median, metric, Metric, Outcome};
use imp_compiler::OptPolicy;
use imp_isa::{Addr, Instruction, Opcode, RowMask};
use imp_rram::{AnalogSpec, FaultMap, FaultRates, ReramArray};
use imp_sim::{
    FaultConfig, FaultPolicy, Machine, Parallelism, SimConfig, Telemetry, TelemetryReport,
};
use std::hint::black_box;
use std::time::Instant;

/// Traced passes alternate with untraced ones (for the overhead ratio)
/// for about `--seconds` in all, and at least this many of each.
const MIN_PASSES: usize = 3;

/// `(name, timer)` pairs of the compiler's phase spans.
const COMPILE_PHASES: [(&str, &str); 7] = [
    ("compiler.compile_ms", "compile.total"),
    ("compiler.scalarize_ms", "compile.scalarize"),
    ("compiler.merge_ms", "compile.merge"),
    ("compiler.partition_ms", "compile.partition"),
    ("compiler.lower_ms", "compile.lower"),
    ("compiler.schedule_ms", "compile.schedule"),
    ("compiler.assemble_ms", "compile.assemble"),
];

/// Timers of work the traced cold pass repeats only to time a layer
/// the program gives no span of its own; excluded from the overhead
/// ratio.
const REPLICA_TIMERS: [&str; 3] = ["dfg.interp", "verify.replica", "sim.machine_new"];

/// Set-up time under `timer` plus its mean per traced pass, in ms.
struct Timings {
    setup: TelemetryReport,
    passes: TelemetryReport,
    pass_count: f64,
}

impl Timings {
    fn nanos(report: &TelemetryReport, timer: &str) -> f64 {
        report
            .timers
            .get(timer)
            .map_or(0.0, |t| t.total_nanos as f64)
    }

    fn ms(&self, timer: &str) -> f64 {
        (Self::nanos(&self.setup, timer) + Self::nanos(&self.passes, timer) / self.pass_count) / 1e6
    }

    fn count(&self, counter: &str) -> f64 {
        let get = |r: &TelemetryReport| r.counters.get(counter).copied().unwrap_or(0) as f64;
        get(&self.setup) + get(&self.passes) / self.pass_count
    }
}

pub fn run(spec: Spec, seed: u64, seconds: f64) -> Result<(Vec<Metric>, Outcome), String> {
    let expected = spec.references(seed);
    let mut plain = spec.prepare(seed, None)?;
    let tel = Telemetry::new();
    let mut traced = spec.prepare(seed, Some(&tel))?;
    let setup = tel.snapshot();
    tel.reset();

    let mut outcome = Outcome::default();
    let first = corpus::pass(&mut plain, &expected, None, None);
    outcome.absorb(&first, &first);
    // Telemetry on must not change a single output or modelled figure.
    let warm = corpus::pass(&mut traced, &expected, Some(&tel), None);
    outcome.absorb(&warm, &first);
    tel.reset();

    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut last = warm;
    let start = Instant::now();
    while traced_times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let stats = corpus::pass(&mut plain, &expected, None, None);
        plain_times.push(t.elapsed().as_secs_f64());
        outcome.absorb(&stats, &first);
        let t = Instant::now();
        last = corpus::pass(&mut traced, &expected, Some(&tel), None);
        traced_times.push(t.elapsed().as_secs_f64());
        outcome.absorb(&last, &first);
        crate::check_properties(spec, &last, &mut outcome);
    }
    let timings = Timings {
        setup,
        passes: tel.snapshot(),
        pass_count: traced_times.len() as f64,
    };

    let replica_s = REPLICA_TIMERS
        .iter()
        .map(|t| Timings::nanos(&timings.passes, t))
        .sum::<f64>()
        / 1e9
        / timings.pass_count;
    let mean = |times: &[f64]| times.iter().sum::<f64>() / times.len() as f64;
    let overhead_ratio = (mean(&traced_times) - replica_s) / mean(&plain_times);

    let front_end = if spec.kind == Kind::ColdSession {
        FrontEnd::from_pass(&timings, &last)
    } else {
        front_end_probe(seed, &mut outcome)?
    };
    let counts = if spec.kind == Kind::ColdSession {
        last.session_kernels
    } else {
        let mut counts = KernelCounts::default();
        for k in &traced {
            if let Body::Machine { kernel, .. } = &k.body {
                counts.add(kernel);
            }
        }
        counts
    };

    let mut m = vec![
        metric("dfg.build_ms", timings.ms("dfg.build"), "ms"),
        metric("dfg.parse_ms", front_end.parse_ms, "ms"),
        metric("dfg.interp_ms", front_end.interp_ms, "ms"),
        metric("workloads.inputs_ms", timings.ms("workloads.inputs"), "ms"),
    ];
    // compiler
    for (name, timer) in COMPILE_PHASES {
        m.push(metric(name, timings.ms(timer), "ms"));
    }
    m.push(metric("compiler.ibs", counts.ibs as f64, "count"));
    m.push(metric(
        "compiler.static_insts",
        counts.static_insts as f64,
        "count",
    ));
    m.push(metric(
        "compiler.module_latency",
        counts.module_latency as f64,
        "cycles",
    ));
    // isa
    m.push(metric("isa.code_bytes", counts.code_bytes as f64, "bytes"));
    // verify: set-up runs are timed directly; a cold pass's builder runs
    // by the replica; a remap pass's re-verifies at the set-up mean.
    let setup_verifies = Timings::nanos(&timings.setup, "verify.verify") / 1e6;
    let setup_runs = timings
        .setup
        .counters
        .get("verify.runs")
        .copied()
        .unwrap_or(0)
        .max(1) as f64;
    let pass_runs = timings
        .passes
        .counters
        .get("verify.runs")
        .copied()
        .unwrap_or(0) as f64
        / timings.pass_count;
    let verify_ms = match spec.kind {
        Kind::ColdSession => {
            Timings::nanos(&timings.passes, "verify.replica") / 1e6 / timings.pass_count
        }
        _ => setup_verifies + pass_runs * setup_verifies / setup_runs,
    };
    m.push(metric("verify.verify_ms", verify_ms, "ms"));
    m.push(metric(
        "verify.diagnostics",
        timings.count("verify.diagnostics"),
        "count",
    ));
    // rram
    m.extend(rram_microbench()?);
    for op in Opcode::ALL {
        let count = last.ops.get(op.mnemonic()).copied().unwrap_or(0);
        m.push(metric(
            format!("rram.ops.{}", op.mnemonic()),
            count as f64,
            "count",
        ));
    }
    m.push(metric(
        "rram.avg_adc_bits",
        last.adc_bits_sum / last.ok_runs.max(1) as f64,
        "bits",
    ));
    m.push(metric(
        "rram.row_writes_per_exec",
        last.row_writes_max as f64,
        "count",
    ));
    // noc
    let noc = &last.noc;
    for (name, value) in [
        ("noc.messages", noc.messages),
        ("noc.bytes", noc.bytes),
        ("noc.flit_hops", noc.flit_hops),
        ("noc.reduction_adds", noc.reduction_adds),
        ("noc.contention_cycles", noc.contention_cycles),
        ("noc.retransmissions", noc.retransmissions),
        ("noc.crc_failures", noc.crc_failures),
        ("noc.transfer_cycles", last.transfer_cycles),
        ("noc.stall_cycles", last.stall_cycles),
    ] {
        m.push(metric(name, value as f64, "count"));
    }
    // sim
    for k in &traced {
        let key = format!("sim.run.{}", k.workload.name);
        m.push(metric(
            format!("sim.run_ms.{}", k.workload.name),
            timings.ms(&key),
            "ms",
        ));
    }
    m.push(metric(
        "sim.machine_new_ms",
        timings.ms("sim.machine_new"),
        "ms",
    ));
    for (name, value) in [
        ("sim.groups", last.groups),
        ("sim.rounds", last.rounds),
        ("sim.retries", last.retries),
        ("sim.retired_arrays", last.retired_arrays),
        ("sim.fault_events", last.fault_events),
        ("sim.fault_overhead_cycles", last.fault_overhead_cycles),
        (
            "sim.transport_overhead_cycles",
            last.transport_overhead_cycles,
        ),
    ] {
        m.push(metric(name, value as f64, "count"));
    }
    let (zero_rate, speedup) = engine_probe(seed, &mut outcome)?;
    m.push(metric("sim.zero_rate_fault_overhead", zero_rate, "ratio"));
    m.push(metric("sim.parallel_speedup", speedup, "ratio"));
    // imp
    m.push(metric(
        "imp.session_build_ms",
        front_end.session_build_ms,
        "ms",
    ));
    m.push(metric(
        "imp.session_overhead_ms",
        front_end.session_overhead_ms,
        "ms",
    ));
    m.push(metric(
        "imp.shadow_worst_ulps",
        front_end.shadow_worst_ulps,
        "ulps",
    ));
    // telemetry
    m.push(metric("telemetry.overhead_ratio", overhead_ratio, "ratio"));
    Ok((m, outcome))
}

/// Figures of the text front end and the session layer.
struct FrontEnd {
    parse_ms: f64,
    interp_ms: f64,
    session_build_ms: f64,
    session_overhead_ms: f64,
    shadow_worst_ulps: f64,
}

impl FrontEnd {
    fn from_pass(timings: &Timings, stats: &PassStats) -> Self {
        FrontEnd {
            parse_ms: timings.ms("dfg.parse"),
            interp_ms: timings.ms("dfg.interp"),
            session_build_ms: timings.ms("imp.session_build"),
            session_overhead_ms: timings.ms("imp.session_overhead"),
            shadow_worst_ulps: stats.shadow_worst_ulps,
        }
    }
}

/// Workloads whose passes neither parse nor build sessions take these
/// figures from one cold-session pass over the same kernels and seed.
fn front_end_probe(seed: u64, outcome: &mut Outcome) -> Result<FrontEnd, String> {
    let cold = corpus::spec("cold_session").expect("cold_session is a workload");
    let expected = cold.references(seed);
    let mut kernels = cold.prepare(seed, None)?;
    let tel = Telemetry::new();
    let stats = corpus::pass(&mut kernels, &expected, Some(&tel), None);
    outcome.absorb(&stats, &stats);
    let timings = Timings {
        setup: TelemetryReport::default(),
        passes: tel.snapshot(),
        pass_count: 1.0,
    };
    Ok(FrontEnd::from_pass(&timings, &stats))
}

/// Host µs per `ReramArray::execute_local` of each array-local opcode,
/// on a fault-free array and (add, dot, mul) on one with stuck cells.
fn rram_microbench() -> Result<Vec<Metric>, String> {
    let mut clean = ReramArray::new(AnalogSpec::prototype());
    for row in 0..8 {
        clean.write_row_broadcast(row, 0x0001_8000 + 0x1234 * row as i32);
    }
    for reg in 0..8 {
        clean.write_reg(reg, [0x0000_4000 + 0x0101 * reg as i32; imp_isa::LANES]);
    }
    let mut faulty = clean.clone();
    faulty.install_faults(&FaultMap::generate(0x57C, &FaultRates::cells(1e-2)));

    let rows = RowMask::from_rows(0..4);
    let ops = [
        (
            "add",
            Instruction::Add {
                mask: rows,
                dst: Addr::mem(20),
            },
        ),
        (
            "sub",
            Instruction::Sub {
                minuend: RowMask::from_rows([0, 1]),
                subtrahend: RowMask::from_rows([2]),
                dst: Addr::mem(21),
            },
        ),
        (
            "dot",
            Instruction::Dot {
                mask: RowMask::from_rows(0..8),
                reg_mask: RowMask::from_rows(0..8),
                dst: Addr::mem(22),
            },
        ),
        (
            "mul",
            Instruction::Mul {
                a: Addr::mem(0),
                b: Addr::mem(1),
                dst: Addr::mem(23),
            },
        ),
        (
            "shiftl",
            Instruction::ShiftL {
                src: Addr::mem(0),
                dst: Addr::mem(24),
                amount: 3,
            },
        ),
        (
            "shiftr",
            Instruction::ShiftR {
                src: Addr::mem(0),
                dst: Addr::mem(25),
                amount: 3,
            },
        ),
        (
            "mask",
            Instruction::Mask {
                src: Addr::mem(0),
                dst: Addr::mem(26),
                imm: 0xffff,
            },
        ),
        (
            "mov",
            Instruction::Mov {
                src: Addr::mem(0),
                dst: Addr::mem(27),
            },
        ),
        (
            "lut",
            Instruction::Lut {
                src: Addr::mem(0),
                dst: Addr::mem(28),
            },
        ),
    ];
    let mut m = Vec::new();
    for (name, inst) in &ops {
        m.push(metric(
            format!("rram.op_us.{name}"),
            time_op(&mut clean, inst)?,
            "us",
        ));
    }
    for (name, inst) in ops
        .iter()
        .filter(|(n, _)| matches!(*n, "add" | "dot" | "mul"))
    {
        m.push(metric(
            format!("rram.op_us_faulty.{name}"),
            time_op(&mut faulty, inst)?,
            "us",
        ));
    }
    Ok(m)
}

/// Median µs per execution over a few batches of about 20 ms each.
fn time_op(array: &mut ReramArray, inst: &Instruction) -> Result<f64, String> {
    const BATCHES: usize = 5;
    const BATCH_S: f64 = 0.02;
    let mut run = |iters: u64| -> Result<f64, String> {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(
                array
                    .execute_local(black_box(inst))
                    .map_err(|e| format!("{inst:?}: {e}"))?,
            );
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let probe = run(16)? / 16.0;
    let iters = ((BATCH_S / probe.max(1e-9)) as u64).clamp(16, 1 << 22);
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        per_op.push(run(iters)? / iters as f64 * 1e6);
    }
    Ok(median(&mut per_op))
}

/// `Machine::run` wall-time ratios on blackscholes and fluidanimate at
/// 1,024 instances (two of dlp_clean's kernels): a zero-rate
/// `FaultConfig` over `faults: None`, and `Serial` over `Threads(2)`.
fn engine_probe(seed: u64, outcome: &mut Outcome) -> Result<(f64, f64), String> {
    const N: usize = 1024;
    const REPS: usize = 3;
    let serial = SimConfig {
        parallelism: Parallelism::Serial,
        ..SimConfig::functional()
    };
    let zero_rate = SimConfig {
        faults: Some(FaultConfig::new(FaultRates::none(), FaultPolicy::Silent)),
        ..serial.clone()
    };
    let threads = SimConfig {
        parallelism: Parallelism::Threads(2),
        ..serial.clone()
    };
    let mut totals = [0.0f64; 3];
    for name in ["blackscholes", "fluidanimate"] {
        let w = imp_workloads::workload(name).expect("Table-3 kernel");
        let kernel = w
            .compile(N, OptPolicy::MaxDlp)
            .map_err(|e| format!("{name}: compile: {e}"))?;
        let inputs = w.inputs(N, seed);
        let mut reference_cycles = None;
        for (total, config) in totals.iter_mut().zip([&serial, &zero_rate, &threads]) {
            let mut machine = Machine::new(config.clone());
            let mut times = Vec::with_capacity(REPS);
            let mut cycles = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let start = Instant::now();
                let report = machine
                    .run(&kernel, &inputs)
                    .map_err(|e| format!("{name}: run: {e}"))?;
                times.push(start.elapsed().as_secs_f64());
                cycles.push(report.cycles);
            }
            *total += median(&mut times);
            outcome.attempted += REPS as u64;
            let expected = *reference_cycles.get_or_insert(cycles[0]);
            if cycles.iter().any(|&c| c != expected) {
                outcome.errors.push(format!(
                    "{name}: cycles differ between engine configurations"
                ));
            }
        }
    }
    Ok((totals[1] / totals[0], totals[0] / totals[2]))
}
