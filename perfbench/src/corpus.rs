//! The four workloads: how each prepares the eight Table-3 kernels and
//! what one pass over them runs and checks.

use crate::check::{self, Expected};
use crate::hostspeed::{self, Probe};
use imp::{Session, ShadowConfig};
use imp_compiler::{compile, ArrayAvailability, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{textfmt, NodeId, Tensor};
use imp_rram::{FaultRates, QFormat};
use imp_sim::{
    FaultConfig, FaultPolicy, LinkFaultRates, Machine, NocStats, Parallelism, RunReport, SimConfig,
    Telemetry, TransportConfig, TransportPolicy,
};
use imp_verify::VerifyLevel;
use imp_workloads::{all_workloads, Workload};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Per-hop bit-flip probability of every H-tree link on `ilp_noc`.
const FLIP_PER_HOP: f64 = 0.02;
/// `ilp_noc`'s retransmission budget per message. At a few percent flips
/// per message, exhausting nine attempts is far below one in a billion.
const NOC_POLICY: TransportPolicy = TransportPolicy::AckRetransmit { max: 8, backoff: 4 };
/// Per-array probability of a permanent ADC offset on `faulty_remap`.
/// Every conversion error latches the duplicate-conversion flag, so each
/// faulted array that computes is retired whatever the inputs. Stuck
/// cells are left out: the end-of-run residue scan misses a stuck cell
/// whose corrupted row is overwritten before the scan, so outputs would
/// be wrong on some seeds (see CHANGES.md).
const ADC_OFFSET_RATE: f64 = 0.05;
/// The chip's fault populations are fixed per workload; `--seed` draws
/// the kernels' inputs only.
const NOC_FAULT_SEED: u64 = 0x4E0C;
const ARRAY_FAULT_SEED: u64 = 0xFA17;
/// kmeans centroids: an argmin output differs by whole centroid indices
/// on a near-tie, so its session shadow-checks at this many units.
const KMEANS_INDEX_SPAN: f64 = 4.0;

/// Which mechanism a workload loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DlpClean,
    IlpNoc,
    FaultyRemap,
    ColdSession,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Module instances per kernel (hotspot's grid side is the square
    /// root, at least 4).
    pub instances: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "dlp_clean",
        kind: Kind::DlpClean,
        instances: 4096,
    },
    Spec {
        name: "ilp_noc",
        kind: Kind::IlpNoc,
        instances: 2048,
    },
    Spec {
        name: "faulty_remap",
        kind: Kind::FaultyRemap,
        instances: 256,
    },
    Spec {
        name: "cold_session",
        kind: Kind::ColdSession,
        instances: COLD_INSTANCES,
    },
];

/// One instance group (8 lanes) per cold-session job.
pub const COLD_INSTANCES: usize = 8;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The compile-then-run policies a cold-session job builds a session
/// under; `None` is `SessionBuilder::adaptive`.
const SESSION_MODES: [Option<OptPolicy>; 4] = [
    Some(OptPolicy::MaxDlp),
    Some(OptPolicy::MaxIlp),
    Some(OptPolicy::MaxArrayUtil),
    None,
];

impl Spec {
    fn policy(self) -> OptPolicy {
        match self.kind {
            Kind::IlpNoc => OptPolicy::MaxIlp,
            _ => OptPolicy::MaxDlp,
        }
    }

    /// The simulated chip of this workload.
    pub fn sim_config(self, telemetry: Option<&Telemetry>) -> SimConfig {
        let mut config = SimConfig {
            parallelism: Parallelism::Serial,
            verify: VerifyLevel::Deny,
            telemetry: telemetry.cloned(),
            ..SimConfig::functional()
        };
        match self.kind {
            Kind::IlpNoc => {
                config.fault_seed = NOC_FAULT_SEED;
                config.transport = Some(TransportConfig {
                    rates: LinkFaultRates::flips(FLIP_PER_HOP),
                    policy: NOC_POLICY,
                });
            }
            Kind::FaultyRemap => {
                config.fault_seed = ARRAY_FAULT_SEED;
                let rates = FaultRates {
                    adc_offset: ADC_OFFSET_RATE,
                    ..FaultRates::none()
                };
                config.faults = Some(FaultConfig::new(rates, FaultPolicy::Remap));
            }
            Kind::DlpClean | Kind::ColdSession => {}
        }
        config
    }

    /// The independent reference outputs of every kernel at `seed`.
    pub fn references(self, seed: u64) -> Vec<Expected> {
        all_workloads()
            .iter()
            .map(|w| {
                let (graph, outputs, _) = w.build(self.instances);
                let inputs = w.inputs(self.instances, seed);
                check::reference(w.name, &graph, &outputs, &inputs, self.instances)
            })
            .collect()
    }

    /// Makes every kernel ready to run: build the graph, generate inputs,
    /// then either compile, verify at `Deny` and construct the `Machine`,
    /// or (cold_session) render the graph to text.
    ///
    /// # Errors
    /// A kernel that does not compile or fails verification.
    pub fn prepare(self, seed: u64, tel: Option<&Telemetry>) -> Result<Vec<Kernel>, String> {
        all_workloads()
            .into_iter()
            .map(|w| self.prepare_kernel(w, seed, tel))
            .collect()
    }

    fn prepare_kernel(
        self,
        workload: Workload,
        seed: u64,
        tel: Option<&Telemetry>,
    ) -> Result<Kernel, String> {
        let n = self.instances;
        let (graph, outputs, ranges) = timed(tel, "dfg.build", || workload.build(n));
        let inputs = timed(tel, "workloads.inputs", || workload.inputs(n, seed));
        let run_key = tel.map(|_| leak(format!("sim.run.{}", workload.name)));
        let body = if self.kind == Kind::ColdSession {
            let text = textfmt::render(&graph, &ranges);
            let index_span = if workload.name == "kmeans" {
                KMEANS_INDEX_SPAN
            } else {
                0.0
            };
            Body::Cold {
                text,
                tolerance_ulps: workload.tolerance.max(index_span) / QFormat::Q16_16.epsilon(),
            }
        } else {
            let options = CompileOptions {
                policy: self.policy(),
                expected_instances: n,
                ranges,
                telemetry: tel.cloned(),
                ..CompileOptions::default()
            };
            let kernel = compile(&graph, &options)
                .map_err(|e| format!("{}: compile: {e}", workload.name))?;
            let config = self.sim_config(tel);
            let report = timed(tel, "verify.verify", || {
                let avail = ArrayAvailability::all(config.capacity.arrays());
                imp_verify::verify_with(&kernel, &kernel.schedule, &avail)
            });
            if let Some(t) = tel {
                report.record(t);
            }
            if !report.passes_deny() {
                return Err(format!(
                    "{}: verification at Deny failed:\n{}",
                    workload.name,
                    report.render()
                ));
            }
            let machine = timed(tel, "sim.machine_new", || Machine::new(config));
            Body::Machine {
                kernel,
                machine,
                outputs,
            }
        };
        Ok(Kernel {
            workload,
            n,
            inputs,
            run_key,
            body,
        })
    }
}

/// One kernel of a workload, ready for passes.
pub struct Kernel {
    pub workload: Workload,
    n: usize,
    inputs: HashMap<String, Tensor>,
    /// Telemetry key of this kernel's run time (traced runs only).
    run_key: Option<&'static str>,
    pub body: Body,
}

// One `Body` per kernel, never moved once prepared.
#[allow(clippy::large_enum_variant)]
pub enum Body {
    /// Compiled, verified and bound to its chip in set-up.
    Machine {
        kernel: CompiledKernel,
        machine: Machine,
        outputs: Vec<NodeId>,
    },
    /// The kernel as text; each job parses it and builds sessions.
    Cold { text: String, tolerance_ulps: f64 },
}

/// Everything one pass measured. Host times are kept by the caller.
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Kernel runs attempted and failed (a session that fails to build
    /// counts as a failed run).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations among runs that did not fail.
    pub errors: Vec<String>,
    pub instances: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub energy_j: f64,
    pub min_lifetime_years: f64,
    pub max_err_ratio: f64,
    /// Hash of every run's outputs and modelled figures, in run order.
    pub signature: u64,
    pub rounds: u64,
    pub groups: u64,
    pub retries: u64,
    pub retired_arrays: u64,
    pub fault_events: u64,
    pub fault_overhead_cycles: u64,
    pub transport_overhead_cycles: u64,
    pub noc: NocStats,
    pub adc_bits_sum: f64,
    pub ok_runs: u64,
    pub row_writes_max: u64,
    /// Per-IB profile cycles (traced runs only), summed over rounds.
    pub transfer_cycles: u64,
    pub stall_cycles: u64,
    /// Dynamic op counts (traced runs only).
    pub ops: BTreeMap<&'static str, u64>,
    pub shadow_worst_ulps: f64,
    /// Compile results of the sessions a cold pass built.
    pub session_kernels: KernelCounts,
    /// Host seconds of the pass's kernel runs (or cold jobs), probes
    /// excluded.
    pub host_s: f64,
    /// The same time at the reference host speed (passes with a probe
    /// only; see `hostspeed`).
    pub norm_s: f64,
    /// The probe time after each kernel of the pass.
    pub probes: Vec<f64>,
}

/// Static figures of a set of compiled kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounts {
    pub ibs: u64,
    pub static_insts: u64,
    pub module_latency: u64,
    pub code_bytes: u64,
}

impl KernelCounts {
    pub fn add(&mut self, kernel: &CompiledKernel) {
        self.ibs += kernel.ibs.len() as u64;
        self.static_insts += kernel.stats.total_instructions as u64;
        self.module_latency += kernel.stats.module_latency;
        self.code_bytes += kernel
            .ibs
            .iter()
            .map(|ib| ib.block.encode().len() as u64)
            .sum::<u64>();
    }
}

impl PassStats {
    pub fn new() -> Self {
        PassStats {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            instances: 0,
            instructions: 0,
            cycles: 0,
            energy_j: 0.0,
            min_lifetime_years: f64::INFINITY,
            max_err_ratio: 0.0,
            signature: FNV_OFFSET,
            rounds: 0,
            groups: 0,
            retries: 0,
            retired_arrays: 0,
            fault_events: 0,
            fault_overhead_cycles: 0,
            transport_overhead_cycles: 0,
            noc: NocStats::default(),
            adc_bits_sum: 0.0,
            ok_runs: 0,
            row_writes_max: 0,
            transfer_cycles: 0,
            stall_cycles: 0,
            ops: BTreeMap::new(),
            shadow_worst_ulps: 0.0,
            session_kernels: KernelCounts::default(),
            host_s: 0.0,
            norm_s: 0.0,
            probes: Vec::new(),
        }
    }

    fn fail(&mut self, message: String) {
        eprintln!("run failed: {message}");
        self.failed += 1;
    }

    /// Folds one successful run in and checks its outputs.
    fn record(
        &mut self,
        workload: &Workload,
        expected: &Expected,
        kernel: &CompiledKernel,
        report: &RunReport,
        outputs: &[NodeId],
        traced: bool,
    ) {
        let name = workload.name;
        let groups = report.instances.div_ceil(imp_isa::LANES) as u64;
        self.ok_runs += 1;
        self.instances += report.instances as u64;
        self.instructions += report.instructions_executed;
        self.cycles += report.cycles;
        self.energy_j += report.energy.total_j();
        self.min_lifetime_years = self.min_lifetime_years.min(report.lifetime_years);
        self.rounds += report.rounds;
        self.groups += groups;
        self.retries += u64::from(report.retries);
        self.retired_arrays += report.retired_arrays.len() as u64;
        self.fault_events += report.fault_events.len() as u64;
        self.fault_overhead_cycles += report.fault_overhead_cycles;
        self.transport_overhead_cycles += report.transport_overhead_cycles;
        self.noc.merge(&report.noc);
        self.adc_bits_sum += report.avg_adc_bits;
        self.row_writes_max = self.row_writes_max.max(report.writes_per_exec);
        if traced {
            if let Some(t) = &report.telemetry {
                for p in &t.ib_profiles {
                    self.transfer_cycles += p.transfer_cycles * report.rounds;
                    self.stall_cycles += p.stall_cycles * report.rounds;
                }
            }
            let executions = groups * (1 + u64::from(report.retries));
            for (mnemonic, count) in kernel.instruction_mix().iter() {
                *self.ops.entry(mnemonic).or_insert(0) += count as u64 * executions;
            }
        }

        self.hash(report.cycles);
        self.hash(report.energy.total_j().to_bits());
        self.hash(report.lifetime_years.to_bits());
        let mut got = Vec::with_capacity(outputs.len());
        for node in outputs {
            match report.outputs.get(node) {
                Some(t) => {
                    for v in t.data() {
                        self.hash(v.to_bits());
                    }
                    got.push(t.data());
                }
                None => {
                    self.errors.push(format!("{name}: output {node} missing"));
                    return;
                }
            }
        }
        match check::check(&got, expected, workload.tolerance) {
            Ok(ratio) => self.max_err_ratio = self.max_err_ratio.max(ratio),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }

    fn hash(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.signature ^= u64::from(byte);
            self.signature = self.signature.wrapping_mul(FNV_PRIME);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Runs every kernel once and checks every output. With `tel`, the
/// benchmark's own timings of each layer call land in it under the
/// layer's name. With `probe`, the reference loop runs before the first
/// kernel and after each one, and each kernel's time is also taken in
/// reference units: divided by the mean of the probes on either side of
/// it, which sample the host's speed at the moments the kernel ran.
pub fn pass(
    kernels: &mut [Kernel],
    expected: &[Expected],
    tel: Option<&Telemetry>,
    mut probe: Option<&mut Probe>,
) -> PassStats {
    let mut stats = PassStats::new();
    let mut before = probe.as_deref_mut().map(Probe::time);
    for (k, want) in kernels.iter_mut().zip(expected) {
        let start = Instant::now();
        match &k.body {
            Body::Machine { .. } => k.run_machine(want, tel, &mut stats),
            Body::Cold { .. } => k.cold_job(want, tel, &mut stats),
        }
        let host_s = start.elapsed().as_secs_f64();
        stats.host_s += host_s;
        if let (Some(p), Some(b)) = (probe.as_deref_mut(), before) {
            let after = p.time();
            stats.norm_s += hostspeed::normalize(host_s, b, after);
            stats.probes.push(after);
            before = Some(after);
        }
    }
    stats
}

impl Kernel {
    fn run_machine(&mut self, want: &Expected, tel: Option<&Telemetry>, stats: &mut PassStats) {
        let Body::Machine {
            kernel,
            machine,
            outputs,
        } = &mut self.body
        else {
            return;
        };
        stats.attempted += 1;
        let inputs = &self.inputs;
        match timed_key(tel, self.run_key, || machine.run(kernel, inputs)) {
            Ok(report) => stats.record(
                &self.workload,
                want,
                kernel,
                &report,
                outputs,
                tel.is_some(),
            ),
            Err(e) => stats.fail(format!("{}: {e}", self.workload.name)),
        }
    }

    /// One cold-session job: parse the kernel's text, then build a
    /// session under each policy and `adaptive()` at `VerifyLevel::Deny`
    /// with shadow validation, and run one instance group on each.
    fn cold_job(&self, want: &Expected, tel: Option<&Telemetry>, stats: &mut PassStats) {
        let Body::Cold {
            text,
            tolerance_ulps,
        } = &self.body
        else {
            return;
        };
        let name = self.workload.name;
        let parsed = match timed(tel, "dfg.parse", || textfmt::parse(text)) {
            Ok(parsed) => parsed,
            Err(e) => {
                for _ in SESSION_MODES {
                    stats.attempted += 1;
                    stats.fail(format!("{name}: parse: {e}"));
                }
                return;
            }
        };
        let outputs = parsed.graph.outputs().to_vec();
        for mode in SESSION_MODES {
            stats.attempted += 1;
            let mut builder = Session::builder(parsed.graph.clone())
                .expected_instances(self.n)
                .parallelism(Parallelism::Serial)
                .verify(VerifyLevel::Deny)
                .shadow(ShadowConfig::with_tolerance_ulps(*tolerance_ulps));
            for (input, interval) in &parsed.ranges {
                builder = builder.range(input, *interval);
            }
            builder = match mode {
                Some(policy) => builder.policy(policy),
                None => builder.adaptive(),
            };
            if let Some(t) = tel {
                builder = builder.telemetry(t.clone());
            }
            let mut session = match timed(tel, "imp.session_build", || builder.build()) {
                Ok(session) => session,
                Err(e) => {
                    stats.fail(format!("{name} {mode:?}: build: {e}"));
                    continue;
                }
            };
            if tel.is_some() {
                // The builder's verify and `Machine::new` carry no span of
                // their own; time the same calls on the same kernel.
                let config = session.sim_config();
                timed(tel, "verify.replica", || {
                    let avail = ArrayAvailability::all(config.capacity.arrays());
                    imp_verify::verify_with(session.kernel(), &session.kernel().schedule, &avail)
                });
                timed(tel, "sim.machine_new", || Machine::new(config.clone()));
            }
            let feeds: Vec<(&str, Tensor)> = self
                .inputs
                .iter()
                .map(|(key, tensor)| (key.as_str(), tensor.clone()))
                .collect();
            let sim_before = tel.map(sim_run_nanos);
            let started = Instant::now();
            let result = session.run(&feeds);
            if let (Some(t), Some(before)) = (tel, sim_before) {
                let session_nanos = started.elapsed().as_nanos();
                let sim_nanos = sim_run_nanos(t) - before;
                t.record_nanos(
                    "imp.session_overhead",
                    session_nanos.saturating_sub(sim_nanos),
                );
                if let Some(key) = self.run_key {
                    t.record_nanos(key, sim_nanos);
                }
                // The session's shadow replay, timed as the interpreter run
                // it performs (an interpreter error already failed the run).
                let _ = timed(tel, "dfg.interp", || {
                    let mut interp = imp_dfg::interp::Interpreter::new(session.graph());
                    for (key, tensor) in &feeds {
                        interp.feed(key, tensor.clone());
                    }
                    interp.run()
                });
            }
            match result {
                Ok(out) => {
                    if let Some(shadow) = out.shadow_report() {
                        stats.shadow_worst_ulps = stats.shadow_worst_ulps.max(shadow.worst_ulps());
                    }
                    stats.session_kernels.add(session.kernel());
                    stats.record(
                        &self.workload,
                        want,
                        session.kernel(),
                        out.report(),
                        &outputs,
                        tel.is_some(),
                    );
                }
                Err(e) => stats.fail(format!("{name} {mode:?}: run: {e}")),
            }
        }
    }
}

fn sim_run_nanos(t: &Telemetry) -> u128 {
    t.snapshot()
        .timers
        .get("sim.run")
        .map_or(0, |timer| timer.total_nanos)
}

/// Runs `f`, recording its wall time under `key` when tracing.
pub fn timed<T>(tel: Option<&Telemetry>, key: &'static str, f: impl FnOnce() -> T) -> T {
    timed_key(tel, Some(key), f)
}

fn timed_key<T>(tel: Option<&Telemetry>, key: Option<&'static str>, f: impl FnOnce() -> T) -> T {
    match (tel, key) {
        (Some(t), Some(key)) => {
            let start = Instant::now();
            let value = f();
            t.record_nanos(key, start.elapsed().as_nanos());
            value
        }
        _ => f(),
    }
}

/// Telemetry keys are `&'static str`; the eight per-kernel keys are made
/// once per traced preparation.
fn leak(key: String) -> &'static str {
    Box::leak(key.into_boxed_str())
}
