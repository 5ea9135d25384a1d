//! The `BENCH_core.json` schema: the repo's canonical, versioned record
//! of model costs and solution quality per benchmark workload.
//!
//! Stability contract (pinned by the golden-file test in
//! `tests/bench_gate.rs`):
//!
//! * field **names** and **ordering** are part of the schema — changing
//!   either requires bumping [`SCHEMA_VERSION`],
//! * everything under `"model"` and `"quality"` is deterministic given
//!   the workload definition: independent of host thread count, wall
//!   clock, and machine. These are the fields `bench-diff` gates on,
//! * `"wall_clock_s"` is informational only and never gated by default.

use crate::json::Json;

/// Version of the `BENCH_core.json` layout. Bump when renaming,
/// removing, reordering, or changing the meaning of any field.
///
/// v2: the workload matrix gained the executor axis — every row carries
/// an `"executor"` name and workload ids end in `-{executor}`.
///
/// v3: rows carry the deterministic critical-path statistics
/// (`"critical_path"`) and the ungated per-round host wall-clock
/// (`"round_wall_s"`).
///
/// v4: `"model"` gained `"spill_words"` — words written to per-machine
/// spill files under an enforced memory budget (0 for fully resident
/// runs). Gated like every other model field.
///
/// v5: `"critical_path"` gained the deterministic straggler breakdown
/// (`"straggler_machine"`, `"straggler_stall_words"`: the machine every
/// other machine waits for, named from the per-machine stall rows), and
/// rows may carry an optional, ungated `"host_breakdown"` object — the
/// informational route/compute/spill host wall-clock split. Pre-v5
/// reports default the stragglers to `-1`/`0` and the breakdown to
/// absent.
///
/// v6: `"model"` gained `"checkpoint_words"` and `"replayed_rounds"` —
/// the recovery-side accounting of the fault-injection layer (words
/// written to crash-recovery checkpoints; rounds re-executed from one).
/// Both are 0 for every fault-free run, so pre-v6 reports default them
/// to 0 and every pre-existing gated field is byte-identical to v5.
pub const SCHEMA_VERSION: i64 = 6;

/// Model-side costs of one workload run: exactly what the paper's MPC
/// model charges for, as measured by the audited distributed executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCosts {
    /// Compression phases executed.
    pub phases: i64,
    /// MPC communication rounds (trace-measured).
    pub mpc_rounds: i64,
    /// Machines in the executing cluster.
    pub machines: i64,
    /// Per-machine word budget `S`.
    pub memory_cap_words: i64,
    /// Total words moved across the network.
    pub total_message_words: i64,
    /// Largest per-machine per-round communication.
    pub peak_round_words: i64,
    /// Largest per-machine resident memory in any round.
    pub peak_resident_words: i64,
    /// Words written to per-machine spill files over the run (nonzero
    /// only when an enforced memory budget forced the working set out of
    /// core).
    pub spill_words: i64,
    /// Words written to crash-recovery checkpoints (nonzero only under
    /// fault injection; charged separately from `spill_words` so fault-
    /// free and faulty-but-recovered runs stay bit-identical).
    pub checkpoint_words: i64,
    /// Rounds re-executed from a checkpoint after injected crashes.
    pub replayed_rounds: i64,
    /// Model-constraint breaches (must be 0 under strict enforcement).
    pub violations: i64,
}

/// Solution quality of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Weight of the produced cover.
    pub cover_weight: f64,
    /// Number of vertices in the cover.
    pub cover_size: i64,
    /// A-posteriori ratio certified by the dual certificate.
    pub certified_ratio: f64,
    /// Exact LP relaxation optimum (`LP* ≤ OPT`).
    pub lp_bound: f64,
    /// `cover_weight / lp_bound` (an upper bound on the true ratio).
    pub ratio_vs_lp: f64,
    /// Weight of the greedy baseline cover on the same instance.
    pub greedy_weight: f64,
    /// Weight of the Bar-Yehuda–Even baseline cover.
    pub bye_weight: f64,
}

/// Deterministic critical-path statistics of the audited run (the
/// simulated-compute makespans of `mpc_sim`'s `CriticalPath`): what the
/// round schedule would cost with a global barrier per round vs with
/// dependency-pipelined rounds, plus the barrier's total stall. A pure
/// function of the workload, but they measure host execution strategies
/// rather than the paper's cost model, so `bench-diff` treats them like
/// wall-clock: reported, gated only on explicit tolerance opt-in
/// (`--cp-tolerance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathStats {
    /// Makespan with every round globally barriered.
    pub barrier_makespan: i64,
    /// Makespan with machines released per dependency readiness.
    pub pipelined_makespan: i64,
    /// Total idle cost machines spend waiting at barriers.
    pub barrier_stall: i64,
    /// The machine the others wait for: smallest total stall over the
    /// run, ties to the lower id (`-1` when the run carried no
    /// per-machine rows, e.g. a pre-v5 report or the reference executor).
    pub straggler_machine: i64,
    /// The straggler's total stall (words of barrier idle it *caused* is
    /// everyone else's; its own is this, the minimum).
    pub straggler_stall_words: i64,
}

impl CriticalPathStats {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("barrier_makespan".into(), Json::Int(self.barrier_makespan)),
            (
                "pipelined_makespan".into(),
                Json::Int(self.pipelined_makespan),
            ),
            ("barrier_stall".into(), Json::Int(self.barrier_stall)),
            (
                "straggler_machine".into(),
                Json::Int(self.straggler_machine),
            ),
            (
                "straggler_stall_words".into(),
                Json::Int(self.straggler_stall_words),
            ),
        ])
    }

    /// Field names in schema order (the `bench-diff` comparator iterates
    /// these).
    pub const FIELDS: &'static [&'static str] = &[
        "barrier_makespan",
        "pipelined_makespan",
        "barrier_stall",
        "straggler_machine",
        "straggler_stall_words",
    ];

    /// Typed field access for the comparator.
    pub fn field(&self, name: &str) -> i64 {
        match name {
            "barrier_makespan" => self.barrier_makespan,
            "pipelined_makespan" => self.pipelined_makespan,
            "barrier_stall" => self.barrier_stall,
            "straggler_machine" => self.straggler_machine,
            "straggler_stall_words" => self.straggler_stall_words,
            other => unreachable!("unknown critical-path field {other}"),
        }
    }

    fn from_json(j: &Json, ctx: &str, schema_version: i64) -> Result<Self, String> {
        // v4 reports predate the straggler breakdown; default it so the
        // report still parses and the schema_version mismatch stays
        // bench-diff's finding.
        let (straggler_machine, straggler_stall_words) = if schema_version < 5 {
            (
                req_int(j, "straggler_machine", ctx).unwrap_or(-1),
                req_int(j, "straggler_stall_words", ctx).unwrap_or(0),
            )
        } else {
            (
                req_int(j, "straggler_machine", ctx)?,
                req_int(j, "straggler_stall_words", ctx)?,
            )
        };
        Ok(CriticalPathStats {
            barrier_makespan: req_int(j, "barrier_makespan", ctx)?,
            pipelined_makespan: req_int(j, "pipelined_makespan", ctx)?,
            barrier_stall: req_int(j, "barrier_stall", ctx)?,
            straggler_machine,
            straggler_stall_words,
        })
    }
}

/// The informational host wall-clock split of one workload run, summed
/// over rounds: where the simulator's host time actually went. Never
/// deterministic, never gated — the model-side twin of these quantities
/// lives in `critical_path` and the trace events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostBreakdown {
    /// Seconds spent routing (layout + placement).
    pub route_s: f64,
    /// Seconds spent in machine compute sweeps.
    pub compute_s: f64,
    /// Seconds spent on spill-file I/O.
    pub spill_s: f64,
}

impl HostBreakdown {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("route_s".into(), Json::Num(self.route_s)),
            ("compute_s".into(), Json::Num(self.compute_s)),
            ("spill_s".into(), Json::Num(self.spill_s)),
        ])
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, String> {
        Ok(HostBreakdown {
            route_s: req_num(j, "route_s", ctx)?,
            compute_s: req_num(j, "compute_s", ctx)?,
            spill_s: req_num(j, "spill_s", ctx)?,
        })
    }
}

/// One workload row of the benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Stable workload id, e.g. `gnm-zipf-eps16-n1024-distributed`.
    pub id: String,
    /// Executor that ran the workload (an
    /// [`mwvc_core::mpc::Executor::name`]).
    pub executor: String,
    /// Generator family (a [`mwvc_graph::GraphPreset::family`] name).
    pub family: String,
    /// Weight-model label.
    pub weights: String,
    /// Accuracy parameter of the run.
    pub epsilon: f64,
    /// Vertices of the built instance.
    pub n: i64,
    /// Edges of the built instance.
    pub m: i64,
    /// Gated: model costs.
    pub model: ModelCosts,
    /// Gated: solution quality.
    pub quality: Quality,
    /// Tolerance-gated like wall-clock: deterministic simulated makespans
    /// of the round schedule, barrier vs dependency-pipelined.
    pub critical_path: CriticalPathStats,
    /// Not gated: host wall-clock of the pipeline run, seconds.
    pub wall_clock_s: f64,
    /// Not gated: host wall-clock per MPC round, seconds, in execution
    /// order (host- and thread-count-dependent).
    pub round_wall_s: Vec<f64>,
    /// Not gated, optional: where host wall-clock went (route vs compute
    /// vs spill), summed over rounds. Absent for executors that run
    /// through no audited cluster and in pre-v5 reports.
    pub host_breakdown: Option<HostBreakdown>,
}

/// The full benchmark report (`BENCH_core.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// Suite label (`"quick"` or `"full"`).
    pub suite: String,
    /// Base seed of the workload matrix.
    pub seed: i64,
    /// Host threads at generation time (informational).
    pub hardware_threads: i64,
    /// One row per workload, in matrix order.
    pub workloads: Vec<WorkloadReport>,
}

impl ModelCosts {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("phases".into(), Json::Int(self.phases)),
            ("mpc_rounds".into(), Json::Int(self.mpc_rounds)),
            ("machines".into(), Json::Int(self.machines)),
            ("memory_cap_words".into(), Json::Int(self.memory_cap_words)),
            (
                "total_message_words".into(),
                Json::Int(self.total_message_words),
            ),
            ("peak_round_words".into(), Json::Int(self.peak_round_words)),
            (
                "peak_resident_words".into(),
                Json::Int(self.peak_resident_words),
            ),
            ("spill_words".into(), Json::Int(self.spill_words)),
            ("checkpoint_words".into(), Json::Int(self.checkpoint_words)),
            ("replayed_rounds".into(), Json::Int(self.replayed_rounds)),
            ("violations".into(), Json::Int(self.violations)),
        ])
    }

    /// Field names in schema order (the `bench-diff` gate iterates these).
    pub const FIELDS: &'static [&'static str] = &[
        "phases",
        "mpc_rounds",
        "machines",
        "memory_cap_words",
        "total_message_words",
        "peak_round_words",
        "peak_resident_words",
        "spill_words",
        "checkpoint_words",
        "replayed_rounds",
        "violations",
    ];

    fn get(&self, field: &str) -> i64 {
        match field {
            "phases" => self.phases,
            "mpc_rounds" => self.mpc_rounds,
            "machines" => self.machines,
            "memory_cap_words" => self.memory_cap_words,
            "total_message_words" => self.total_message_words,
            "peak_round_words" => self.peak_round_words,
            "peak_resident_words" => self.peak_resident_words,
            "spill_words" => self.spill_words,
            "checkpoint_words" => self.checkpoint_words,
            "replayed_rounds" => self.replayed_rounds,
            "violations" => self.violations,
            other => unreachable!("unknown model field {other}"),
        }
    }

    /// Typed field access for the comparator.
    pub fn field(&self, name: &str) -> i64 {
        self.get(name)
    }

    fn from_json(j: &Json, ctx: &str, schema_version: i64) -> Result<Self, String> {
        // v3 reports predate spill accounting; every pre-v4 run was fully
        // resident, so 0 is the faithful value — and the schema_version
        // mismatch stays bench-diff's finding, not a parse error.
        let spill_words = if schema_version < 4 {
            req_int(j, "spill_words", ctx).unwrap_or(0)
        } else {
            req_int(j, "spill_words", ctx)?
        };
        // v5 reports predate fault injection; every such run was
        // fault-free, so 0 is the faithful value for both fields.
        let (checkpoint_words, replayed_rounds) = if schema_version < 6 {
            (
                req_int(j, "checkpoint_words", ctx).unwrap_or(0),
                req_int(j, "replayed_rounds", ctx).unwrap_or(0),
            )
        } else {
            (
                req_int(j, "checkpoint_words", ctx)?,
                req_int(j, "replayed_rounds", ctx)?,
            )
        };
        Ok(ModelCosts {
            phases: req_int(j, "phases", ctx)?,
            mpc_rounds: req_int(j, "mpc_rounds", ctx)?,
            machines: req_int(j, "machines", ctx)?,
            memory_cap_words: req_int(j, "memory_cap_words", ctx)?,
            total_message_words: req_int(j, "total_message_words", ctx)?,
            peak_round_words: req_int(j, "peak_round_words", ctx)?,
            peak_resident_words: req_int(j, "peak_resident_words", ctx)?,
            spill_words,
            checkpoint_words,
            replayed_rounds,
            violations: req_int(j, "violations", ctx)?,
        })
    }
}

impl Quality {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("cover_weight".into(), Json::Num(self.cover_weight)),
            ("cover_size".into(), Json::Int(self.cover_size)),
            ("certified_ratio".into(), Json::Num(self.certified_ratio)),
            ("lp_bound".into(), Json::Num(self.lp_bound)),
            ("ratio_vs_lp".into(), Json::Num(self.ratio_vs_lp)),
            ("greedy_weight".into(), Json::Num(self.greedy_weight)),
            ("bye_weight".into(), Json::Num(self.bye_weight)),
        ])
    }

    /// Field names in schema order (the `bench-diff` gate iterates these).
    pub const FIELDS: &'static [&'static str] = &[
        "cover_weight",
        "cover_size",
        "certified_ratio",
        "lp_bound",
        "ratio_vs_lp",
        "greedy_weight",
        "bye_weight",
    ];

    /// Typed field access for the comparator (`cover_size` widens to f64,
    /// which is exact for any realistic cover).
    pub fn field(&self, name: &str) -> f64 {
        match name {
            "cover_weight" => self.cover_weight,
            "cover_size" => self.cover_size as f64,
            "certified_ratio" => self.certified_ratio,
            "lp_bound" => self.lp_bound,
            "ratio_vs_lp" => self.ratio_vs_lp,
            "greedy_weight" => self.greedy_weight,
            "bye_weight" => self.bye_weight,
            other => unreachable!("unknown quality field {other}"),
        }
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Quality {
            cover_weight: req_num(j, "cover_weight", ctx)?,
            cover_size: req_int(j, "cover_size", ctx)?,
            certified_ratio: req_num(j, "certified_ratio", ctx)?,
            lp_bound: req_num(j, "lp_bound", ctx)?,
            ratio_vs_lp: req_num(j, "ratio_vs_lp", ctx)?,
            greedy_weight: req_num(j, "greedy_weight", ctx)?,
            bye_weight: req_num(j, "bye_weight", ctx)?,
        })
    }
}

impl WorkloadReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("executor".into(), Json::Str(self.executor.clone())),
            ("family".into(), Json::Str(self.family.clone())),
            ("weights".into(), Json::Str(self.weights.clone())),
            ("epsilon".into(), Json::Num(self.epsilon)),
            ("n".into(), Json::Int(self.n)),
            ("m".into(), Json::Int(self.m)),
            ("model".into(), self.model.to_json()),
            ("quality".into(), self.quality.to_json()),
            ("critical_path".into(), self.critical_path.to_json()),
            ("wall_clock_s".into(), Json::Num(self.wall_clock_s)),
            (
                "round_wall_s".into(),
                Json::Arr(self.round_wall_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ];
        if let Some(hb) = self.host_breakdown {
            fields.push(("host_breakdown".into(), hb.to_json()));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json, schema_version: i64) -> Result<Self, String> {
        let id = req_str(j, "id", "workload")?;
        let ctx = format!("workload {id}");
        // v1 reports predate the executor axis; default the single
        // executor of that era so the report still parses and the
        // schema_version mismatch surfaces as a bench-diff finding (with
        // regenerate guidance) instead of a parse error.
        let executor = if schema_version < 2 {
            req_str(j, "executor", &ctx).unwrap_or_else(|_| "distributed".into())
        } else {
            req_str(j, "executor", &ctx)?
        };
        // v2 reports predate the critical-path statistics and the
        // per-round wall-clock; default them so the report still parses
        // and the schema_version mismatch stays bench-diff's finding.
        let critical_path = if schema_version < 3 {
            j.get("critical_path")
                .map(|c| CriticalPathStats::from_json(c, &ctx, schema_version))
                .transpose()?
                .unwrap_or(CriticalPathStats {
                    barrier_makespan: 0,
                    pipelined_makespan: 0,
                    barrier_stall: 0,
                    straggler_machine: -1,
                    straggler_stall_words: 0,
                })
        } else {
            CriticalPathStats::from_json(
                j.get("critical_path")
                    .ok_or(format!("{ctx}: missing critical_path"))?,
                &ctx,
                schema_version,
            )?
        };
        // Optional at every version: informational, and executors without
        // an audited cluster have nothing to report.
        let host_breakdown = j
            .get("host_breakdown")
            .map(|h| HostBreakdown::from_json(h, &ctx))
            .transpose()?;
        let round_wall_s = match j.get("round_wall_s") {
            Some(arr) => arr
                .as_arr()
                .ok_or(format!("{ctx}: round_wall_s is not an array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or(format!("{ctx}: non-numeric round_wall_s entry"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None if schema_version < 3 => Vec::new(),
            None => return Err(format!("{ctx}: missing round_wall_s")),
        };
        Ok(WorkloadReport {
            executor,
            family: req_str(j, "family", &ctx)?,
            weights: req_str(j, "weights", &ctx)?,
            epsilon: req_num(j, "epsilon", &ctx)?,
            n: req_int(j, "n", &ctx)?,
            m: req_int(j, "m", &ctx)?,
            model: ModelCosts::from_json(
                j.get("model").ok_or(format!("{ctx}: missing model"))?,
                &ctx,
                schema_version,
            )?,
            quality: Quality::from_json(
                j.get("quality").ok_or(format!("{ctx}: missing quality"))?,
                &ctx,
            )?,
            critical_path,
            wall_clock_s: req_num(j, "wall_clock_s", &ctx)?,
            round_wall_s,
            host_breakdown,
            id,
        })
    }
}

impl BenchReport {
    /// Serializes the report in its canonical byte form.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(self.schema_version)),
            ("suite".into(), Json::Str(self.suite.clone())),
            ("seed".into(), Json::Int(self.seed)),
            ("hardware_threads".into(), Json::Int(self.hardware_threads)),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(|w| w.to_json()).collect()),
            ),
        ])
        .render()
    }

    /// Parses a report, validating the presence and types of every field.
    /// A `schema_version` ahead of this binary's is rejected here; an
    /// older one is surfaced by `bench-diff` as a gate failure instead.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let schema_version = req_int(&j, "schema_version", "report")?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "report schema_version {schema_version} is newer than this binary's \
                 {SCHEMA_VERSION}; rebuild the tools"
            ));
        }
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report: missing workloads array")?
            .iter()
            .map(|w| WorkloadReport::from_json(w, schema_version))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            suite: req_str(&j, "suite", "report")?,
            seed: req_int(&j, "seed", "report")?,
            hardware_threads: req_int(&j, "hardware_threads", "report")?,
            workloads,
        })
    }
}

fn req_int(j: &Json, key: &str, ctx: &str) -> Result<i64, String> {
    j.get(key)
        .and_then(Json::as_i64)
        .ok_or(format!("{ctx}: missing or non-integer field {key:?}"))
}

fn req_num(j: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("{ctx}: missing or non-numeric field {key:?}"))
}

fn req_str(j: &Json, key: &str, ctx: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("{ctx}: missing or non-string field {key:?}"))
}

/// A fully populated synthetic report with tiny round numbers — shared by
/// the golden-file schema test and the `bench-diff` regression tests, so
/// the pinned bytes never depend on an actual pipeline run.
pub fn synthetic_report() -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: "synthetic".into(),
        seed: 42,
        hardware_threads: 1,
        workloads: vec![
            WorkloadReport {
                id: "gnm-uniform-eps4-n64-distributed".into(),
                executor: "distributed".into(),
                family: "gnm".into(),
                weights: "uniform".into(),
                epsilon: 0.25,
                n: 64,
                m: 512,
                model: ModelCosts {
                    phases: 2,
                    mpc_rounds: 24,
                    machines: 8,
                    memory_cap_words: 4096,
                    total_message_words: 9000,
                    peak_round_words: 700,
                    peak_resident_words: 3000,
                    spill_words: 0,
                    checkpoint_words: 0,
                    replayed_rounds: 0,
                    violations: 0,
                },
                quality: Quality {
                    cover_weight: 130.5,
                    cover_size: 40,
                    certified_ratio: 2.25,
                    lp_bound: 61.75,
                    ratio_vs_lp: 2.113360323886639,
                    greedy_weight: 140.25,
                    bye_weight: 151.0,
                },
                critical_path: CriticalPathStats {
                    barrier_makespan: 203,
                    pipelined_makespan: 202,
                    barrier_stall: 150,
                    straggler_machine: 3,
                    straggler_stall_words: 12,
                },
                wall_clock_s: 0.015625,
                round_wall_s: vec![0.0078125, 0.00390625],
                host_breakdown: Some(HostBreakdown {
                    route_s: 0.0078125,
                    compute_s: 0.00390625,
                    spill_s: 0.001953125,
                }),
            },
            WorkloadReport {
                id: "rmat-zipf-eps16-n64-roundcompress".into(),
                executor: "roundcompress".into(),
                family: "rmat".into(),
                weights: "zipf".into(),
                epsilon: 0.0625,
                n: 60,
                m: 480,
                model: ModelCosts {
                    phases: 3,
                    mpc_rounds: 33,
                    machines: 8,
                    memory_cap_words: 4096,
                    total_message_words: 12000,
                    peak_round_words: 800,
                    peak_resident_words: 3500,
                    spill_words: 256,
                    checkpoint_words: 1024,
                    replayed_rounds: 2,
                    violations: 0,
                },
                quality: Quality {
                    cover_weight: 95.125,
                    cover_size: 33,
                    certified_ratio: 2.0625,
                    lp_bound: 47.5,
                    ratio_vs_lp: 2.0026315789473683,
                    greedy_weight: 99.0,
                    bye_weight: 101.5,
                },
                critical_path: CriticalPathStats {
                    barrier_makespan: 90,
                    pipelined_makespan: 90,
                    barrier_stall: 0,
                    straggler_machine: 0,
                    straggler_stall_words: 0,
                },
                wall_clock_s: 0.03125,
                round_wall_s: vec![0.015625],
                host_breakdown: None,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_exactly() {
        let report = synthetic_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("parse own serialization");
        assert_eq!(report, back);
        // And the canonical bytes are stable across the round-trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn field_lists_match_serialization_order() {
        let w = &synthetic_report().workloads[0];
        let text = w.model.to_json().render();
        let mut last = 0;
        for f in ModelCosts::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "model field {f} out of order");
            last = at;
            let _ = w.model.field(f); // every listed field is accessible
        }
        let text = w.quality.to_json().render();
        let mut last = 0;
        for f in Quality::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "quality field {f} out of order");
            last = at;
            let _ = w.quality.field(f);
        }
        let text = w.critical_path.to_json().render();
        let mut last = 0;
        for f in CriticalPathStats::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "critical-path field {f} out of order");
            last = at;
            let _ = w.critical_path.field(f);
        }
    }

    /// Re-renders the synthetic report at `version` with the v3-only row
    /// fields dropped — a faithful pre-v3 report.
    fn stripped_report(version: i64) -> String {
        let mut report = synthetic_report();
        report.schema_version = version;
        let mut j = Json::parse(&report.to_json()).expect("own serialization parses");
        let Json::Obj(fields) = &mut j else {
            unreachable!("report root is an object")
        };
        for (key, v) in fields.iter_mut() {
            if key != "workloads" {
                continue;
            }
            let Json::Arr(rows) = v else {
                unreachable!("workloads is an array")
            };
            for row in rows {
                let Json::Obj(row_fields) = row else {
                    unreachable!("workload row is an object")
                };
                row_fields.retain(|(k, _)| k != "critical_path" && k != "round_wall_s");
            }
        }
        j.render()
    }

    #[test]
    fn v2_report_without_critical_path_parses_for_the_diff_gate() {
        // A pre-v3 report has neither critical_path nor round_wall_s; it
        // must parse with zero/empty defaults so bench-diff can raise the
        // schema_version mismatch itself rather than dying on a parse.
        let text = stripped_report(2);
        assert!(!text.contains("critical_path"));
        assert!(!text.contains("round_wall_s"));
        let back = BenchReport::from_json(&text).expect("v2 parses");
        assert_eq!(back.workloads[0].critical_path.barrier_makespan, 0);
        assert!(back.workloads[0].round_wall_s.is_empty());
        // At the current schema the fields are required.
        let err = BenchReport::from_json(&stripped_report(SCHEMA_VERSION)).unwrap_err();
        assert!(err.contains("critical_path"), "{err}");
    }

    #[test]
    fn v3_report_without_spill_words_parses_for_the_diff_gate() {
        // A pre-v4 report has no spill_words; every such run was fully
        // resident, so the 0 default is faithful and the version mismatch
        // stays bench-diff's finding.
        let mut report = synthetic_report();
        report.schema_version = 3;
        let text = report
            .to_json()
            .replace("        \"spill_words\": 0,\n", "")
            .replace("        \"spill_words\": 256,\n", "");
        assert!(!text.contains("spill_words"));
        let back = BenchReport::from_json(&text).expect("v3 parses");
        assert!(back.workloads.iter().all(|w| w.model.spill_words == 0));
        // At the current schema the field is required.
        let v4 = synthetic_report()
            .to_json()
            .replace("        \"spill_words\": 0,\n", "")
            .replace("        \"spill_words\": 256,\n", "");
        let err = BenchReport::from_json(&v4).unwrap_err();
        assert!(err.contains("spill_words"), "{err}");
    }

    #[test]
    fn v5_report_without_checkpoint_fields_parses_for_the_diff_gate() {
        // A pre-v6 report has neither checkpoint_words nor
        // replayed_rounds; every such run was fault-free, so the 0
        // defaults are faithful and the version mismatch stays
        // bench-diff's finding.
        let mut report = synthetic_report();
        report.schema_version = 5;
        let text = report
            .to_json()
            .replace("        \"checkpoint_words\": 0,\n", "")
            .replace("        \"checkpoint_words\": 1024,\n", "")
            .replace("        \"replayed_rounds\": 0,\n", "")
            .replace("        \"replayed_rounds\": 2,\n", "");
        assert!(!text.contains("checkpoint_words"));
        assert!(!text.contains("replayed_rounds"));
        let back = BenchReport::from_json(&text).expect("v5 parses");
        assert!(back
            .workloads
            .iter()
            .all(|w| w.model.checkpoint_words == 0 && w.model.replayed_rounds == 0));
        // At the current schema both fields are required.
        let v6 = synthetic_report()
            .to_json()
            .replace("        \"checkpoint_words\": 0,\n", "")
            .replace("        \"checkpoint_words\": 1024,\n", "");
        let err = BenchReport::from_json(&v6).unwrap_err();
        assert!(err.contains("checkpoint_words"), "{err}");
    }

    #[test]
    fn v4_report_without_stragglers_parses_for_the_diff_gate() {
        // A pre-v5 report has neither the straggler breakdown nor the
        // optional host_breakdown; both must default so the version
        // mismatch stays bench-diff's finding.
        let mut report = synthetic_report();
        report.schema_version = 4;
        let text = report
            .to_json()
            .replace("        \"straggler_machine\": 3,\n", "")
            .replace("        \"straggler_machine\": 0,\n", "")
            // Last field of its object: the comma belongs to the line above.
            .replace(",\n        \"straggler_stall_words\": 12", "")
            .replace(",\n        \"straggler_stall_words\": 0", "");
        let text = {
            // Drop the host_breakdown object wholesale.
            let start = text
                .find(",\n      \"host_breakdown\"")
                .expect("breakdown present");
            let end = text[start..].find("}").expect("object closes") + start + 1;
            format!("{}{}", &text[..start], &text[end..])
        };
        assert!(!text.contains("straggler"));
        assert!(!text.contains("host_breakdown"));
        let back = BenchReport::from_json(&text).expect("v4 parses");
        assert_eq!(back.workloads[0].critical_path.straggler_machine, -1);
        assert_eq!(back.workloads[0].critical_path.straggler_stall_words, 0);
        assert!(back.workloads[0].host_breakdown.is_none());
        // At the current schema the straggler fields are required (the
        // breakdown stays optional — informational by design).
        let v5 = synthetic_report()
            .to_json()
            .replace("        \"straggler_machine\": 3,\n", "");
        let err = BenchReport::from_json(&v5).unwrap_err();
        assert!(err.contains("straggler_machine"), "{err}");
    }

    #[test]
    fn future_schema_version_rejected() {
        let mut report = synthetic_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn v1_report_without_executor_parses_for_the_diff_gate() {
        // A pre-executor-axis report must not die as a parse error; the
        // schema_version mismatch is bench-diff's finding to raise.
        let mut report = synthetic_report();
        report.schema_version = 1;
        let text = report
            .to_json()
            .replace("      \"executor\": \"distributed\",\n", "")
            .replace("      \"executor\": \"roundcompress\",\n", "");
        assert!(!text.contains("executor"));
        let back = BenchReport::from_json(&text).expect("v1 parses");
        assert_eq!(back.schema_version, 1);
        assert!(back.workloads.iter().all(|w| w.executor == "distributed"));
        // At the current schema the field stays required.
        let v2 = synthetic_report()
            .to_json()
            .replace("      \"executor\": \"distributed\",\n", "");
        let err = BenchReport::from_json(&v2).unwrap_err();
        assert!(err.contains("executor"), "{err}");
    }

    #[test]
    fn missing_field_is_a_parse_error() {
        let text = synthetic_report()
            .to_json()
            .replace("\"phases\"", "\"fases\"");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("phases"), "{err}");
    }
}
