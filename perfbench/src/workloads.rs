//! The workloads: how each builds its input from the seed, which public
//! executor entry point it calls, and how the output is checked.
//! README.md says why each one exists.

use crate::spans::Tracer;
use mpc_sim::{ExecutionTrace, HostPhase, MemoryBudget, MpcConfig};
use mwvc_core::mpc::{
    recommended_cluster, run_outofcore, try_run_distributed, CoverCertificate, MpcMwvcConfig,
    OocConfig,
};
use mwvc_core::VertexCover;
use mwvc_graph::generators::{chung_lu, gnm, gnm_stream_into};
use mwvc_graph::{ChunkedCsr, EdgeIndex, Graph, StreamingGraphBuilder, WeightModel, WeightedGraph};
use mwvc_roundcompress::{try_run_roundcompress, RoundCompressConfig};
use std::path::Path;

/// ε of every executor (the `practical` profile's reference value).
pub const EPSILON: f64 = 0.1;

/// The executor a workload's solves go through; each workload has its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    Distributed,
    RoundCompress,
    OutOfCore,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub executor: Executor,
    pub name: &'static str,
}

/// Input builds per run: at least this many, and more while the builds
/// have taken less than `SETUP_SHARE` of `--seconds`; `setup_s` is their
/// median.
pub const MIN_SETUPS: usize = 3;
pub const SETUP_SHARE: f64 = 0.1;
/// Minimum (wide, single-thread) solve pairs per run.
pub const MIN_PAIRS: usize = 2;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        executor: Executor::Distributed,
        name: "gnm-distributed",
    },
    Workload {
        executor: Executor::RoundCompress,
        name: "powerlaw-roundcompress",
    },
    Workload {
        executor: Executor::OutOfCore,
        name: "gnm-outofcore",
    },
];

// Instance sizes (README.md, "Workloads").
const GNM_N: usize = 100_000;
const GNM_M: usize = 1_600_000;
const POWERLAW_N: usize = 100_000;
const POWERLAW_BETA: f64 = 2.5;
const POWERLAW_AVG_DEGREE: f64 = 32.0;
const OOC_N: usize = 500_000;
const OOC_SAMPLES: u64 = 16_000_000;
const OOC_MACHINES: usize = 4;
const OOC_MEMORY_FACTOR: usize = 16;
/// In-RAM buffer of the streaming builder: small enough that the build
/// spills sorted runs to the scratch directory.
const OOC_BUILDER_BYTES: usize = 64 << 20;

const UNIFORM: WeightModel = WeightModel::Uniform { lo: 1.0, hi: 10.0 };
const ZIPF: WeightModel = WeightModel::Zipf {
    exponent: 1.2,
    scale: 100.0,
};

/// Weights use their own stream, derived from `--seed`.
fn weight_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_0001
}

/// A built input. The executors receive only the graph and its weights.
pub enum Input {
    Memory {
        wg: WeightedGraph,
        /// Built by the benchmark for verification, outside every solve.
        eidx: EdgeIndex,
    },
    Disk {
        csr: ChunkedCsr,
        weights: Vec<f64>,
    },
}

impl Input {
    pub fn num_edges(&self) -> u64 {
        match self {
            Input::Memory { wg, .. } => wg.num_edges() as u64,
            Input::Disk { csr, .. } => csr.num_edges(),
        }
    }
}

enum Built {
    Memory(WeightedGraph),
    Disk(ChunkedCsr, Vec<f64>),
}

/// Deterministic model-side numbers of one solve. Every field must repeat
/// exactly across samples and pool widths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Model {
    pub certified_ratio: f64,
    pub rounds: usize,
    pub peak_machine_words: usize,
    /// Phases, levels or pricing iterations, by executor.
    pub steps: usize,
    pub message_words: usize,
    pub spill_words: u64,
}

/// Host-side timings the executor returned (zero where it returns none).
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    pub round_wall_s: f64,
    pub slowest_round_s: f64,
    pub compute_s: f64,
    pub route_s: f64,
}

impl Host {
    fn from_rounds(round_wall: &[f64], phases: &[HostPhase]) -> Self {
        Host {
            round_wall_s: round_wall.iter().sum(),
            slowest_round_s: round_wall.iter().copied().fold(0.0, f64::max),
            compute_s: phases.iter().map(|p| p.compute_s).sum(),
            route_s: phases.iter().map(|p| p.route_s).sum(),
        }
    }
}

/// One checked solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solved {
    /// Wall time of the executor's public entry call alone.
    pub wall_s: f64,
    /// Hash of the cover and every dual value, bit-exact.
    pub fingerprint: u64,
    pub model: Model,
    pub host: Host,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Name of the span around the executor's public entry call.
    fn solve_span(&self) -> &'static str {
        match self.executor {
            Executor::Distributed => "distributed.try_run_distributed",
            Executor::RoundCompress => "roundcompress.try_run_roundcompress",
            Executor::OutOfCore => "outofcore.run_outofcore",
        }
    }

    /// Builds the input from `seed` and returns it with its build time
    /// (one `setup_s` sample). `scratch` holds the on-disk graph and the
    /// builder's sort runs. The edge index that verification needs is
    /// built after the timed region, as its own top-level span.
    pub fn setup(
        &self,
        seed: u64,
        scratch: &Path,
        tr: &mut Tracer,
    ) -> Result<(Input, f64), String> {
        let top = tr.open("setup");
        let built = self.build(seed, scratch, tr);
        let setup_s = tr.close(top);
        let input = match built? {
            Built::Memory(wg) => {
                let s = tr.open("graph.edge_index");
                let eidx = EdgeIndex::build(&wg.graph);
                tr.close(s);
                Input::Memory { wg, eidx }
            }
            Built::Disk(csr, weights) => Input::Disk { csr, weights },
        };
        Ok((input, setup_s))
    }

    fn build(&self, seed: u64, scratch: &Path, tr: &mut Tracer) -> Result<Built, String> {
        let (graph, model) = match self.executor {
            Executor::Distributed => {
                let s = tr.open("graph.gnm");
                let g = gnm(GNM_N, GNM_M, seed);
                tr.close(s);
                (g, UNIFORM)
            }
            Executor::RoundCompress => {
                let s = tr.open("graph.chung_lu");
                let g = chung_lu(POWERLAW_N, POWERLAW_BETA, POWERLAW_AVG_DEGREE, seed);
                tr.close(s);
                (g, ZIPF)
            }
            Executor::OutOfCore => {
                let s = tr.open("graph.stream_build");
                let mut builder =
                    StreamingGraphBuilder::new(OOC_N, OOC_BUILDER_BYTES, Some(scratch));
                gnm_stream_into(OOC_N, OOC_SAMPLES, seed, &mut builder);
                let csr = builder.finish(&scratch.join("graph.ocsr"));
                tr.close(s);
                let csr = csr?;
                // Uniform weights need only the vertex count.
                let s = tr.open("graph.weights");
                let weights = UNIFORM.sample(&Graph::empty(OOC_N), weight_seed(seed));
                tr.close(s);
                return Ok(Built::Disk(csr, weights.as_slice().to_vec()));
            }
        };
        let s = tr.open("graph.weights");
        let weights = model.sample(&graph, weight_seed(seed));
        tr.close(s);
        let s = tr.open("graph.weighted_graph");
        let wg = WeightedGraph::new(graph, weights);
        tr.close(s);
        Ok(Built::Memory(wg))
    }

    /// Runs the executor once on `input`, then checks the output. The
    /// executor call runs on the caller's current pool.
    pub fn solve(&self, input: &Input, seed: u64, tr: &mut Tracer) -> Result<Solved, String> {
        match (self.executor, input) {
            (Executor::Distributed, Input::Memory { wg, eidx }) => {
                let cfg = MpcMwvcConfig::practical(EPSILON, seed);
                let cluster = recommended_cluster(wg, &cfg);
                let s = tr.open(self.solve_span());
                let out = try_run_distributed(wg, &cfg, cluster);
                let wall_s = tr.close(s);
                let out = out.map_err(|e| format!("try_run_distributed: {e}"))?;
                let host = Host::from_rounds(&out.round_wall, &out.host_phases);
                let sol = CoverCertificate::new(out.cover, out.certificate);
                checked_in_memory(wall_s, &sol, &out.trace, out.phases, host, wg, eidx, tr)
            }
            (Executor::RoundCompress, Input::Memory { wg, eidx }) => {
                let cfg = RoundCompressConfig::practical(EPSILON, seed);
                let cluster = mwvc_roundcompress::recommended_cluster(wg, &cfg);
                let s = tr.open(self.solve_span());
                let out = try_run_roundcompress(wg, &cfg, cluster);
                let wall_s = tr.close(s);
                let out = out.map_err(|e| format!("try_run_roundcompress: {e}"))?;
                let host = Host::from_rounds(&out.round_wall, &out.host_phases);
                let levels = out.num_levels();
                let sol = CoverCertificate::new(out.cover, out.certificate);
                checked_in_memory(wall_s, &sol, &out.trace, levels, host, wg, eidx, tr)
            }
            (Executor::OutOfCore, Input::Disk { csr, weights }) => {
                let n = csr.num_vertices();
                let cluster = MpcConfig::new(OOC_MACHINES, OOC_MEMORY_FACTOR * n)
                    .with_budget(MemoryBudget::Enforced);
                let cfg = OocConfig {
                    epsilon: EPSILON,
                    ..OocConfig::default()
                };
                let s = tr.open(self.solve_span());
                let out = run_outofcore(csr, weights, &cfg, cluster);
                let wall_s = tr.close(s);
                let out = out.map_err(|e| format!("run_outofcore: {e}"))?;
                let ratio = verify_on_disk(&out.cover, out.dual_lower_bound, csr, weights, tr)?;
                let model = model_of(&out.trace, out.iterations, ratio);
                let fingerprint = fingerprint(&out.cover, &out.loads, tr);
                Ok(Solved {
                    wall_s,
                    fingerprint,
                    model,
                    host: Host::default(),
                })
            }
            _ => unreachable!("each workload builds its own input kind"),
        }
    }
}

fn model_of(trace: &ExecutionTrace, steps: usize, certified_ratio: f64) -> Model {
    let sum = trace.summary();
    Model {
        certified_ratio,
        rounds: sum.rounds,
        peak_machine_words: sum.peak_resident_words,
        steps,
        message_words: sum.total_message_words,
        spill_words: sum.spill_words,
    }
}

/// Checks an in-memory solution with `CoverCertificate::verify` and its
/// certified ratio, and condenses it into a [`Solved`].
#[allow(clippy::too_many_arguments)]
fn checked_in_memory(
    wall_s: f64,
    sol: &CoverCertificate,
    trace: &ExecutionTrace,
    steps: usize,
    host: Host,
    wg: &WeightedGraph,
    eidx: &EdgeIndex,
    tr: &mut Tracer,
) -> Result<Solved, String> {
    let s = tr.open("certificate.verify");
    let checked = sol.verify(wg, eidx).map(|()| sol.certified_ratio(wg, eidx));
    tr.close(s);
    let ratio = checked.map_err(|e| format!("certificate rejected: {e}"))?;
    if !(ratio.is_finite() && ratio >= 1.0) {
        return Err(format!("certified ratio {ratio} is not a ratio >= 1"));
    }
    Ok(Solved {
        wall_s,
        fingerprint: fingerprint(&sol.cover, &sol.certificate.x, tr),
        model: model_of(trace, steps, ratio),
        host,
    })
}

/// Streams the on-disk graph back and checks that every edge has an
/// endpoint in the cover and that the dual bound does not exceed the
/// cover weight. Returns cover weight ÷ dual lower bound.
fn verify_on_disk(
    cover: &VertexCover,
    dual_lower_bound: f64,
    csr: &ChunkedCsr,
    weights: &[f64],
    tr: &mut Tracer,
) -> Result<f64, String> {
    let s = tr.open("outofcore.verify_stream");
    let checked = (|| {
        let mut stream = csr.stream_range(0, csr.num_buckets())?;
        while let Some(bucket) = stream.next_bucket()? {
            if let Some(&(u, v)) = bucket
                .iter()
                .find(|&&(u, v)| !cover.contains(u) && !cover.contains(v))
            {
                return Err(format!("uncovered edge ({u}, {v})"));
            }
        }
        Ok(())
    })();
    tr.close(s);
    checked?;
    let weight: f64 = cover.vertices().iter().map(|&v| weights[v as usize]).sum();
    if !(dual_lower_bound > 0.0 && dual_lower_bound <= weight) {
        return Err(format!(
            "dual lower bound {dual_lower_bound} is not in (0, cover weight {weight}]"
        ));
    }
    Ok(weight / dual_lower_bound)
}

/// Order-sensitive splitmix64 chain over the cover and the duals.
fn fingerprint(cover: &VertexCover, duals: &[f64], tr: &mut Tracer) -> u64 {
    let s = tr.open("bench.fingerprint");
    let mut h = 0x05ca_1ab1_e0dd_ba11_u64;
    let words = cover
        .vertices()
        .iter()
        .map(|&v| u64::from(v))
        .chain([u64::MAX])
        .chain(duals.iter().map(|x| x.to_bits()));
    for v in words {
        let mut x = h.rotate_left(23) ^ v;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = x ^ (x >> 31);
    }
    tr.close(s);
    h
}
