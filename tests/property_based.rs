//! Property-based tests (proptest) over random graphs, weights and
//! configurations: the invariants every component must hold for *any*
//! input, not just the curated unit-test instances.

use mwvc_repro::baselines::{bar_yehuda_even, exact_mwvc, lp_optimum};
use mwvc_repro::core::init::is_valid_fractional_matching;
use mwvc_repro::core::mpc::layout::EndpointIndex;
use mwvc_repro::core::mpc::{run_outofcore, run_reference, MpcMwvcConfig, OocConfig};
use mwvc_repro::core::solve_centralized;
use mwvc_repro::graph::{
    EdgeIndex, Graph, StreamingGraphBuilder, VertexWeights, WeightModel, WeightedGraph,
};
use mwvc_repro::sim::MpcConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch path per proptest case so shrink replays never race on
/// a shared file.
fn scratch_ocsr() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("prop-ooc-{}-{id}.ocsr", std::process::id()))
}

/// Random simple graph as (n, canonical edge set).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            Graph::from_edges(n, &edges)
        })
    })
}

fn arb_weighted(max_n: usize, max_m: usize) -> impl Strategy<Value = WeightedGraph> {
    arb_graph(max_n, max_m).prop_flat_map(|g| {
        let n = g.num_vertices();
        proptest::collection::vec(0.1f64..100.0, n)
            .prop_map(move |w| WeightedGraph::new(g.clone(), VertexWeights::from_vec(w)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The centralized algorithm always returns a valid cover with a
    /// feasible dual certificate within the (2+10eps) accounting.
    #[test]
    fn centralized_invariants(wg in arb_weighted(40, 160), seed in 0u64..1000) {
        let eps = 0.1;
        let res = solve_centralized(&wg, eps, seed);
        prop_assert!(res.cover.verify(&wg.graph).is_ok());
        let eidx = EdgeIndex::build(&wg.graph);
        prop_assert!(is_valid_fractional_matching(
            &wg.graph, &eidx, wg.weights.as_slice(), &res.certificate.x, 1e-7,
        ));
        if wg.num_edges() > 0 {
            let wc = res.cover.weight(&wg);
            prop_assert!(wc <= 2.0 / (1.0 - 4.0 * eps) * res.certificate.value() + 1e-7);
        }
    }

    /// Algorithm 2 always returns a valid cover whose certified ratio
    /// stays within the paper guarantee.
    #[test]
    fn mpc_invariants(wg in arb_weighted(40, 200), seed in 0u64..1000) {
        let eps = 0.1;
        let res = run_reference(&wg, &MpcMwvcConfig::practical(eps, seed));
        prop_assert!(res.cover.verify(&wg.graph).is_ok());
        if wg.num_edges() > 0 {
            let eidx = EdgeIndex::build(&wg.graph);
            let ratio = res.certificate.certified_ratio(&wg, &eidx, res.cover.weight(&wg));
            prop_assert!(ratio <= 2.0 + 30.0 * eps, "ratio {}", ratio);
        }
    }

    /// The exact optimum is sandwiched by the LP bound and undercuts
    /// every approximation.
    #[test]
    fn exact_lp_sandwich(wg in arb_weighted(24, 60), seed in 0u64..1000) {
        let opt = exact_mwvc(&wg).weight;
        let lp = lp_optimum(&wg);
        prop_assert!(lp.verify(&wg, 1e-6));
        prop_assert!(lp.value <= opt + 1e-6);
        prop_assert!(opt <= 2.0 * lp.value + 1e-6);
        let bye = bar_yehuda_even(&wg);
        prop_assert!(bye.cover.verify(&wg.graph).is_ok());
        prop_assert!(bye.cover.weight(&wg) <= 2.0 * opt + 1e-6);
        prop_assert!(bye.cover.weight(&wg) >= opt - 1e-6);
        let mpc = run_reference(&wg, &MpcMwvcConfig::practical(0.1, seed));
        prop_assert!(mpc.cover.weight(&wg) >= opt - 1e-6);
    }

    /// Graph construction invariants: CSR round-trips the edge set.
    #[test]
    fn graph_roundtrip(g in arb_graph(60, 300)) {
        let edges = g.edge_vec();
        let rebuilt = Graph::from_edges(
            g.num_vertices(),
            &edges.iter().map(|e| (e.u(), e.v())).collect::<Vec<_>>(),
        );
        prop_assert_eq!(g, rebuilt);
    }

    /// Edge-index invariants: every id maps back to its edge, incidence
    /// covers each edge exactly twice.
    #[test]
    fn edge_index_consistency(g in arb_graph(50, 250)) {
        let eidx = EdgeIndex::build(&g);
        prop_assert_eq!(eidx.num_edges(), g.num_edges());
        let mut seen = vec![0u32; eidx.num_edges()];
        for v in g.vertices() {
            for (u, eid) in eidx.incident(&g, v) {
                prop_assert!(eidx.edge(eid).is_incident(v));
                prop_assert!(eidx.edge(eid).is_incident(u));
                seen[eid as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 2));
    }

    /// The flat endpoint index equals the naive map it replaces: same
    /// keys, same per-key lists in the same (ascending) order, same model
    /// words. `hub` puts vertex 0 on every edge; empty lists (a machine
    /// with no home edges) come up as the zero-length case.
    #[test]
    fn endpoint_index_matches_naive_map(
        pairs in proptest::collection::vec((0u32..60, 1u32..60), 0..120),
        hub in 0u8..2,
    ) {
        let ends: Vec<(u32, u32)> = pairs
            .into_iter()
            .map(|(u, v)| if hub == 1 { (0, v) } else { (u, v) })
            .collect();
        let mut naive: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (i, &(u, v)) in ends.iter().enumerate() {
            naive.entry(u).or_default().push(i as u32);
            naive.entry(v).or_default().push(i as u32);
        }
        let idx = EndpointIndex::build(&ends);
        let keys: Vec<u32> = naive.keys().copied().collect();
        prop_assert_eq!(idx.keys(), &keys[..]);
        for ((v, list), (k, want)) in idx.iter().zip(&naive) {
            prop_assert_eq!(v, *k);
            prop_assert_eq!(list, &want[..]);
            prop_assert_eq!(idx.edges_of(v), &want[..]);
        }
        let words: usize = naive.values().map(|l| 1 + l.len()).sum();
        prop_assert_eq!(idx.words(), words);
        if hub == 1 {
            prop_assert_eq!(idx.edges_of(0).len(), ends.len());
        }
    }

    /// The per-machine memory budget is invisible to every gated field:
    /// a random budget changes only residency/spill statistics, never
    /// the cover, the dual loads (bit for bit), the iteration count, or
    /// the per-round message traffic. Budgets too small to hold the
    /// mandatory per-vertex state are a clean `Err`, not a divergence.
    #[test]
    fn outofcore_budget_never_changes_gated_fields(
        g in arb_graph(36, 120),
        machines in 1usize..4,
        budget in 2_000usize..40_000,
        batch_shift in 3u32..8,
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let path = scratch_ocsr();
        let mut b = StreamingGraphBuilder::new(n, 1 << 12, None);
        for e in g.edge_vec() {
            b.add_edge(e.u(), e.v());
        }
        let csr = b.finish(&path).expect("build streaming csr");
        let weights = WeightModel::Uniform { lo: 1.0, hi: 9.0 }
            .sample(&g, seed)
            .as_slice()
            .to_vec();
        let cfg = OocConfig {
            batch_words: 1usize << batch_shift,
            ..OocConfig::default()
        };
        let baseline = run_outofcore(&csr, &weights, &cfg, MpcConfig::new(machines, 1 << 22))
            .expect("roomy budget must run");
        let capped = run_outofcore(&csr, &weights, &cfg, MpcConfig::new(machines, budget));
        std::fs::remove_file(path).ok();
        let capped = match capped {
            Ok(out) => out,
            // Below the floor the executor refuses to start; that is the
            // documented contract, not a property violation.
            Err(e) => {
                prop_assert!(e.contains("budget"), "unexpected error: {}", e);
                return Ok(());
            }
        };
        prop_assert_eq!(&baseline.cover, &capped.cover);
        prop_assert_eq!(baseline.iterations, capped.iterations);
        for (x, y) in baseline.loads.iter().zip(&capped.loads) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(baseline.trace.rounds.len(), capped.trace.rounds.len());
        for (a, b) in baseline.trace.rounds.iter().zip(&capped.trace.rounds) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(a.max_sent, b.max_sent);
            prop_assert_eq!(a.max_received, b.max_received);
            prop_assert_eq!(a.total_traffic, b.total_traffic);
        }
    }

    /// Certificates never overstate the lower bound: scaling the dual to
    /// feasibility keeps it below the exact optimum.
    #[test]
    fn certificate_lower_bounds_opt(wg in arb_weighted(22, 50), seed in 0u64..100) {
        if wg.num_edges() == 0 {
            return Ok(());
        }
        let opt = exact_mwvc(&wg).weight;
        let res = run_reference(&wg, &MpcMwvcConfig::practical(0.1, seed));
        let eidx = EdgeIndex::build(&wg.graph);
        let lb = res.certificate.lower_bound(&wg, &eidx);
        prop_assert!(lb <= opt + 1e-6, "lb {} vs opt {}", lb, opt);
    }
}
