//! Properties of the zero-allocation message fabric:
//!
//! 1. **Oracle equivalence** — random outbox shapes (empty senders,
//!    self-sends, hot destinations, sizes straddling the parallel
//!    cutover) routed through the flat fabric, on both shuffle paths,
//!    produce exactly the inbox order, word counts, and violations of the
//!    retained naive reference shuffle.
//! 2. **Allocation discipline** — once warmed up at the peak message
//!    shape, steady-state rounds perform **zero** inbox/outbox heap
//!    allocation, pinned by a counting global allocator around the bare
//!    fabric and by buffer-identity checks through the full `Cluster`.
//!
//! The counting allocator is process-global, so every test in this
//! binary, proptest cases included, runs under one shared lock
//! ([`serial`]): a counting test never shares the process with a sibling
//! test that is allocating, at any `--test-threads`.

use mpc_sim::router::{
    reference_shuffle, route_forced, stage_outboxes, FlatInboxes, RouteScratch,
    PARALLEL_SHUFFLE_MIN_MSGS,
};
use mpc_sim::{Cluster, MpcConfig, Violation, ViolationKind, Words};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Global allocator that counts allocations and deallocations (used by
/// the steady-state and drop-discipline tests; the property tests ignore
/// it). A `realloc` logically frees the old block and allocates a new
/// one, so it bumps both counters — `ALLOCS - DEALLOCS` is therefore the
/// number of live heap blocks.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` with unchanged arguments;
// the counter updates do not allocate, so the impl upholds the
// `GlobalAlloc` contract exactly as `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn deallocations() -> usize {
    DEALLOCS.load(Ordering::Relaxed)
}

/// The lock every test in this binary holds for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the rest still run one at a time.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`serial`] for the tests that count allocations. Once the lock is
/// held it also waits until the allocation counter stops moving, so the
/// test harness has finished its own work after the previous test
/// (reporting the result, starting the next test's thread) before
/// counting starts.
fn serial_quiet() -> MutexGuard<'static, ()> {
    let guard = serial();
    let mut last = allocations();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = allocations();
        if now == last {
            return guard;
        }
        last = now;
    }
}

/// Computes the violations the reference word totals imply under `cap`.
fn reference_violations(
    round: usize,
    cap: usize,
    sent: &[usize],
    received: &[usize],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (machine, &w) in sent.iter().enumerate() {
        if w > cap {
            out.push(Violation {
                round,
                machine,
                kind: ViolationKind::SentExceedsMemory,
                words: w,
                cap,
            });
        }
        let r = received[machine];
        if r > cap {
            out.push(Violation {
                round,
                machine,
                kind: ViolationKind::ReceivedExceedsMemory,
                words: r,
                cap,
            });
        }
    }
    out
}

/// One sender's plan: `(messages, hot_fraction_percent, hot_dest)`.
type SenderPlan = (usize, usize, usize);

/// Expands per-sender plans into concrete `(dest, payload)` pair lists:
/// `hot` percent of each sender's messages go to its hot destination
/// (bursts → long runs, including self-sends), the rest round-robin.
fn build_pairs(m: usize, plans: &[SenderPlan]) -> Vec<Vec<(usize, u64)>> {
    (0..m)
        .map(|from| {
            let (count, hot_pct, hot) = plans[from % plans.len()];
            (0..count)
                .map(|k| {
                    let to = if k % 100 < hot_pct {
                        hot % m
                    } else {
                        (from + k * 13 + 1) % m
                    };
                    (to, ((from as u64) << 32) | k as u64)
                })
                .collect()
        })
        .collect()
}

/// Routes pairs through the flat fabric on the given path and compares
/// everything against the naive reference.
fn assert_matches_reference(
    m: usize,
    cap: usize,
    pairs: Vec<Vec<(usize, u64)>>,
    parallel: bool,
) -> Result<(), TestCaseError> {
    let config = MpcConfig::new(m, cap).audited();
    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();
    route_forced(
        &config,
        3,
        &mut outboxes,
        &mut inboxes,
        &mut scratch,
        parallel,
    );

    let (ref_inboxes, ref_sent, ref_received) = reference_shuffle(m, pairs);
    for (i, expect) in ref_inboxes.iter().enumerate() {
        prop_assert_eq!(
            inboxes.slice(i),
            expect.as_slice(),
            "inbox {} order diverged (parallel = {})",
            i,
            parallel
        );
    }
    prop_assert_eq!(&scratch.sent_words, &ref_sent);
    prop_assert_eq!(&scratch.received_words, &ref_received);
    let expect = reference_violations(3, cap, &ref_sent, &ref_received);
    prop_assert_eq!(&scratch.violations, &expect);
    // Outboxes came back empty (drained, ready for reuse).
    for ob in &outboxes {
        prop_assert!(ob.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fabric shapes — empty senders, self-sends, hot
    /// destinations — match the reference on both shuffle paths.
    #[test]
    fn fabric_matches_reference(
        m in 1usize..10,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        plans in proptest::collection::vec(
            (0usize..300, 0usize..=100, 0usize..16),
            1..8
        ),
        par_bit in 0usize..2,
    ) {
        let _serial = serial();
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        let pairs = build_pairs(m, &plans);
        assert_matches_reference(m, cap, pairs, par_bit == 1)?;
    }

    /// Shapes straddling `PARALLEL_SHUFFLE_MIN_MSGS` (the auto-cutover
    /// boundary) match the reference on both paths.
    #[test]
    fn cutover_boundary_matches_reference(
        delta in -3i64..=3,
        hot_pct in 0usize..=100,
        par_bit in 0usize..2,
    ) {
        let _serial = serial();
        let parallel = par_bit == 1;
        let m = 6;
        let total = (PARALLEL_SHUFFLE_MIN_MSGS as i64 + delta) as usize;
        let per = total / m;
        let rem = total - per * (m - 1);
        let plans: Vec<SenderPlan> = (0..m)
            .map(|i| (if i == 0 { rem } else { per }, hot_pct, i * 3))
            .collect();
        let mut pairs = build_pairs(m, &plans);
        // `build_pairs` cycles plans by sender index; with plans.len() == m
        // each sender gets its own plan. Sanity-check the total.
        let n: usize = pairs.iter().map(Vec::len).sum();
        prop_assert_eq!(n, total);
        // Make one sender empty to cover the empty-outbox edge.
        pairs[m - 1].clear();
        assert_matches_reference(m, usize::MAX / 4, pairs, parallel)?;
    }
}

/// The bare fabric performs exactly zero heap allocations per
/// steady-state round (sequential path; the parallel path is pinned by
/// pointer identity below, since the host pool's scheduling is outside
/// the fabric).
#[test]
fn steady_state_rounds_allocate_nothing() {
    let _serial = serial_quiet();
    let m = 8;
    let config = MpcConfig::new(m, usize::MAX / 4);
    let plans: Vec<SenderPlan> = (0..m).map(|i| (180 + 11 * i, 40, (i + 3) % m)).collect();
    let pairs = build_pairs(m, &plans);

    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();

    let refill = |outboxes: &mut Vec<mpc_sim::Outbox<u64>>| {
        for (ob, list) in outboxes.iter_mut().zip(&pairs) {
            for &(to, msg) in list {
                ob.push(to, msg);
            }
        }
    };

    // Warm-up: grows every buffer to the peak shape.
    route_forced(&config, 0, &mut outboxes, &mut inboxes, &mut scratch, false);
    inboxes.clear();
    refill(&mut outboxes);
    route_forced(&config, 1, &mut outboxes, &mut inboxes, &mut scratch, false);

    // Steady state: >= 3 consecutive rounds, zero allocations.
    for round in 2..6 {
        inboxes.clear();
        refill(&mut outboxes);
        let before = allocations();
        route_forced(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            false,
        );
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "round {round} allocated on the steady-state fabric path"
        );
    }
}

/// A live subscriber that only bumps atomics — the strictest legal
/// subscriber for the hot path, per the `Subscriber` contract ("must not
/// allocate" there). Installed once for this whole test binary; it is
/// behaviorally inert, so the other tests are unaffected.
struct CountingSubscriber {
    enters: AtomicUsize,
    exits: AtomicUsize,
    events: AtomicUsize,
}

impl tracing::Subscriber for CountingSubscriber {
    fn enter(&self, _meta: &'static tracing::Metadata) {
        self.enters.fetch_add(1, Ordering::Relaxed);
    }

    fn exit(&self, _meta: &'static tracing::Metadata) {
        self.exits.fetch_add(1, Ordering::Relaxed);
    }

    fn event(&self, _meta: &'static tracing::Metadata, _fields: &[(&'static str, u64)]) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

static TRACE_COUNTS: CountingSubscriber = CountingSubscriber {
    enters: AtomicUsize::new(0),
    exits: AtomicUsize::new(0),
    events: AtomicUsize::new(0),
};

/// With tracing **enabled and subscribed**, the instrumented fabric hot
/// path still performs exactly zero heap allocations per steady-state
/// round: the macros dispatch `&'static` metadata and stack-borrowed
/// integer fields, and the region events land in the preallocated rings.
#[test]
fn traced_steady_state_rounds_allocate_nothing() {
    let _serial = serial_quiet();
    let _ = tracing::set_subscriber(&TRACE_COUNTS);
    let m = 6;
    let config = MpcConfig::new(m, usize::MAX / 4);
    let plans: Vec<SenderPlan> = (0..m).map(|i| (150 + 7 * i, 35, (i + 2) % m)).collect();
    let pairs = build_pairs(m, &plans);

    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();

    let refill = |outboxes: &mut Vec<mpc_sim::Outbox<u64>>| {
        for (ob, list) in outboxes.iter_mut().zip(&pairs) {
            for &(to, msg) in list {
                ob.push(to, msg);
            }
        }
    };

    // Warm-up to the peak shape, then drain the rings like the cluster's
    // bookkeeping step does every round.
    let mut drained = Vec::new();
    route_forced(&config, 0, &mut outboxes, &mut inboxes, &mut scratch, false);
    scratch.drain_events_into(&mut drained, 0);
    drained.reserve(64 * m); // peak shape for the drain target too

    let events_before = TRACE_COUNTS.events.load(Ordering::Relaxed);
    for round in 1..5 {
        inboxes.clear();
        refill(&mut outboxes);
        let before = allocations();
        route_forced(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            false,
        );
        scratch.drain_events_into(&mut drained, round as u32);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "round {round} allocated on the traced steady-state fabric path"
        );
    }
    // The subscriber really observed the rounds — this was the enabled
    // path, not a filtered no-op.
    assert!(
        TRACE_COUNTS.events.load(Ordering::Relaxed) >= events_before + 4,
        "the traced rounds must have dispatched their layout events"
    );
    // And the rings really carried the per-machine region measurements.
    assert!(drained.iter().any(|e| e.value > 0));
    assert_eq!(drained.len(), 5 * m * 2); // RegionMsgs + RegionWords per machine per round
}

/// Through the full `Cluster`, the shared inbox buffer and the delivered
/// slices sit at identical addresses across >= 3 steady-state rounds —
/// buffer identity, the allocation discipline observable from safe code.
#[test]
fn cluster_reuses_buffers_across_rounds() {
    let _serial = serial();
    struct Nil;
    impl Words for Nil {
        fn words(&self) -> usize {
            0
        }
    }

    let m = 5;
    let mut cluster: Cluster<Nil, u64> = Cluster::new(MpcConfig::new(m, 1 << 20), |_| Nil);
    let round = |c: &mut Cluster<Nil, u64>| {
        c.round("steady", |ctx, _s, inbox| {
            for msg in inbox {
                std::hint::black_box(msg);
            }
            // The same message pattern every round: a burst to the next
            // machine, one to the coordinator, one self-send.
            let next = (ctx.id + 1) % ctx.num_machines();
            ctx.reserve_sends(34);
            for k in 0..32u64 {
                ctx.send(next, k);
            }
            ctx.send(0, ctx.id as u64);
            ctx.send(ctx.id, 99);
        });
    };
    // Warm-up.
    round(&mut cluster);
    round(&mut cluster);
    let buf = cluster.inbox_buffer_ptr();
    let pending0 = cluster.pending(0).as_ptr();
    for _ in 0..3 {
        round(&mut cluster);
        assert_eq!(cluster.inbox_buffer_ptr(), buf, "inbox buffer reused");
        assert_eq!(
            cluster.pending(0).as_ptr(),
            pending0,
            "identical rounds produce identical region layout"
        );
    }
    // Machine 0 receives the burst from machine m-1, one coordinator
    // message per machine, and its own self-send.
    assert_eq!(cluster.pending(0).len(), 32 + m + 1);
}

/// Heap-owning message for the drop-discipline test: counts
/// constructions and drops, and owns a `Box` so a double-drop would also
/// corrupt the allocator rather than just a counter.
struct Tracked(Box<u64>);

static CREATED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);

impl Tracked {
    fn new(v: u64) -> Self {
        CREATED.fetch_add(1, Ordering::Relaxed);
        Tracked(Box::new(v))
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        // Read through the box first, so a double-drop dereferences the
        // freed payload instead of only over-counting.
        std::hint::black_box(*self.0);
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

impl Words for Tracked {
    fn words(&self) -> usize {
        1
    }
}

/// Runs `rounds` cluster rounds of `Tracked` traffic in which machines
/// drop their [`Inbox`] view at varying points — fully drained, untouched,
/// and mid-iteration — then drops the cluster with the final round's
/// deliveries still pending in the flat buffer.
///
/// Exercises all three ownership-discharge paths: messages moved out by
/// iteration (dropped by the consumer), the unread tail dropped by
/// `Inbox::drop`, and pending deliveries dropped by `FlatInboxes::drop`.
fn run_tracked_scenario(m: usize, rounds: usize, per_dest: usize) {
    struct Sum(u64);
    impl Words for Sum {
        fn words(&self) -> usize {
            1
        }
    }

    let mut cluster: Cluster<Sum, Tracked> = Cluster::new(MpcConfig::new(m, 1 << 20), |_| Sum(0));
    for r in 0..rounds {
        cluster.round("churn", move |ctx, state, mut inbox| {
            // Vary the drain point by machine and round so every drop
            // path occurs: full drain, immediate drop, mid-iteration drop.
            let take = match (ctx.id + r) % 3 {
                0 => inbox.len(),
                1 => 0,
                _ => inbox.len() / 2,
            };
            for _ in 0..take {
                let msg = inbox.next().expect("inbox shorter than its len()");
                state.0 += *msg.0;
            }
            // `inbox` is dropped here; any unread tail must be dropped by
            // the view, exactly once.
            let next = (ctx.id + 1) % ctx.num_machines();
            ctx.reserve_sends(per_dest);
            for k in 0..per_dest {
                ctx.send(next, Tracked::new(k as u64));
            }
        });
    }
    drop(cluster);
}

/// Dropping an [`Inbox`] mid-iteration — across buffer-recycling rounds
/// and with deliveries still pending at cluster teardown — neither leaks
/// nor double-drops a message, at both the `Drop`-counter and the
/// allocator level.
#[test]
fn partial_inbox_drains_drop_every_message_exactly_once() {
    let _serial = serial_quiet();
    let m = 4;
    let per_dest = 7;

    // Warm-up pass: forces lazily initialized global state (the host
    // pool, trace buffers) so the allocator-balance check below observes
    // a closed scope.
    run_tracked_scenario(m, 2, per_dest);
    let created0 = CREATED.load(Ordering::Relaxed);
    let dropped0 = DROPPED.load(Ordering::Relaxed);
    assert_eq!(created0, dropped0, "warm-up pass leaked or double-dropped");

    let rounds = 5;
    let allocs_before = allocations();
    let deallocs_before = deallocations();
    run_tracked_scenario(m, rounds, per_dest);
    let allocs_delta = allocations() - allocs_before;
    let deallocs_delta = deallocations() - deallocs_before;

    let created = CREATED.load(Ordering::Relaxed) - created0;
    let dropped = DROPPED.load(Ordering::Relaxed) - dropped0;
    assert_eq!(
        created,
        rounds * m * per_dest,
        "every send constructs exactly one message"
    );
    assert_eq!(
        created, dropped,
        "messages dropped exactly once (fewer = leak, more = double-drop)"
    );
    assert_eq!(
        allocs_delta, deallocs_delta,
        "the scenario must return every heap block it allocated"
    );
}
