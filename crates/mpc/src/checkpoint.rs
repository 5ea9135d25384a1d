//! Segments of rounds, round-granular checkpointing, and crash replay:
//! the recovery half of the deterministic fault model ([`crate::faults`]).
//!
//! # Design
//!
//! A [`SegmentRound`] is one round of a *segment*: a stretch of rounds
//! with no host-side control flow between them, which is the window a
//! recovery checkpoint covers. [`Cluster::run_segment`] runs a segment
//! round by round through the one round engine ([`Cluster::round`]).
//!
//! The cluster's `try_` entry points ([`Cluster::try_round`],
//! [`Cluster::try_run_segment`]) are drop-in Result-returning forms of
//! `round`/`run_segment`. With an inactive [`FaultConfig`](crate::FaultConfig) they delegate
//! to the plain engine and only add the end-of-segment surfacing of
//! latched spill errors, so fault-free executions are bit-identical to
//! the plain entry points — traces, events, states, everything.
//!
//! With an active plan, a segment first consults the plan: if no
//! round-granular fault fires anywhere in the segment's window, the
//! plain engine runs unchanged. Only a genuinely faulted window runs
//! with the recovery hooks (`RoundHooks`) plugged into the same round
//! engine, which layer on:
//!
//! * **Checkpoints** — at segment entry and every
//!   [`checkpoint_every`](crate::FaultConfig::checkpoint_every) rounds,
//!   every machine's state is snapshotted in memory. Nothing is written
//!   to disk: a checkpoint is a modelled cost, and each machine's state
//!   footprint is accounted as
//!   [`FaultStats::checkpoint_words`](crate::FaultStats) and a
//!   `CheckpointWords` ring event, *not* as round spill words — the
//!   per-round [`RoundStats`](crate::RoundStats) stay bit-identical to
//!   the fault-free run.
//! * **Retained deliveries** — each round's inbox contents are retained
//!   (re-readable from the arena) until the next checkpoint, so a crash
//!   can re-deliver every round since the snapshot.
//! * **Crash replay** — a crashed machine's state is restored from the
//!   snapshot and the rounds since it are replayed against the retained
//!   deliveries (`replay_round`); replayed
//!   sends and spills are discarded (the original execution already
//!   delivered and charged them), so the recovered state is bit-identical
//!   and the model costs do not double-count. Exceeding
//!   [`max_replays`](crate::FaultConfig::max_replays) aborts with
//!   [`ClusterError::ReplayBudgetExhausted`].
//! * **Drops and duplicates** — a drop or duplicate coin that fires only
//!   counts a `FaultInjected` event for the machine; the delivery itself
//!   is never damaged, so nothing is detected or repaired. Its one other
//!   effect is to send the segment's window through these recovery hooks.
//!
//! On an unrecoverable error the trace simply ends at the failed round;
//! the cluster is not meant to be driven further (callers get a typed
//! [`ClusterError`] and abandon it).
//!
//! # Replay contract
//!
//! Replay re-runs a round body against a restored state and the retained
//! inbox with a *fresh* context: sends and spill writes of a replayed
//! round are discarded. This is exact for round bodies that are pure
//! functions of `(machine id, state, inbox)` — which all of the repo's
//! executors are — and for bodies whose spill usage is confined to
//! rounds they do not crash through (the out-of-core executor drives
//! spills through the plain entry points).

use crate::cluster::{Cluster, Inbox, MachineCtx, RoundFn, RoundHooks};
use crate::events::EventKind;
use crate::faults::{chaos_mutation, ClusterError, FaultKind, FaultPlan};
use crate::router::Outbox;
use crate::spill::SpillFile;
use crate::words::Words;

/// One round of a segment: a label plus the round closure, boxed so a
/// segment can hold heterogeneous closures. Built by the executors right
/// where they would call [`Cluster::round`].
pub struct SegmentRound<'seg, S, M> {
    label: &'seg str,
    body: Box<RoundFn<'seg, S, M>>,
}

impl<'seg, S, M> SegmentRound<'seg, S, M> {
    /// A segment round running `body` under `label` (same contract as
    /// [`Cluster::round`]).
    pub fn new(
        label: &'seg str,
        body: impl for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send + 'seg,
    ) -> Self {
        Self {
            label,
            body: Box::new(body),
        }
    }

    /// The round's trace label.
    pub fn label(&self) -> &str {
        self.label
    }
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words,
    M: Send + Sync + Words,
{
    /// Executes a segment of rounds, in order, through the round engine.
    /// Exactly equivalent to one [`Cluster::round`] call per entry.
    pub fn run_segment(&mut self, rounds: Vec<SegmentRound<'_, S, M>>) {
        for r in &rounds {
            self.round(r.label, &*r.body);
        }
    }

    /// Drains the first latched spill failure across the machines, if
    /// any, as a typed [`ClusterError::SpillIo`]. Round bodies cannot
    /// propagate `Result`s, so persistent spill failures latch inside
    /// the [`SpillFile`] and the `try_` entry points (and the
    /// out-of-core executor) surface them here.
    pub fn take_spill_error(&mut self) -> Option<ClusterError> {
        for (machine, spill) in self.spills.iter_mut().enumerate() {
            if let Some((attempts, message)) = spill.take_error() {
                return Some(ClusterError::SpillIo {
                    machine,
                    attempts,
                    message,
                });
            }
        }
        None
    }

    /// Post-segment error surfacing shared by the non-recovery paths.
    fn surface_spill_errors(&mut self) -> Result<(), ClusterError> {
        match self.take_spill_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words + Clone,
    M: Send + Sync + Words + Clone,
{
    /// Result-returning form of [`Cluster::round`]: identical semantics
    /// (and bit-identical output) on the fault-free path, typed errors
    /// instead of panics when the configured [`crate::FaultConfig`]
    /// injects an unrecoverable fault.
    pub fn try_round<F>(&mut self, label: &str, f: F) -> Result<(), ClusterError>
    where
        F: for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send,
    {
        self.try_run_segment(vec![SegmentRound::new(label, f)])
    }

    /// Result-returning form of [`Cluster::run_segment`], the entry
    /// point of the recovery engine (see the module docs).
    pub fn try_run_segment(
        &mut self,
        rounds: Vec<SegmentRound<'_, S, M>>,
    ) -> Result<(), ClusterError> {
        let plan = FaultPlan::new(self.config.faults);
        let base = self.trace.rounds.len();
        let m = self.config.num_machines;
        // Spill I/O faults are op-granular and absorbed inside the spill
        // layer, so a window where no round-granular fault fires needs
        // no recovery hooks: the plain engine runs unchanged.
        let window_faulted = self.config.faults.is_active()
            && (0..rounds.len()).any(|k| (0..m).any(|i| plan.round_faulted(i, base + k)));
        if !window_faulted {
            self.run_segment(rounds);
            return self.surface_spill_errors();
        }
        let mut recovery = Recovery::new(&rounds, self);
        for r in &rounds {
            self.round_with_hooks(r.label, &*r.body, &mut recovery)?;
            if let Some(e) = self.take_spill_error() {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// The recovery engine's state for one faulted segment, plugged into the
/// round engine as its [`RoundHooks`]. Model output (states, round stats,
/// critical path, pending messages) is bit-identical to a fault-free run
/// of the same segment; the only additions are the fault events and
/// [`crate::FaultStats`].
struct Recovery<'r, 'seg, S, M> {
    rounds: &'r [SegmentRound<'seg, S, M>],
    plan: FaultPlan,
    /// Trace index of the segment's first round.
    base: usize,
    every: usize,
    max_replays: u32,
    /// The restorable checkpoint. The previous snapshot is kept one
    /// generation so the `stale-checkpoint` seeded mutation has
    /// something wrong to restore.
    snapshot: Vec<S>,
    prev_snapshot: Vec<S>,
    /// Segment-relative round the snapshot was taken at.
    snapshot_round: usize,
    /// Every round's deliveries since the snapshot: `retained[j][i]` is
    /// machine `i`'s inbox for segment round `snapshot_round + j`.
    retained: Vec<Vec<Vec<M>>>,
    /// Crash replays per machine so far in the segment.
    replays: Vec<u32>,
    /// The current round's per-machine fault-event values.
    injected: Vec<u64>,
    ckpt_words: Vec<u64>,
    replayed: Vec<u64>,
}

impl<'r, 'seg, S: Clone, M> Recovery<'r, 'seg, S, M> {
    fn new(rounds: &'r [SegmentRound<'seg, S, M>], cluster: &Cluster<S, M>) -> Self {
        let m = cluster.config.num_machines;
        let faults = cluster.config.faults;
        Self {
            rounds,
            plan: FaultPlan::new(faults),
            base: cluster.trace.rounds.len(),
            every: faults.checkpoint_every.max(1),
            max_replays: faults.max_replays,
            snapshot: cluster.states.clone(),
            prev_snapshot: Vec::new(),
            snapshot_round: 0,
            retained: Vec::new(),
            replays: vec![0; m],
            injected: vec![0; m],
            ckpt_words: vec![0; m],
            replayed: vec![0; m],
        }
    }
}

impl<S, M> RoundHooks<S, M> for Recovery<'_, '_, S, M>
where
    S: Send + Words + Clone,
    M: Send + Sync + Words + Clone,
{
    type Error = ClusterError;

    fn before_compute(&mut self, c: &mut Cluster<S, M>) {
        let round_index = c.trace.rounds.len();
        let k = round_index - self.base;
        self.injected.fill(0);
        self.ckpt_words.fill(0);
        self.replayed.fill(0);

        // Checkpoint cadence: segment entry, then every `every` rounds.
        if k.is_multiple_of(self.every) {
            self.prev_snapshot = std::mem::replace(&mut self.snapshot, c.states.clone());
            if self.prev_snapshot.is_empty() {
                self.prev_snapshot = self.snapshot.clone();
            }
            self.snapshot_round = k;
            self.retained.clear();
            for (i, state) in c.states.iter().enumerate() {
                let words = state.words();
                self.ckpt_words[i] = words as u64;
                c.trace.faults.checkpoint_words += words as u64;
            }
        }
        // Retain this round's deliveries before the computes drain them:
        // replay needs to re-deliver them.
        let m = c.config.num_machines;
        self.retained
            .push((0..m).map(|i| c.inboxes.slice(i).to_vec()).collect());

        // Straggler delays: a bounded host-side spin before the
        // machine's compute. Host timing only — the determinism contract
        // says the model plane cannot see it.
        for (i, inj) in self.injected.iter_mut().enumerate() {
            if self.plan.fires(FaultKind::Straggle, i, round_index) {
                *inj += 1;
                for _ in 0..256 {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn after_routing(&mut self, c: &mut Cluster<S, M>) -> Result<(), ClusterError> {
        let round_index = c.trace.rounds.len();
        let k = round_index - self.base;
        let m = c.config.num_machines;

        // Dropped / duplicated deliveries: counted as fault events only;
        // no delivery is damaged, so there is nothing to repair.
        for (i, inj) in self.injected.iter_mut().enumerate() {
            if self.plan.fires(FaultKind::Drop, i, round_index) {
                *inj += 1;
            }
            if self.plan.fires(FaultKind::Duplicate, i, round_index) {
                *inj += 1;
            }
        }

        // Crash-restarts: restore the snapshot and replay every round
        // since it against the retained deliveries. Replayed sends/spills
        // are discarded, so model costs stay exact.
        for i in 0..m {
            if !self.plan.fires(FaultKind::Crash, i, round_index) {
                continue;
            }
            self.injected[i] += 1;
            self.replays[i] += 1;
            if self.replays[i] > self.max_replays {
                return Err(ClusterError::ReplayBudgetExhausted {
                    machine: i,
                    round: round_index,
                    budget: self.max_replays,
                });
            }
            // The `stale-checkpoint` seeded mutation restores the
            // previous (wrong) snapshot generation; the chaos mutation
            // gate must catch the divergence.
            let restore = if chaos_mutation("stale-checkpoint") {
                &self.prev_snapshot
            } else {
                &self.snapshot
            };
            c.states[i] = restore[i].clone();
            let since = &self.retained[..=(k - self.snapshot_round)];
            for (round, past) in self.rounds[self.snapshot_round..].iter().zip(since) {
                replay_round(&*round.body, i, m, &mut c.states[i], &past[i]);
                self.replayed[i] += 1;
                c.trace.faults.replayed_rounds += 1;
            }
            c.state_words[i] = c.states[i].words();
        }
        Ok(())
    }

    fn before_bookkeep(&mut self, c: &mut Cluster<S, M>) {
        // Fault events are only recorded when nonzero, so fault-free
        // rounds keep their exact event stream.
        for (i, ring) in c.scratch.rings.iter_mut().enumerate() {
            if self.injected[i] > 0 {
                ring.record(EventKind::FaultInjected, self.injected[i]);
                c.trace.faults.injected += self.injected[i];
            }
            if self.ckpt_words[i] > 0 {
                ring.record(EventKind::CheckpointWords, self.ckpt_words[i]);
            }
            if self.replayed[i] > 0 {
                ring.record(EventKind::ReplayRounds, self.replayed[i]);
            }
        }
    }
}

/// Re-runs one round body for one crashed machine against a restored
/// state and that round's retained deliveries. The replay context is
/// fresh — its sends and spill writes are discarded on return, since the
/// original execution already delivered and charged them.
fn replay_round<S, M: Clone>(
    body: &RoundFn<'_, S, M>,
    machine: usize,
    m: usize,
    state: &mut S,
    msgs: &[M],
) {
    let mut buf: Vec<M> = msgs.to_vec();
    let len = buf.len();
    let ptr = buf.as_mut_ptr();
    // SAFETY: releases the vector's ownership of its `len` messages
    // (leak-on-panic rather than double-drop) before the inbox view takes
    // over; the allocation itself stays with `buf`.
    unsafe { buf.set_len(0) };
    // SAFETY: `ptr..ptr+len` holds `len` initialized messages whose sole
    // owner is now this view; `buf`'s allocation outlives the view (the
    // body consumes the inbox before this frame returns).
    let inbox = unsafe { Inbox::from_raw(ptr, len) };
    let mut ctx = MachineCtx::new(machine, m, Outbox::new(), SpillFile::new());
    body(&mut ctx, state, inbox);
    drop(ctx.into_parts());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RoundStats;
    use crate::model::MpcConfig;
    use crate::FaultConfig;

    /// Machine state: a rolling hash of everything received, so replay
    /// divergence is loud.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct Acc {
        hash: u64,
        seen: u64,
    }

    impl Words for Acc {
        fn words(&self) -> usize {
            2 + (self.seen as usize % 3)
        }
    }

    fn mix_round<'a>(r: u64) -> SegmentRound<'a, Acc, u64> {
        SegmentRound::new(
            "mix",
            move |ctx: &mut MachineCtx<u64>, state: &mut Acc, inbox: Inbox<'_, u64>| {
                for v in inbox {
                    state.hash = state.hash.wrapping_mul(0x100000001b3).wrapping_add(v);
                    state.seen += 1;
                }
                let m = ctx.num_machines();
                for b in 0..1 + (ctx.id + r as usize) % 3 {
                    let dest = (ctx.id + b + 1) % m;
                    ctx.send(dest, (ctx.id as u64) << 32 | r << 8 | b as u64);
                }
            },
        )
    }

    fn segment<'a>(rounds: u64) -> Vec<SegmentRound<'a, Acc, u64>> {
        (0..rounds).map(mix_round).collect()
    }

    fn run(cfg: MpcConfig, segments: usize) -> Result<Cluster<Acc, u64>, ClusterError> {
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for _ in 0..segments {
            c.try_run_segment(segment(4))?;
        }
        Ok(c)
    }

    /// Strips the informational fields so runs compare on the model
    /// plane the chaos contract pins: states, round stats, critical
    /// path, pending messages.
    fn fingerprint(c: &Cluster<Acc, u64>) -> (Vec<Acc>, Vec<RoundStats>, Vec<Vec<u64>>) {
        (
            c.states().to_vec(),
            c.trace().rounds.clone(),
            (0..c.num_machines())
                .map(|i| c.pending(i).to_vec())
                .collect(),
        )
    }

    #[test]
    fn fault_free_try_segment_matches_plain_segment() {
        let cfg = MpcConfig::new(4, 10_000);
        let mut plain: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for _ in 0..2 {
            plain.run_segment(segment(4));
        }
        let tried = run(cfg, 2).unwrap();
        assert_eq!(plain.trace(), tried.trace());
        assert_eq!(fingerprint(&plain), fingerprint(&tried));
        assert_eq!(tried.trace().faults, Default::default());
    }

    #[test]
    fn crash_replay_recovers_bit_identical_state() {
        let clean = run(MpcConfig::new(4, 10_000), 3).unwrap();
        let faulted = MpcConfig::new(4, 10_000).with_faults(FaultConfig {
            seed: 3,
            crash_rate: 0.3,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 3).unwrap();
        assert!(
            recovered.trace().faults.injected > 0,
            "rate 0.3 over 12 rounds x 4 machines must crash somewhere"
        );
        assert!(recovered.trace().faults.replayed_rounds > 0);
        assert!(recovered.trace().faults.checkpoint_words > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
        // The deterministic plane beyond round stats matches too.
        assert_eq!(clean.trace().critical_path, recovered.trace().critical_path);
        assert_eq!(clean.trace().violations, recovered.trace().violations);
    }

    #[test]
    fn mixed_fault_classes_recover_bit_identical_state() {
        let clean = run(MpcConfig::new(5, 10_000), 3).unwrap();
        let faulted = MpcConfig::new(5, 10_000).with_faults(FaultConfig {
            seed: 9,
            crash_rate: 0.15,
            drop_rate: 0.2,
            dup_rate: 0.2,
            straggler_rate: 0.3,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 3).unwrap();
        assert!(recovered.trace().faults.injected > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
    }

    #[test]
    fn replay_budget_exhaustion_is_a_typed_error() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            crash_rate: 1.0,
            max_replays: 1,
            checkpoint_every: 1,
            ..FaultConfig::none()
        });
        let err = run(cfg, 1).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::ReplayBudgetExhausted { budget: 1, .. }
        ));
    }

    #[test]
    fn fault_events_flow_through_the_rings() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            seed: 5,
            crash_rate: 0.4,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let c = run(cfg, 2).unwrap();
        let kinds: Vec<EventKind> = c.trace().events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FaultInjected));
        assert!(kinds.contains(&EventKind::CheckpointWords));
        assert!(kinds.contains(&EventKind::ReplayRounds));
    }

    #[test]
    fn checkpoint_words_are_the_exact_state_footprint_at_each_cadence_round() {
        // A faulted window checkpoints at its entry and every
        // `checkpoint_every` rounds after it. Recovery is bit-identical,
        // so the clean run's states at those rounds fix the exact words.
        let (m, segments, len) = (4, 3, 4);
        let faults = FaultConfig {
            seed: 3,
            crash_rate: 0.3,
            checkpoint_every: 2,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(faults);
        let cfg = MpcConfig::new(m, 10_000);
        let mut clean: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        let mut expected = Vec::new();
        for seg in 0..segments {
            let base = seg * len;
            let faulted = (base..base + len).any(|r| (0..m).any(|i| plan.round_faulted(i, r)));
            for (k, r) in segment(len as u64).iter().enumerate() {
                if faulted && k % faults.checkpoint_every == 0 {
                    for (i, state) in clean.states().iter().enumerate() {
                        expected.push((base + k, i, state.words() as u64));
                    }
                }
                clean.round(r.label(), &*r.body);
            }
        }
        assert!(!expected.is_empty(), "the plan must fault some window");

        let recovered = run(cfg.with_faults(faults), segments).unwrap();
        let total: u64 = expected.iter().map(|&(_, _, w)| w).sum();
        assert_eq!(recovered.trace().faults.checkpoint_words, total);
        let events: Vec<(usize, usize, u64)> = recovered
            .trace()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CheckpointWords)
            .map(|e| (e.round as usize, e.machine as usize, e.value))
            .collect();
        assert_eq!(events, expected);
    }

    #[test]
    fn try_round_surfaces_latched_spill_errors() {
        let cfg = MpcConfig::new(2, 10_000).with_faults(FaultConfig {
            seed: 5,
            spill_io_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::none()
        });
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        let err = c
            .try_round("spill", |ctx, _s, _i| {
                if ctx.id == 1 {
                    let _ = ctx.spill().write_words(&[1, 2, 3]);
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::SpillIo {
                machine: 1,
                attempts: 3,
                ..
            }
        ));
    }

    #[test]
    fn empty_segment_is_a_no_op() {
        let mut c: Cluster<Acc, u64> = Cluster::new(MpcConfig::new(2, 100), |_| Acc::default());
        c.run_segment(Vec::new());
        c.try_run_segment(Vec::new()).unwrap();
        assert_eq!(c.trace().num_rounds(), 0);
        assert!(c.round_wall().is_empty());
    }

    #[test]
    fn segment_matches_plain_rounds_bit_for_bit() {
        // A plain round on both sides, then the same four rounds as
        // individual `round` calls or as one segment.
        let cfg = MpcConfig::new(5, 10_000);
        let warm = |c: &mut Cluster<Acc, u64>| {
            c.round("warm", |ctx, _s, _i| {
                ctx.send((ctx.id + 2) % ctx.num_machines(), ctx.id as u64)
            });
        };
        let mut plain: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        warm(&mut plain);
        for r in segment(4) {
            plain.round(r.label(), &*r.body);
        }
        let mut seg: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        warm(&mut seg);
        seg.run_segment(segment(4));
        assert_eq!(plain.trace(), seg.trace());
        assert_eq!(fingerprint(&plain), fingerprint(&seg));
    }

    #[test]
    fn single_round_segment_matches_plain_round() {
        let body = |ctx: &mut MachineCtx<u64>, _s: &mut Acc, _i: Inbox<'_, u64>| {
            ctx.send((ctx.id + 1) % ctx.num_machines(), 9)
        };
        let cfg = MpcConfig::new(3, 100);
        let mut a: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        a.round("solo", body);
        let mut b: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        b.run_segment(vec![SegmentRound::new("solo", body)]);
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        c.try_run_segment(vec![SegmentRound::new("solo", body)])
            .unwrap();
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace(), c.trace());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn recovery_hooks_path_matches_plain_segment() {
        // A window that crashes leaves the fast path and runs under the
        // recovery hooks; after a fan-in round it must still land on the
        // plain engine's outcome.
        let warm = |c: &mut Cluster<Acc, u64>| {
            c.try_round("warm", |ctx, _s, _i| ctx.send(0, ctx.id as u64))
                .unwrap();
        };
        let mut plain: Cluster<Acc, u64> =
            Cluster::new(MpcConfig::new(4, 10_000), |_| Acc::default());
        warm(&mut plain);
        plain.run_segment(segment(3));
        let faulted = MpcConfig::new(4, 10_000).with_faults(FaultConfig {
            crash_rate: 1.0,
            checkpoint_every: 1,
            ..FaultConfig::none()
        });
        let mut hooked: Cluster<Acc, u64> = Cluster::new(faulted, |_| Acc::default());
        warm(&mut hooked);
        hooked.try_run_segment(segment(3)).unwrap();
        assert!(
            hooked.trace().faults.replayed_rounds > 0,
            "the plan must replay"
        );
        assert_eq!(fingerprint(&plain), fingerprint(&hooked));
        assert_eq!(plain.trace().critical_path, hooked.trace().critical_path);
    }

    #[test]
    fn recovered_segment_records_identical_violations() {
        // Audit-mode cap breaches recorded under the recovery hooks match
        // the plain engine's, violation for violation.
        let flood = || {
            vec![
                SegmentRound::new(
                    "flood",
                    |ctx: &mut MachineCtx<u64>, _s: &mut Acc, _i: Inbox<'_, u64>| {
                        if ctx.id == 0 {
                            for _ in 0..6 {
                                ctx.send(1, 1);
                            }
                        }
                    },
                ),
                mix_round(1),
            ]
        };
        let cfg = MpcConfig::new(3, 4).audited();
        let mut plain: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        plain.run_segment(flood());
        let faulted = cfg.with_faults(FaultConfig {
            crash_rate: 1.0,
            checkpoint_every: 1,
            ..FaultConfig::none()
        });
        let mut recovered: Cluster<Acc, u64> = Cluster::new(faulted, |_| Acc::default());
        recovered.try_run_segment(flood()).unwrap();
        assert!(recovered.trace().faults.replayed_rounds > 0);
        assert!(!plain.trace().violations.is_empty());
        assert_eq!(plain.trace().violations, recovered.trace().violations);
        assert_eq!(fingerprint(&plain), fingerprint(&recovered));
    }

    #[test]
    #[should_panic(expected = "MPC violation")]
    fn strict_send_cap_panics_under_recovery() {
        // The recovery hooks do not soften strict enforcement: the round
        // engine's route panics exactly as in a plain round.
        let cfg = MpcConfig::new(2, 4).with_faults(FaultConfig {
            crash_rate: 1.0,
            checkpoint_every: 1,
            ..FaultConfig::none()
        });
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        let _ = c.try_round("flood", |ctx, _s, _i| {
            if ctx.id == 0 {
                for _ in 0..5 {
                    ctx.send(1, 1);
                }
            }
        });
    }

    #[test]
    fn round_wall_and_host_phases_grow_one_row_per_round() {
        let rows = |c: &Cluster<Acc, u64>| {
            assert_eq!(c.round_wall().len(), c.trace().num_rounds());
            assert_eq!(c.host_phases().len(), c.trace().num_rounds());
            assert!(c.round_wall().iter().all(|&t| t >= 0.0));
            c.trace().num_rounds()
        };
        // Plain rounds.
        let mut c: Cluster<Acc, u64> = Cluster::new(MpcConfig::new(3, 10_000), |_| Acc::default());
        c.round("warm", |_, _, _| {});
        c.run_segment(segment(3));
        assert_eq!(rows(&c), 4);
        // A segment whose crashes really replay.
        let faulted = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            seed: 3,
            crash_rate: 0.5,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let mut c: Cluster<Acc, u64> = Cluster::new(faulted, |_| Acc::default());
        c.try_round("warm", |_, _, _| {}).unwrap();
        c.try_run_segment(segment(4)).unwrap();
        assert!(c.trace().faults.replayed_rounds > 0, "the plan must replay");
        assert_eq!(rows(&c), 5);
    }
}
