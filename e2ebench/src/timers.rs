//! Outside-in layer timers.
//!
//! [`TimedLearner`] and [`TimedAlgorithm`] wrap the public [`Learner`] and
//! [`CollabAlgorithm`] traits, forward every call unchanged, and add the
//! call's wall time to a per-cell [`Ledger`]. The algorithm wrapper marks
//! which callback is running, so the learner wrapper can attribute each
//! `loss` / `train_step` to the callback that issued it (Alg. 1 refresh
//! inside `local_training`, valuation and φ inside `session_step`, Eq. 8
//! inside `session_close`, the loss curve inside `mean_eval_loss`).
//!
//! Nothing inside the program changes: the wrappers only see what crosses
//! the trait boundary, and the benchmark checks that a wrapped cell's
//! outputs equal the unwrapped cell's bit for bit.

use lbchat::prelude::{
    CollabAlgorithm, FrameCtx, Learner, SessionCtx, SessionStep, TrainStats, TransferOutcome,
};
use simnet::contact::ContactEstimate;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use vnn::ParamVec;

/// The algorithm callback a learner call happens under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// Outside every callback (algorithm construction, final model read).
    Outside,
    /// `local_training`: minibatch steps plus the Alg. 1 coreset refresh.
    LocalTraining,
    /// `session_open`.
    SessionOpen,
    /// `session_step`: coreset exchange, valuation, φ, Eq. 7, codec.
    SessionStep,
    /// `session_close`: Eq. 8 aggregation and dataset expansion.
    SessionClose,
    /// `pair_priority`: the Eq. 5 pair score.
    PairPriority,
    /// `on_frame`: infrastructure rounds (server, RSUs).
    OnFrame,
    /// `mean_eval_loss`: the loss-curve samples.
    EvalLoss,
}

const N_CALLBACKS: usize = 8;

impl Callback {
    /// Every callback, in slot order.
    pub const ALL: [Callback; N_CALLBACKS] = [
        Callback::Outside,
        Callback::LocalTraining,
        Callback::SessionOpen,
        Callback::SessionStep,
        Callback::SessionClose,
        Callback::PairPriority,
        Callback::OnFrame,
        Callback::EvalLoss,
    ];

    fn slot(self) -> usize {
        self as usize
    }
}

/// Per-cell time and count accumulators. Atomic so that a cell's
/// learners stay `Send + Sync` like the learners they wrap.
#[derive(Default, Debug)]
pub struct Ledger {
    active: AtomicUsize,
    callback_ns: [AtomicU64; N_CALLBACKS],
    callback_calls: [AtomicU64; N_CALLBACKS],
    learner_ns: [AtomicU64; N_CALLBACKS],
    loss_ns: [AtomicU64; N_CALLBACKS],
    loss_calls: [AtomicU64; N_CALLBACKS],
    train_ns: AtomicU64,
    train_steps: AtomicU64,
    train_samples: AtomicU64,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Ledger {
    /// Runs `f` as callback `cb`: times it and marks it active for the
    /// learner calls it makes.
    fn within<R>(&self, cb: Callback, f: impl FnOnce() -> R) -> R {
        let prev = self.active.swap(cb.slot(), Relaxed);
        let t = Instant::now();
        let r = f();
        self.callback_ns[cb.slot()].fetch_add(elapsed_ns(t), Relaxed);
        self.callback_calls[cb.slot()].fetch_add(1, Relaxed);
        self.active.store(prev, Relaxed);
        r
    }

    fn record_loss(&self, t: Instant) {
        let ns = elapsed_ns(t);
        let cb = self.active.load(Relaxed);
        self.loss_ns[cb].fetch_add(ns, Relaxed);
        self.loss_calls[cb].fetch_add(1, Relaxed);
        self.learner_ns[cb].fetch_add(ns, Relaxed);
    }

    fn record_train(&self, t: Instant, samples: usize) {
        let ns = elapsed_ns(t);
        self.train_ns.fetch_add(ns, Relaxed);
        self.train_steps.fetch_add(1, Relaxed);
        self.train_samples.fetch_add(samples as u64, Relaxed);
        self.learner_ns[self.active.load(Relaxed)].fetch_add(ns, Relaxed);
    }

    /// A plain copy of the accumulators.
    pub fn totals(&self) -> Totals {
        let read = |a: &[AtomicU64; N_CALLBACKS]| a.each_ref().map(|v| v.load(Relaxed));
        Totals {
            callback_ns: read(&self.callback_ns),
            callback_calls: read(&self.callback_calls),
            learner_ns: read(&self.learner_ns),
            loss_ns: read(&self.loss_ns),
            loss_calls: read(&self.loss_calls),
            train_ns: self.train_ns.load(Relaxed),
            train_steps: self.train_steps.load(Relaxed),
            train_samples: self.train_samples.load(Relaxed),
        }
    }
}

/// A snapshot of a [`Ledger`]; snapshots of several cells add up.
#[derive(Default, Debug, Clone, Copy)]
pub struct Totals {
    /// Wall time inside each callback.
    pub callback_ns: [u64; N_CALLBACKS],
    /// Calls of each callback.
    pub callback_calls: [u64; N_CALLBACKS],
    /// Learner time (train + loss) inside each callback.
    pub learner_ns: [u64; N_CALLBACKS],
    /// `loss` / `loss_with` time inside each callback.
    pub loss_ns: [u64; N_CALLBACKS],
    /// `loss` / `loss_with` calls inside each callback.
    pub loss_calls: [u64; N_CALLBACKS],
    /// `train_step` time.
    pub train_ns: u64,
    /// `train_step` calls.
    pub train_steps: u64,
    /// Samples passed to `train_step`.
    pub train_samples: u64,
}

impl Totals {
    /// Adds another snapshot into this one.
    pub fn add(&mut self, o: &Totals) {
        for k in 0..N_CALLBACKS {
            self.callback_ns[k] += o.callback_ns[k];
            self.callback_calls[k] += o.callback_calls[k];
            self.learner_ns[k] += o.learner_ns[k];
            self.loss_ns[k] += o.loss_ns[k];
            self.loss_calls[k] += o.loss_calls[k];
        }
        self.train_ns += o.train_ns;
        self.train_steps += o.train_steps;
        self.train_samples += o.train_samples;
    }

    /// Seconds spent inside callback `cb`.
    pub fn callback_s(&self, cb: Callback) -> f64 {
        secs(self.callback_ns[cb.slot()])
    }

    /// Seconds inside `cb` not spent in learner calls.
    pub fn callback_self_s(&self, cb: Callback) -> f64 {
        secs(self.callback_ns[cb.slot()].saturating_sub(self.learner_ns[cb.slot()]))
    }

    /// Calls of callback `cb`.
    pub fn calls(&self, cb: Callback) -> u64 {
        self.callback_calls[cb.slot()]
    }

    /// Seconds of `loss` / `loss_with` under the given callbacks.
    pub fn loss_s(&self, cbs: &[Callback]) -> f64 {
        secs(cbs.iter().map(|c| self.loss_ns[c.slot()]).sum())
    }

    /// `loss` / `loss_with` calls under the given callbacks.
    pub fn loss_calls(&self, cbs: &[Callback]) -> u64 {
        cbs.iter().map(|c| self.loss_calls[c.slot()]).sum()
    }

    /// Seconds inside the callbacks the runtime drives (everything but
    /// [`Callback::Outside`]).
    pub fn all_callbacks_s(&self) -> f64 {
        secs(
            Callback::ALL[1..]
                .iter()
                .map(|c| self.callback_ns[c.slot()])
                .sum(),
        )
    }
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// A [`Learner`] that times `train_step`, `loss` and `loss_with` and
/// forwards every call to the learner it wraps.
#[derive(Clone)]
pub struct TimedLearner<L> {
    inner: L,
    ledger: Arc<Ledger>,
}

impl<L> TimedLearner<L> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: L, ledger: &Arc<Ledger>) -> Self {
        Self {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl<L: Learner> Learner for TimedLearner<L> {
    type Sample = L::Sample;

    fn params(&self) -> &ParamVec {
        self.inner.params()
    }

    fn set_params(&mut self, params: ParamVec) {
        self.inner.set_params(params);
    }

    fn loss(&self, sample: &Self::Sample) -> f32 {
        let t = Instant::now();
        let v = self.inner.loss(sample);
        self.ledger.record_loss(t);
        v
    }

    fn loss_with(&self, params: &ParamVec, sample: &Self::Sample) -> f32 {
        let t = Instant::now();
        let v = self.inner.loss_with(params, sample);
        self.ledger.record_loss(t);
        v
    }

    fn train_step(&mut self, batch: &[(&Self::Sample, f32)]) -> f32 {
        let t = Instant::now();
        let v = self.inner.train_step(batch);
        self.ledger.record_train(t, batch.len());
        v
    }

    fn group_of(&self, sample: &Self::Sample) -> usize {
        self.inner.group_of(sample)
    }

    fn n_groups(&self) -> usize {
        self.inner.n_groups()
    }

    fn on_params_replaced(&mut self) {
        self.inner.on_params_replaced();
    }

    fn take_train_stats(&mut self) -> TrainStats {
        self.inner.take_train_stats()
    }
}

/// A [`CollabAlgorithm`] that times each callback and marks it active
/// for the wrapped learners. `encounter` keeps the trait's default, so a
/// synchronous session runs through the timed `session_*` callbacks.
pub struct TimedAlgorithm<A> {
    inner: A,
    ledger: Arc<Ledger>,
}

impl<A> TimedAlgorithm<A> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: A, ledger: &Arc<Ledger>) -> Self {
        Self {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl<A: CollabAlgorithm> CollabAlgorithm for TimedAlgorithm<A> {
    type Sample = A::Sample;
    type Session = A::Session;

    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn model(&self, node: usize) -> &ParamVec {
        self.inner.model(node)
    }

    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> TrainStats {
        self.ledger.within(Callback::LocalTraining, || {
            self.inner.local_training(node, iters, rng)
        })
    }

    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<(Self::Session, SessionStep)> {
        self.ledger
            .within(Callback::SessionOpen, || self.inner.session_open(ctx))
    }

    fn session_step(
        &mut self,
        state: &mut Self::Session,
        outcome: TransferOutcome,
        ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        self.ledger.within(Callback::SessionStep, || {
            self.inner.session_step(state, outcome, ctx)
        })
    }

    fn session_close(&mut self, state: Self::Session, ctx: &mut SessionCtx<'_>) -> f64 {
        self.ledger.within(Callback::SessionClose, || {
            self.inner.session_close(state, ctx)
        })
    }

    fn pair_priority(&self, i: usize, j: usize, est: &ContactEstimate) -> f64 {
        self.ledger.within(Callback::PairPriority, || {
            self.inner.pair_priority(i, j, est)
        })
    }

    fn on_frame(&mut self, ctx: &mut FrameCtx<'_>) {
        self.ledger
            .within(Callback::OnFrame, || self.inner.on_frame(ctx));
    }

    fn mean_eval_loss(&self, eval: &[Self::Sample]) -> f64 {
        self.ledger
            .within(Callback::EvalLoss, || self.inner.mean_eval_loss(eval))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
