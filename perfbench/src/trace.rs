//! Outside-in tracing: delegating wrappers around the program's public
//! layer boundaries.
//!
//! * [`Traced`] wraps each `CongosNode` as a `Protocol` and times its
//!   `send` (the `sim` send phase) and `receive` (the compute phase), with
//!   the heap bytes allocated inside each. It also sums `NodeStats` over
//!   every incarnation: a restart drops the old wrapper, and the drop
//!   collects the counters the crash would otherwise discard.
//! * [`TimedAdversary`] times the `FailurePlan`/`InjectionPlan` decisions.
//! * [`Watch`] runs an observer (the confidentiality auditor), counts
//!   delivered envelopes and samples wire frames, timing itself so its
//!   cost can be taken out.
//!
//! The wrappers keep their own work out of the numbers: they allocate
//! nothing outside the spans they time except the scratch buffers the
//! inner protocol writes into, whose growth is computed and subtracted.
//! Attribution assumes the sequential backend (the allocator counters are
//! process-wide), so all accumulators are thread-local.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::time::Instant;

use congos::{CongosInput, CongosMsg, CongosNode, DeliveredRumor, NodeStats};
use congos_harness::mem::bytes_allocated;
use congos_net::{encode_frame, WireFrame};
use congos_sim::{
    Adversary, Context, EnvelopeRef, Inbox, Observer, OutputRecord, ProcessId, Protocol, Round,
    RoundDecision, RoundView, Tag,
};

/// Per-layer totals gathered by the wrappers of one traced episode.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Nanoseconds inside `CongosNode::send`.
    pub send_ns: u64,
    /// Nanoseconds inside `CongosNode::receive`.
    pub compute_ns: u64,
    /// Heap bytes allocated inside `send`.
    pub send_alloc: u64,
    /// Heap bytes allocated inside `receive`.
    pub compute_alloc: u64,
    /// Heap bytes the wrappers' scratch buffers grew by (not the program's).
    pub own_alloc: u64,
    /// Nanoseconds constructing nodes before round 0.
    pub new_setup_ns: u64,
    /// Nanoseconds constructing nodes on restart.
    pub new_restart_ns: u64,
    /// Heap bytes allocated constructing nodes on restart.
    pub new_restart_alloc: u64,
    /// `NodeStats` summed over every incarnation that has been dropped.
    pub stats: NodeStats,
}

thread_local! {
    static TOTALS: Cell<Totals> = Cell::new(Totals::default());
    static IN_SETUP: Cell<bool> = const { Cell::new(true) };
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    pending: Vec<(ProcessId, CongosMsg, Tag)>,
    outputs: Vec<OutputRecord<DeliveredRumor>>,
}

fn update(f: impl FnOnce(&mut Totals)) {
    TOTALS.with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

/// Clears the totals and marks the next node constructions as set-up.
pub fn reset() {
    TOTALS.with(|t| t.set(Totals::default()));
    IN_SETUP.with(|s| s.set(true));
}

/// Marks later node constructions as restarts.
pub fn setup_done() {
    IN_SETUP.with(|s| s.set(false));
}

/// The totals so far.
pub fn totals() -> Totals {
    TOTALS.with(Cell::get)
}

/// Bytes a `Vec` of `elem`-sized items allocates while growing by single
/// pushes from capacity `from` to capacity `to` (the standard library's
/// amortized doubling, with its minimum non-zero capacity).
fn growth_bytes(from: usize, to: usize, elem: usize) -> u64 {
    let min_cap = if elem == 1 {
        8
    } else if elem <= 1024 {
        4
    } else {
        1
    };
    let mut cap = from;
    let mut bytes = 0u64;
    while cap < to {
        cap = (cap * 2).max(min_cap);
        bytes += (cap * elem) as u64;
    }
    debug_assert_eq!(cap, to, "scratch buffer grew by other than doubling");
    bytes
}

fn sum_stats(a: NodeStats, b: NodeStats) -> NodeStats {
    NodeStats {
        injected: a.injected + b.injected,
        confirmed: a.confirmed + b.confirmed,
        fallbacks: a.fallbacks + b.fallbacks,
        direct: a.direct + b.direct,
        gossip_fallbacks: a.gossip_fallbacks + b.gossip_fallbacks,
        decoys_injected: a.decoys_injected + b.decoys_injected,
        decoys_discarded: a.decoys_discarded + b.decoys_discarded,
    }
}

/// A `CongosNode` behind a timing `Protocol` wrapper.
pub struct Traced(CongosNode);

/// A factory for traced nodes that times each construction.
pub fn traced_factory(
    cfg: congos::CongosConfig,
) -> impl Fn(ProcessId, usize, u64) -> Traced + 'static {
    move |id, n, _seed| {
        let a0 = bytes_allocated();
        let t0 = Instant::now();
        let node = CongosNode::with_config(id, n, cfg.clone());
        let ns = t0.elapsed().as_nanos() as u64;
        let alloc = bytes_allocated() - a0;
        if IN_SETUP.with(Cell::get) {
            update(|t| t.new_setup_ns += ns);
        } else {
            update(|t| {
                t.new_restart_ns += ns;
                t.new_restart_alloc += alloc;
            });
        }
        Traced(node)
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        let s = self.0.stats();
        update(|t| t.stats = sum_stats(t.stats, s));
    }
}

impl Traced {
    /// Runs `f` on the inner node with a context over the scratch buffers,
    /// then forwards what it queued to the engine's context in order.
    /// Returns `(ns, bytes allocated by the inner call)`.
    fn delegate(
        ctx: &mut Context<'_, Self>,
        f: impl FnOnce(&mut Context<'_, CongosNode>),
    ) -> (u64, u64) {
        let (id, n, round) = (ctx.id(), ctx.n(), ctx.round());
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let Scratch { pending, outputs } = &mut *s;
            let caps = (pending.capacity(), outputs.capacity());
            let a0 = bytes_allocated();
            let t0 = Instant::now();
            {
                let mut inner = Context::for_runtime(id, n, round, ctx.rng(), pending, outputs);
                f(&mut inner);
            }
            let ns = t0.elapsed().as_nanos() as u64;
            let grown = growth_bytes(
                caps.0,
                pending.capacity(),
                std::mem::size_of::<(ProcessId, CongosMsg, Tag)>(),
            ) + growth_bytes(
                caps.1,
                outputs.capacity(),
                std::mem::size_of::<OutputRecord<DeliveredRumor>>(),
            );
            let alloc = bytes_allocated() - a0 - grown;
            update(|t| t.own_alloc += grown);
            for (dst, msg, tag) in pending.drain(..) {
                ctx.send(dst, msg, tag);
            }
            for out in outputs.drain(..) {
                ctx.output(out.value);
            }
            (ns, alloc)
        })
    }
}

impl Protocol for Traced {
    type Msg = CongosMsg;
    type Input = CongosInput;
    type Output = DeliveredRumor;

    fn new(id: ProcessId, n: usize, seed: u64) -> Self {
        Traced(CongosNode::new(id, n, seed))
    }

    fn on_start(&mut self, round: Round) {
        self.0.on_start(round);
    }

    fn msg_size(msg: &CongosMsg) -> u64 {
        CongosNode::msg_size(msg)
    }

    fn send(&mut self, ctx: &mut Context<'_, Self>) {
        let node = &mut self.0;
        let (ns, alloc) = Self::delegate(ctx, |c| node.send(c));
        update(|t| {
            t.send_ns += ns;
            t.send_alloc += alloc;
        });
    }

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, CongosMsg>,
        input: Option<CongosInput>,
    ) {
        let node = &mut self.0;
        let (ns, alloc) = Self::delegate(ctx, |c| node.receive(c, inbox, input));
        update(|t| {
            t.compute_ns += ns;
            t.compute_alloc += alloc;
        });
    }
}

/// An adversary whose decisions are timed.
pub struct TimedAdversary<A> {
    /// The wrapped adversary.
    pub inner: A,
    /// Nanoseconds inside `decide`.
    pub ns: u64,
    /// Heap bytes allocated inside `decide`.
    pub alloc: u64,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        TimedAdversary {
            inner,
            ns: 0,
            alloc: 0,
        }
    }
}

impl<P: Protocol, A: Adversary<P>> Adversary<P> for TimedAdversary<A> {
    fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<P::Input> {
        let a0 = bytes_allocated();
        let t0 = Instant::now();
        let d = self.inner.decide(view);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.alloc += bytes_allocated() - a0;
        d
    }
}

/// An observer over traced nodes: feeds an inner `CongosNode` observer
/// (the confidentiality auditor), counts delivered envelopes, and encodes
/// the envelopes of a few chosen rounds as wire frames for the codec
/// kernel (encoding keeps no reference to a payload, so no fragment lives
/// longer than it would untraced). All of its time and allocation is its
/// own and is reported so the caller can take it out of the engine's share.
pub struct Watch<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Envelopes delivered.
    pub delivered: u64,
    /// Envelopes delivered between distinct processes (the ones a socket
    /// substrate ships).
    pub delivered_remote: u64,
    /// Rounds whose envelopes are encoded.
    pub sample_rounds: Range<u64>,
    /// At most this many envelopes are encoded.
    pub sample_cap: usize,
    /// The encoded frames, back to back.
    pub frames: Vec<u8>,
    /// Frames in `frames`.
    pub frame_count: usize,
    /// Nanoseconds spent in this observer.
    pub ns: u64,
    /// Heap bytes allocated by this observer.
    pub alloc: u64,
}

impl<O> Watch<O> {
    /// Wraps `inner`, encoding up to `sample_cap` envelopes delivered in
    /// `sample_rounds`.
    pub fn new(inner: O, sample_rounds: Range<u64>, sample_cap: usize) -> Self {
        Watch {
            inner,
            delivered: 0,
            delivered_remote: 0,
            sample_rounds,
            sample_cap,
            frames: Vec::new(),
            frame_count: 0,
            ns: 0,
            alloc: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let a0 = bytes_allocated();
        let t0 = Instant::now();
        let r = f(self);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.alloc += bytes_allocated() - a0;
        r
    }
}

impl<P, O> Observer<P> for Watch<O>
where
    P: Protocol<Msg = CongosMsg, Input = CongosInput, Output = DeliveredRumor>,
    O: Observer<CongosNode>,
{
    fn on_deliver(&mut self, env: EnvelopeRef<'_, CongosMsg>) {
        self.timed(|w| {
            w.delivered += 1;
            if env.src != env.dst {
                w.delivered_remote += 1;
            }
            if w.sample_rounds.contains(&env.round.as_u64()) && w.frame_count < w.sample_cap {
                let frame = WireFrame::Msg {
                    src: env.src,
                    round: env.round.as_u64(),
                    tag: env.tag.name().to_string(),
                    payload: env.payload.clone(),
                };
                if encode_frame(&mut w.frames, &frame).is_ok() {
                    w.frame_count += 1;
                }
            }
            <O as Observer<CongosNode>>::on_deliver(&mut w.inner, env);
        });
    }

    fn on_inject(&mut self, round: Round, process: ProcessId, input: &CongosInput) {
        self.timed(|w| <O as Observer<CongosNode>>::on_inject(&mut w.inner, round, process, input));
    }

    fn on_output(&mut self, rec: &OutputRecord<DeliveredRumor>) {
        self.timed(|w| <O as Observer<CongosNode>>::on_output(&mut w.inner, rec));
    }

    fn on_crash(&mut self, round: Round, process: ProcessId) {
        self.timed(|w| <O as Observer<CongosNode>>::on_crash(&mut w.inner, round, process));
    }

    fn on_restart(&mut self, round: Round, process: ProcessId) {
        self.timed(|w| <O as Observer<CongosNode>>::on_restart(&mut w.inner, round, process));
    }

    fn on_round_end(&mut self, round: Round) {
        self.timed(|w| <O as Observer<CongosNode>>::on_round_end(&mut w.inner, round));
    }
}
