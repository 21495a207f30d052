//! The generic host driving any sans-IO [`Node`] from reactor callbacks.
//!
//! `stdchk-net` used to wire each role (manager, benefactor) with its own
//! dispatch, timer thread, and completion plumbing. [`NodeHost`] replaces
//! all of that with one host shared by every role:
//!
//! - reactor workers feed inbound messages through [`NodeHost::deliver`];
//! - worker 0 folds [`NodeHost::next_deadline`] (the node's
//!   [`Node::poll_timeout`]) into its `epoll_wait` timeout and calls
//!   [`NodeHost::tick`] when it arrives;
//! - after every input the host drains [`Node::poll_action`] **in batches**
//!   — actions are popped under the lock in groups, then executed without
//!   holding the node, so socket and disk I/O never serialize protocol
//!   handling;
//! - role-specific behaviour is reduced to an [`Effects`] implementation:
//!   "transmit this message", "store/load this chunk". Effects return
//!   [`Completion`]s that the host feeds straight back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stdchk_util::ordlock::{Condvar, OrderedMutex};

use crate::ranks;

use stdchk_core::node::{Action, Completion, Node};
use stdchk_proto::ids::NodeId;
use stdchk_proto::msg::Msg;

use crate::conn::Clock;

/// Actions popped per lock acquisition while draining (shared by
/// [`NodeHost::pump`] and the client's session pump).
pub const ACTION_BATCH: usize = 32;

/// Role-specific execution of unified actions. Implementations are cheap
/// handles (connection registries, blob stores) shared across threads.
///
/// All routing state must live in the implementation (connection
/// registries keyed by node id): actions from the shared queue may be
/// executed by *any* pumping thread — a timer tick may transmit a reply
/// another connection's message produced — so effects cannot depend on
/// which thread delivered the triggering input.
pub trait Effects: Send + Sync + 'static {
    /// Executes one action. Returns the resulting completion for
    /// synchronous effects (blob-store writes); `None` when there is
    /// nothing to report.
    fn execute(&self, action: Action) -> Option<Completion>;

    /// Executes one drained batch of actions, draining `actions` and
    /// pushing resulting completions.
    ///
    /// The default executes them one at a time in order. Implementations
    /// sitting on batch-aware resources should override it — the
    /// benefactor hands its queued `Store` actions to one blob-store
    /// `submit_put_batch` and waits once on its disk I/O lane, so a
    /// group-commit engine covers a whole ingest burst with a single
    /// flush; the manager submits its queued WAL records the same way.
    fn execute_batch(&self, actions: &mut Vec<Action>, completions: &mut Vec<Completion>) {
        for action in actions.drain(..) {
            if let Some(c) = self.execute(action) {
                completions.push(c);
            }
        }
    }
}

/// Batch-order tickets for [`NodeHost`]s running with ordered effects.
#[derive(Debug, Default)]
struct OrderState {
    /// Next ticket to hand out (assigned while the batch is popped).
    next: u64,
    /// Ticket currently allowed to execute.
    turn: u64,
}

/// A sans-IO node hosted behind a lock, with a shared clock and an
/// effects executor.
pub struct NodeHost<N, E> {
    node: OrderedMutex<N>,
    clock: Clock,
    effects: E,
    shutdown: AtomicBool,
    /// When set, drained batches execute strictly in pop order, one at a
    /// time (see [`NodeHost::new_ordered`]).
    ordered: bool,
    order: OrderedMutex<OrderState>,
    order_cv: Condvar,
}

/// Advances the batch-order turn even if the executing thread unwinds,
/// so a panicking effect cannot wedge every other pump.
struct TurnGuard<'a> {
    order: &'a OrderedMutex<OrderState>,
    cv: &'a Condvar,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        self.order.lock().turn += 1;
        self.cv.notify_all();
    }
}

impl<N: Node + Send + 'static, E: Effects> NodeHost<N, E> {
    /// Hosts `node` with concurrent effect execution: any pumping thread
    /// may execute any drained batch, in any interleaving. Right for
    /// effects that carry no cross-action ordering (blob I/O keyed by
    /// content hash, independent sends).
    pub fn new(node: N, clock: Clock, effects: E) -> Arc<NodeHost<N, E>> {
        NodeHost::build(node, clock, effects, false)
    }

    /// Hosts `node` with **ordered** effect execution: drained batches
    /// run strictly in the order they were popped from the action queue,
    /// one batch at a time. Required when effect order is part of the
    /// protocol — the manager's metadata WAL queues each append *ahead
    /// of* the reply it guards, and that only means write-ahead if no
    /// racing pump thread can transmit a later-queued send first. Costs
    /// effect-execution parallelism, so reserve it for nodes whose
    /// effects are cheap (the manager's are socket writes and small log
    /// appends).
    pub fn new_ordered(node: N, clock: Clock, effects: E) -> Arc<NodeHost<N, E>> {
        NodeHost::build(node, clock, effects, true)
    }

    fn build(node: N, clock: Clock, effects: E, ordered: bool) -> Arc<NodeHost<N, E>> {
        Arc::new(NodeHost {
            node: OrderedMutex::new(ranks::NODE, "host.node", node),
            clock,
            effects,
            shutdown: AtomicBool::new(false),
            ordered,
            order: OrderedMutex::new(ranks::NODE_ORDER, "host.order", OrderState::default()),
            order_cv: Condvar::new(),
        })
    }

    /// The host's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The role-specific effects executor.
    pub fn effects(&self) -> &E {
        &self.effects
    }

    /// Runs `f` against the node (accessors, invariant audits).
    pub fn with_node<R>(&self, f: impl FnOnce(&mut N) -> R) -> R {
        f(&mut self.node.lock())
    }

    /// The hosted node's next protocol deadline (what a reactor folds
    /// into its `epoll_wait` timeout).
    pub fn next_deadline(&self) -> Option<stdchk_util::Time> {
        self.node.lock().poll_timeout()
    }

    /// Fires the node's timer if due and drains the resulting actions:
    /// the shared tick every reactor-hosted server app delegates to.
    pub fn tick(&self, now: stdchk_util::Time) {
        {
            let mut node = self.node.lock();
            if node.poll_timeout().is_some_and(|t| t <= now) {
                node.handle_timeout(now);
            }
        }
        self.pump();
    }

    /// Feeds one inbound message, then drains resulting actions.
    pub fn deliver(&self, from: NodeId, msg: Msg) {
        let now = self.clock.now();
        self.node.lock().handle(from, msg, now);
        self.pump();
    }

    /// Feeds one completion (for asynchronous effects), then drains.
    pub fn complete(&self, completion: Completion) {
        self.complete_all(std::iter::once(completion));
    }

    /// Feeds a batch of completions under one node-lock acquisition,
    /// then drains once — how the disk I/O lane reports a whole store
    /// batch's `Stored` acks without N lock round-trips. Callers outside
    /// the reactor follow up with
    /// [`ReactorHandle::notify_timer`](crate::ReactorHandle::notify_timer)
    /// so a re-armed earlier deadline is seen promptly.
    pub fn complete_all(&self, completions: impl IntoIterator<Item = Completion>) {
        let now = self.clock.now();
        {
            let mut node = self.node.lock();
            for c in completions {
                node.handle_completion(c, now);
            }
        }
        self.pump();
    }

    /// Drains `poll_action` in batches: pop up to [`ACTION_BATCH`] actions
    /// under the lock, hand the whole batch to
    /// [`Effects::execute_batch`] lock-free, feed completions back, repeat
    /// until the queue is empty.
    ///
    /// On an ordered host ([`NodeHost::new_ordered`]) each batch takes a
    /// ticket *inside the pop critical section* (ticket order ≡ queue
    /// order) and waits its turn before executing, so effects run in
    /// exactly the order the node emitted them even with many pumping
    /// threads.
    pub fn pump(&self) {
        let mut batch = Vec::with_capacity(ACTION_BATCH);
        loop {
            let ticket = {
                let mut node = self.node.lock();
                while batch.len() < ACTION_BATCH {
                    match node.poll_action() {
                        Some(a) => batch.push(a),
                        None => break,
                    }
                }
                if batch.is_empty() {
                    return;
                }
                if self.ordered {
                    let mut order = self.order.lock();
                    let t = order.next;
                    order.next += 1;
                    Some(t)
                } else {
                    None
                }
            };
            let _turn_guard = ticket.map(|t| {
                let mut order = self.order.lock();
                while order.turn != t {
                    self.order_cv.wait(&mut order);
                }
                drop(order);
                TurnGuard {
                    order: &self.order,
                    cv: &self.order_cv,
                }
            });
            let mut completions = Vec::new();
            self.effects.execute_batch(&mut batch, &mut completions);
            debug_assert!(batch.is_empty(), "execute_batch must drain the batch");
            if !completions.is_empty() {
                let now = self.clock.now();
                let mut node = self.node.lock();
                for c in completions {
                    node.handle_completion(c, now);
                }
            }
        }
    }

    /// Marks the host as shutting down: background helpers (the durable
    /// manager's snapshotter, the benefactor's manager redial) stop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// True once [`NodeHost::shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use stdchk_core::node::ActionQueue;
    use stdchk_proto::ids::RequestId;
    use stdchk_util::Time;

    /// A trivial node: echoes every message back to its sender and ticks a
    /// counter on each timeout.
    struct Echo {
        q: ActionQueue,
        ticks: u32,
        next_deadline: Option<Time>,
    }

    impl Node for Echo {
        fn handle(&mut self, from: NodeId, msg: Msg, _now: Time) {
            self.q.send(from, msg);
        }

        fn handle_timeout(&mut self, now: Time) {
            self.ticks += 1;
            self.next_deadline = Some(now + stdchk_util::Dur::from_millis(5));
        }

        fn poll_action(&mut self) -> Option<Action> {
            self.q.pop()
        }

        fn poll_timeout(&self) -> Option<Time> {
            self.next_deadline
        }
    }

    #[derive(Default)]
    struct Captured(PlMutex<Vec<(NodeId, Msg)>>);

    impl Effects for Arc<Captured> {
        fn execute(&self, action: Action) -> Option<Completion> {
            if let Action::Send { to, msg } = action {
                self.0.lock().push((to, msg));
            }
            None
        }
    }

    #[test]
    fn deliver_drains_through_effects() {
        let sink = Arc::new(Captured::default());
        let host = NodeHost::new(
            Echo {
                q: ActionQueue::new(),
                ticks: 0,
                next_deadline: Some(Time::ZERO),
            },
            Clock::new(),
            Arc::clone(&sink),
        );
        host.deliver(NodeId(9), Msg::Ack { req: RequestId(1) });
        let got = sink.0.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, NodeId(9));
    }

    #[test]
    fn tick_fires_only_due_timers() {
        let sink = Arc::new(Captured::default());
        let host = NodeHost::new(
            Echo {
                q: ActionQueue::new(),
                ticks: 0,
                next_deadline: Some(Time::ZERO + stdchk_util::Dur::from_millis(10)),
            },
            Clock::new(),
            Arc::clone(&sink),
        );
        host.tick(Time::ZERO);
        assert_eq!(host.with_node(|n| n.ticks), 0, "deadline not yet due");
        let due = host.next_deadline().expect("armed");
        host.tick(due);
        assert_eq!(host.with_node(|n| n.ticks), 1);
        assert!(host.next_deadline().expect("re-armed") > due);
    }
}
