//! Round-based processes.
//!
//! The paper's computational model (§3): a synchronous round has a *send*
//! phase, in which every node broadcasts one message to its (unknown)
//! current neighbourhood, and a *receive* phase, in which it processes the
//! messages delivered by the adversary's graph for that round. Nodes are
//! anonymous and deterministic; only the leader starts in a distinguished
//! state. Bandwidth is unlimited — messages may be arbitrarily large.

use core::fmt;

/// Whether a process is the distinguished leader `v_l` or an anonymous
/// node. The leader is the only process allowed a distinct initial state
/// (counting is impossible without one, Michail et al. \[15\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The unique leader `v_l`.
    Leader,
    /// An anonymous node; all anonymous nodes start in identical states.
    Anonymous,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Leader => write!(f, "leader"),
            Role::Anonymous => write!(f, "anonymous"),
        }
    }
}

/// Information available to a process in the send phase.
///
/// In the base model a node does **not** know its degree `|N(v, r)|`
/// before the receive phase; `degree` is `Some` only when the simulator
/// runs with the *local degree detector* oracle of Di Luna et al. \[13\]
/// (the paper's Discussion shows this oracle collapses the `Ω(log n)`
/// bound to `O(1)` in restricted `G(PD)_2` networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendContext {
    /// The current round.
    pub round: u32,
    /// The node's degree this round, if the degree oracle is enabled.
    pub degree: Option<u32>,
}

/// Information delivered to a process in the receive phase.
#[derive(Debug)]
pub struct RecvContext<'a, M> {
    /// The current round.
    pub round: u32,
    /// Messages from the node's round-`r` neighbours.
    ///
    /// The slice order is an artifact of the simulator, not information:
    /// anonymous algorithms must treat the inbox as a multiset. (The
    /// simulator can shuffle every inbox with its own
    /// `(seed, round, node)` RNG to enforce this; see
    /// [`Simulator::shuffle_inboxes`](crate::Simulator::shuffle_inboxes).)
    pub inbox: &'a [M],
}

/// A deterministic round-based process.
///
/// Implementations must be *anonymous*: every [`Role::Anonymous`] process
/// of a protocol starts in the same state, so behaviour may depend only on
/// the role, the round and the received message multisets.
pub trait Process {
    /// The message type broadcast each round (unlimited bandwidth).
    type Msg: Clone;

    /// The send phase: produce this round's broadcast message.
    fn send(&mut self, ctx: &SendContext) -> Self::Msg;

    /// The receive phase: absorb the neighbours' messages.
    fn receive(&mut self, ctx: RecvContext<'_, Self::Msg>);

    /// The process's decision, if it has one. For counting protocols the
    /// leader returns `Some(count)` when it terminates (Definition 2);
    /// non-leader processes return `None`.
    fn output(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that counts rounds and echoes how many messages it saw.
    struct Echo {
        seen: u64,
    }

    impl Process for Echo {
        type Msg = u64;

        fn send(&mut self, _ctx: &SendContext) -> u64 {
            self.seen
        }

        fn receive(&mut self, ctx: RecvContext<'_, u64>) {
            self.seen += ctx.inbox.len() as u64;
        }

        fn output(&self) -> Option<u64> {
            Some(self.seen)
        }
    }

    #[test]
    fn process_trait_object_safety() {
        // The trait is usable as a boxed object for homogeneous message types.
        let mut p: Box<dyn Process<Msg = u64>> = Box::new(Echo { seen: 0 });
        let m = p.send(&SendContext {
            round: 0,
            degree: None,
        });
        assert_eq!(m, 0);
        p.receive(RecvContext {
            round: 0,
            inbox: &[1, 2],
        });
        assert_eq!(p.output(), Some(2));
    }

    #[test]
    fn role_display() {
        assert_eq!(Role::Leader.to_string(), "leader");
        assert_eq!(Role::Anonymous.to_string(), "anonymous");
    }
}
