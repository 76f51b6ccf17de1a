//! The per-agent state of `P_LL` (paper, Table 3).

/// Agent status (common variable `status`): determines the agent's group.
///
/// `X` is the pristine initial status; the first interaction assigns `A`
/// ("leader candidate") or `B` ("timer agent") — paper Section 3.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Status {
    /// Initial status: no group assigned yet.
    X,
    /// Leader candidate: carries the per-epoch competition variables.
    A,
    /// Timer agent: carries the count-up timer driving synchronization.
    B,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::X => write!(f, "X"),
            Status::A => write!(f, "A"),
            Status::B => write!(f, "B"),
        }
    }
}

/// Group-specific additional variables (paper, Table 3).
///
/// Each agent carries *at most one* non-constant additional variable group,
/// which is what keeps the state space at `O(log n)` (Lemma 3):
///
/// | group | variables |
/// |---|---|
/// | `V_X` | none |
/// | `V_B` | `count ∈ {0, …, c_max−1}` |
/// | `V_A ∩ V_1` | `levelQ ∈ {0, …, l_max}`, `done ∈ {false, true}` |
/// | `V_A ∩ (V_2 ∪ V_3)` | `rand ∈ {0, …, 2^Φ−1}`, `index ∈ {0, …, Φ}` |
/// | `V_A ∩ V_4` | `levelB ∈ {0, …, l_max}` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Extra {
    /// `V_X`: no additional variables.
    None,
    /// `V_B`: the count-up timer.
    Timer {
        /// `count ∈ {0, …, c_max − 1}`.
        count: u32,
    },
    /// `V_A ∩ V_1`: the `QuickElimination()` variables.
    Quick {
        /// `levelQ ∈ {0, …, l_max}`: heads seen before the first tail.
        level_q: u32,
        /// `done`: whether this agent stopped flipping coins.
        done: bool,
    },
    /// `V_A ∩ (V_2 ∪ V_3)`: the `Tournament()` variables.
    Rand {
        /// `rand ∈ {0, …, 2^Φ − 1}`: the nonce built from coin flips.
        rand: u32,
        /// `index ∈ {0, …, Φ}`: how many coin flips contributed so far.
        index: u32,
    },
    /// `V_A ∩ V_4`: the `BackUp()` variable.
    Backup {
        /// `levelB ∈ {0, …, l_max}`.
        level_b: u32,
    },
}

/// The full state of one `P_LL` agent.
///
/// Fields are public: this is a passive record whose invariants are enforced
/// by the protocol's transition function, and the experiment suite needs to
/// construct adversarial configurations (e.g. the `B_start` configurations of
/// Lemma 12) directly.
///
/// The common variable `tick` of Table 3 is **not** stored: the paper resets
/// it at the start of every interaction (Algorithm 1, line 7) and notes it
/// "does not affect the transition at v's next interaction", so it is
/// transient and modeled as a local inside the transition function. This
/// halves the state count without changing the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PllState {
    /// Output variable: `true` ⇒ the agent outputs `L`.
    pub leader: bool,
    /// Common variable `status ∈ {X, A, B}`.
    pub status: Status,
    /// Common variable `epoch ∈ {1, 2, 3, 4}`.
    pub epoch: u8,
    /// Common variable `init ∈ {1, 2, 3, 4}`: last epoch whose additional
    /// variables have been initialized.
    pub init: u8,
    /// Common variable `color ∈ {0, 1, 2}`: the synchronization color.
    pub color: u8,
    /// Group-specific additional variables.
    pub extra: Extra,
}

impl PllState {
    /// The initial state `s_init`: leader with pristine status `X`
    /// (paper, Table 3 initial values).
    pub fn initial() -> Self {
        Self {
            leader: true,
            status: Status::X,
            epoch: 1,
            init: 1,
            color: 0,
            extra: Extra::None,
        }
    }

    /// A `V_B` timer agent (follower) with the given timer and color —
    /// convenience for adversarial test configurations.
    pub fn timer(count: u32, color: u8) -> Self {
        Self {
            leader: false,
            status: Status::B,
            epoch: 1,
            init: 1,
            color,
            extra: Extra::Timer { count },
        }
    }

    /// A fourth-epoch `V_A` agent with `levelB = level_b` — the building
    /// block of the `B_start` configurations of Lemma 12.
    pub fn backup(leader: bool, level_b: u32) -> Self {
        Self {
            leader,
            status: Status::A,
            epoch: 4,
            init: 4,
            color: 0,
            extra: Extra::Backup { level_b },
        }
    }

    /// Whether this agent belongs to `V_A`.
    pub fn is_a(&self) -> bool {
        self.status == Status::A
    }

    /// Whether this agent belongs to `V_B`.
    pub fn is_b(&self) -> bool {
        self.status == Status::B
    }

    /// The agent's `levelQ`, if it carries `QuickElimination()` variables.
    pub fn level_q(&self) -> Option<u32> {
        match self.extra {
            Extra::Quick { level_q, .. } => Some(level_q),
            _ => None,
        }
    }

    /// The agent's `levelB`, if it carries the `BackUp()` variable.
    pub fn level_b(&self) -> Option<u32> {
        match self.extra {
            Extra::Backup { level_b } => Some(level_b),
            _ => None,
        }
    }

    /// The agent's tournament nonce `rand`, if it carries `Tournament()`
    /// variables.
    pub fn rand(&self) -> Option<u32> {
        match self.extra {
            Extra::Rand { rand, .. } => Some(rand),
            _ => None,
        }
    }

    /// The agent's timer `count`, if it is a `V_B` agent.
    pub fn count(&self) -> Option<u32> {
        match self.extra {
            Extra::Timer { count } => Some(count),
            _ => None,
        }
    }
}

impl Default for PllState {
    fn default() -> Self {
        Self::initial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_matches_table3() {
        let s = PllState::initial();
        assert!(s.leader);
        assert_eq!(s.status, Status::X);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.init, 1);
        assert_eq!(s.color, 0);
        assert_eq!(s.extra, Extra::None);
        assert_eq!(s, PllState::default());
    }

    #[test]
    fn accessors_match_variants() {
        let t = PllState::timer(5, 2);
        assert!(t.is_b());
        assert_eq!(t.count(), Some(5));
        assert_eq!(t.level_q(), None);

        let b = PllState::backup(true, 7);
        assert!(b.is_a());
        assert_eq!(b.level_b(), Some(7));
        assert_eq!(b.rand(), None);

        let mut q = PllState::initial();
        q.extra = Extra::Quick {
            level_q: 3,
            done: false,
        };
        assert_eq!(q.level_q(), Some(3));

        let mut r = PllState::initial();
        r.extra = Extra::Rand { rand: 6, index: 2 };
        assert_eq!(r.rand(), Some(6));
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::X.to_string(), "X");
        assert_eq!(Status::A.to_string(), "A");
        assert_eq!(Status::B.to_string(), "B");
    }
}
