//! The hand-written expected verdicts every run is checked against.
//!
//! Three classes: a `must_fail` target that is proved is a soundness bug
//! and stops the benchmark outright; a `must_prove` target left unproved is
//! a failed operation; an `open` target (a known gap, see EXPERIMENTS.md)
//! accepts either verdict.
//!
//! The spec variants below are swapped in by the daemon and cache
//! workloads. Their verdicts are worked out by hand from the Pearlite
//! clauses, not recorded from a run.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    MustProve,
    MustFail,
    Open,
}

impl Expect {
    pub fn label(self) -> &'static str {
        match self {
            Expect::MustProve => "must_prove",
            Expect::MustFail => "must_fail",
            Expect::Open => "open",
        }
    }

    pub fn of(proved: bool) -> Expect {
        if proved {
            Expect::MustProve
        } else {
            Expect::MustFail
        }
    }
}

use Expect::{MustFail as F, MustProve as P, Open as O};

/// `(session name, mode, target, class)` for the shipped specifications.
const TABLE: &[(&str, &str, &str, Expect)] = &[
    ("EvenInt", "TS", "new_2", P),
    ("EvenInt", "TS", "new_3", P),
    ("EvenInt", "TS", "add_two", P),
    ("EvenInt", "FC", "new_2", P),
    ("EvenInt", "FC", "new_3", P),
    ("EvenInt", "FC", "add_two", P),
    ("LP", "TS", "new", P),
    ("LP", "TS", "set_both", P),
    ("LP", "FC", "new", P),
    ("LP", "FC", "set_both", P),
    ("LinkedList", "TS", "new", P),
    ("LinkedList", "TS", "push_front", P),
    ("LinkedList", "TS", "pop_front", P),
    ("LinkedList", "FC", "new", P),
    ("LinkedList", "FC", "push_front", P),
    ("LinkedList", "FC", "pop_front", P),
    ("MiniVec", "TS", "new", P),
    ("MiniVec", "TS", "with_capacity", P),
    ("MiniVec", "TS", "push", O),
    ("MiniVec", "TS", "pop", P),
    ("MiniVec", "FC", "new", P),
    ("MiniVec", "FC", "with_capacity", P),
    ("MiniVec", "FC", "push", O),
    ("MiniVec", "FC", "pop", O),
    // The Fig. 7 Pearlite specs elaborated by the session builder.
    ("LinkedList (hybrid)", "FC", "new", P),
    ("LinkedList (hybrid)", "FC", "push_front", P),
    ("LinkedList (hybrid)", "FC", "pop_front", P),
    // The two known-false mutants of tests/end_to_end.rs.
    ("LinkedList (broken invariant)", "FC", "push_front", F),
    ("LinkedList (missing requires)", "FC", "push_front", F),
    // The daemon's chain demo under its shipped specs.
    ("Chain", "FC", "base", P),
    ("Chain", "FC", "inc", P),
    ("Chain", "FC", "inc2", P),
];

/// The class of a target under the shipped specifications. A target
/// missing from the table is a bug in the benchmark, not in the program.
pub fn expect(session: &str, mode: &str, target: &str) -> Expect {
    TABLE
        .iter()
        .find(|(s, m, t, _)| *s == session && *m == mode && *t == target)
        .map(|e| e.3)
        .unwrap_or_else(|| panic!("no expected verdict for {session} {mode} {target}"))
}

/// A replacement specification, in the daemon's Pearlite surface syntax.
pub struct Variant {
    pub func: &'static str,
    pub requires: &'static [&'static str],
    pub ensures: &'static [&'static str],
    /// Whether `func` itself verifies against it.
    pub proves: bool,
}

/// `base(x) = x`.
pub const BASE: [Variant; 3] = [
    Variant {
        func: "base",
        requires: &[],
        ensures: &["result@ == x@"],
        proves: true,
    },
    Variant {
        func: "base",
        requires: &["x@ < 10"],
        ensures: &["result@ == x@"],
        proves: true,
    },
    Variant {
        func: "base",
        requires: &[],
        ensures: &["result@ == x@ + 1"],
        proves: false,
    },
];

/// `inc(x) = x + 1`; index 0 is the shipped spec.
pub const INC: [Variant; 4] = [
    Variant {
        func: "inc",
        requires: &["x@ < 1000"],
        ensures: &["result@ == x@ + 1"],
        proves: true,
    },
    Variant {
        func: "inc",
        requires: &["x@ < 2000"],
        ensures: &["result@ == x@ + 1"],
        proves: true,
    },
    Variant {
        func: "inc",
        requires: &["x@ < 500"],
        ensures: &["result@ == x@ + 1"],
        proves: true,
    },
    Variant {
        func: "inc",
        requires: &["x@ < 1000"],
        ensures: &["result@ == x@ + 2"],
        proves: false,
    },
];

/// `inc2(x) = inc(inc(x))`, proved against `inc`'s spec; index 0 is the
/// shipped spec. Its own `proves` field is unused: see [`INC2_PROVES`].
pub const INC2: [Variant; 4] = [
    Variant {
        func: "inc2",
        requires: &["x@ < 900"],
        ensures: &["result@ == x@ + 2"],
        proves: true,
    },
    Variant {
        func: "inc2",
        requires: &["x@ < 999"],
        ensures: &["result@ == x@ + 2"],
        proves: true,
    },
    Variant {
        func: "inc2",
        requires: &["x@ < 1000"],
        ensures: &["result@ == x@ + 2"],
        proves: false,
    },
    Variant {
        func: "inc2",
        requires: &["x@ < 900"],
        ensures: &["result@ == x@ + 4"],
        proves: false,
    },
];

/// `INC2_PROVES[i][j]`: does `inc2` under `INC2[j]` verify when `inc` has
/// spec `INC[i]`? With `inc: x < r ⇒ result = x + d` and
/// `inc2: x < s ⇒ result = x + e`, it does iff `s <= r` (first call),
/// `s - 1 + d < r` (second call) and `2d = e`.
pub const INC2_PROVES: [[bool; 4]; 4] = [
    // r = 1000, d = 1
    [true, true, false, false],
    // r = 2000, d = 1
    [true, true, true, false],
    // r = 500, d = 1: the first call's precondition already fails
    [false, false, false, false],
    // r = 1000, d = 2: only `result = x + 4` matches, and 899 + 2 < 1000
    [false, false, false, true],
];

/// `EvenInt::add_two`; index 0 is the shipped spec. Without an upper
/// bound, the `i32` addition can overflow.
pub const ADD_TWO: [Variant; 5] = [
    Variant {
        func: "add_two",
        requires: &["(*self)@ <= 2147483645"],
        ensures: &["(^self)@ == (*self)@ + 2"],
        proves: true,
    },
    Variant {
        func: "add_two",
        requires: &["(*self)@ <= 1000"],
        ensures: &["(^self)@ == (*self)@ + 2"],
        proves: true,
    },
    Variant {
        func: "add_two",
        requires: &["(*self)@ <= 100"],
        ensures: &["(^self)@ == (*self)@ + 2"],
        proves: true,
    },
    Variant {
        func: "add_two",
        requires: &["(*self)@ <= 2147483645"],
        ensures: &["(^self)@ == (*self)@ + 4"],
        proves: false,
    },
    Variant {
        func: "add_two",
        requires: &[],
        ensures: &["(^self)@ == (*self)@ + 2"],
        proves: false,
    },
];

/// The "missing requires" mutant of tests/end_to_end.rs: without
/// `len < usize::MAX` the length increment of `push_front` can overflow.
pub const PUSH_FRONT_NO_REQUIRES: Variant = Variant {
    func: "push_front",
    requires: &[],
    ensures: &["Seq::singleton(elt@).concat((*self)@) == (^self)@"],
    proves: false,
};

/// Tally of checked verdicts.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    /// Verdicts checked.
    pub checked: u64,
    /// `must_prove` and `open` verdicts checked.
    pub provable: u64,
    /// Of those, the ones proved.
    pub proved: u64,
    /// `must_prove` targets left unproved.
    pub unproved: u64,
    /// `must_fail` targets proved (soundness bugs).
    pub unsound: u64,
}

impl Tally {
    /// Records one verdict; returns `false` when it breaks its class.
    pub fn check(&mut self, class: Expect, proved: bool) -> bool {
        self.checked += 1;
        match class {
            Expect::MustFail => {
                if proved {
                    self.unsound += 1;
                }
                !proved
            }
            Expect::MustProve | Expect::Open => {
                self.provable += 1;
                self.proved += proved as u64;
                if class == Expect::MustProve && !proved {
                    self.unproved += 1;
                    return false;
                }
                true
            }
        }
    }

    pub fn proved_frac(&self) -> f64 {
        crate::stats::ratio(self.proved as f64, self.provable as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc2_table_follows_its_rule() {
        let inc = [(1000, 1), (2000, 1), (500, 1), (1000, 2)];
        let inc2 = [(900, 2), (999, 2), (1000, 2), (900, 4)];
        for (i, &(r, d)) in inc.iter().enumerate() {
            for (j, &(s, e)) in inc2.iter().enumerate() {
                let rule = s <= r && s - 1 + d < r && 2 * d == e;
                assert_eq!(INC2_PROVES[i][j], rule, "inc {i} inc2 {j}");
            }
        }
    }

    #[test]
    fn proved_must_fail_is_flagged() {
        let mut t = Tally::default();
        assert!(!t.check(Expect::MustFail, true));
        assert!(t.check(Expect::Open, false));
        assert_eq!((t.unsound, t.provable, t.proved), (1, 1, 0));
    }
}
