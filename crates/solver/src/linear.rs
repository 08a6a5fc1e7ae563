//! Linear integer arithmetic reasoning.
//!
//! Integer-sorted facts from the path condition are converted into linear
//! constraints over *atoms* (maximal non-arithmetic sub-terms, keyed by their
//! congruence-closure representative so that equalities discovered elsewhere
//! are taken into account). Infeasibility is detected by a combination of
//! bound propagation and a bounded Fourier–Motzkin-style elimination pass.
//! The procedure is sound for unsatisfiability: it only ever answers
//! "definitely contradictory" when the constraints have no integer solution.
//!
//! **Solved equalities.** An equality is not stored as a pair of rows when
//! it can be solved: `lhs - rhs` is first normalised against the current
//! substitution, and if some atom has coefficient ±1 the equality becomes a
//! definition `pivot := rest`. The pivot is the unit-coefficient atom with
//! the highest [`TermId`], so the choice is deterministic. Definitions are
//! append-only and each right-hand side is normalised against every earlier
//! one, so one in-order pass over the list substitutes every pivot. Every
//! row entering the store (asserted, from [`Linear::poly_of`], or derived)
//! is normalised first, so elimination only ever combines real
//! inequalities over the remaining atoms. An equality without a unit
//! coefficient keeps the two-row encoding.
//!
//! **Stale rows.** A new pivot leaves older rows that mention it in place
//! and appends a substituted copy of each. [`Linear::solve`] skips every
//! pair in which a row mentions a live pivot. Keeping the originals is sound
//! (they are still true), and it keeps [`Linear::undo_to`] a plain
//! truncation of the rows and the definitions.

use crate::congruence::{Congruence, TermId};
use crate::expr::{BinOp, Expr, UnOp};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A linear polynomial: constant + sum of coefficient * atom.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// Constant term.
    pub constant: i128,
    /// Coefficients keyed by atom (congruence representative).
    pub coeffs: BTreeMap<TermId, i128>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// A constant polynomial.
    pub fn constant(c: i128) -> Poly {
        Poly {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient 1.
    pub fn atom(t: TermId) -> Poly {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(t, 1);
        Poly {
            constant: 0,
            coeffs,
        }
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        out.constant += other.constant;
        for (k, v) in &other.coeffs {
            *out.coeffs.entry(*k).or_insert(0) += v;
        }
        out.normalize();
        out
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Poly) -> Poly {
        self.add(&other.scale(-1))
    }

    /// Multiplication by a constant.
    pub fn scale(&self, c: i128) -> Poly {
        let mut out = Poly {
            constant: self.constant * c,
            coeffs: self.coeffs.iter().map(|(k, v)| (*k, v * c)).collect(),
        };
        out.normalize();
        out
    }

    fn normalize(&mut self) {
        self.coeffs.retain(|_, v| *v != 0);
    }

    /// `ka·self + kb·other`, or `None` when a number overflows.
    fn combine(&self, ka: i128, other: &Poly, kb: i128) -> Option<Poly> {
        let constant = self
            .constant
            .checked_mul(ka)?
            .checked_add(other.constant.checked_mul(kb)?)?;
        let mut out = Poly::constant(constant);
        for (atom, v) in &self.coeffs {
            out.coeffs.insert(*atom, v.checked_mul(ka)?);
        }
        for (atom, v) in &other.coeffs {
            let c = out.coeffs.entry(*atom).or_insert(0);
            *c = c.checked_add(v.checked_mul(kb)?)?;
        }
        out.normalize();
        Some(out)
    }

    /// Divides out the gcd of the coefficients and the constant: the same
    /// constraint with the smallest numbers.
    fn reduce(&mut self) {
        fn gcd(a: u128, b: u128) -> u128 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g = self
            .coeffs
            .values()
            .fold(self.constant.unsigned_abs(), |g, v| {
                gcd(g, v.unsigned_abs())
            });
        let Ok(g) = i128::try_from(g) else {
            return;
        };
        if g > 1 {
            self.constant /= g;
            for v in self.coeffs.values_mut() {
                *v /= g;
            }
        }
    }

    /// Is this polynomial a constant?
    pub fn as_constant(&self) -> Option<i128> {
        if self.coeffs.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }
}

/// A constraint `poly <= 0` (non-strict; strict inequalities over integers are
/// converted with `a < b  ==>  a - b + 1 <= 0`).
#[derive(Clone, Debug)]
pub struct LeZero(pub Poly);

/// The linear-arithmetic context built from a set of literals.
///
/// Supports **incremental** use: constraints accumulate across
/// [`Linear::solve`] calls, a `frontier` marks how far pairwise elimination
/// has already been pushed (so a re-solve after a few new constraints only
/// combines pairs involving the new rows — semi-naive evaluation), and
/// [`Linear::snapshot`]/[`Linear::undo_to`] restore an earlier state in
/// O(changes). Derived rows, substituted copies and definitions carried
/// across solves are consequences of entries below them in their vectors,
/// so truncation is always sound.
#[derive(Clone, Debug, Default)]
pub struct Linear {
    constraints: Vec<LeZero>,
    contradiction: bool,
    /// Constraints below this index have been exhaustively pairwise-combined
    /// against each other by earlier [`Linear::solve`] calls.
    frontier: usize,
    /// Solved equalities `pivot := rest`, in the order they were added. No
    /// right-hand side mentions its own pivot or any earlier one.
    defs: Vec<(TermId, Poly)>,
    /// Each live pivot's index in `defs`.
    pivots: HashMap<TermId, usize>,
    /// Every [`TermId`] ever used as an atom key (conservative: entries are
    /// *not* removed on undo — stale entries can only cause a spurious
    /// staleness rebuild upstream, never unsoundness).
    atoms: BTreeSet<TermId>,
    /// The constraint store hit `MAX_CONSTRAINTS`: derivation stopped. A
    /// persistent context that keeps asserting afterwards must rebuild (see
    /// [`Linear::needs_rebuild`]) — a saturated store silently blocks the
    /// eliminations new facts would need, which a per-query rebuild never
    /// experiences.
    saturated: bool,
    /// Rows asserted after saturation (they were never combined).
    rows_since_saturation: usize,
    /// Exactly the polynomials of the live rows: every row enters through
    /// `push`, which skips duplicates, and undo drops the entries of the
    /// rows it truncates.
    seen: HashSet<Poly>,
}

/// A restore point for [`Linear::undo_to`].
#[derive(Clone, Copy, Debug)]
pub struct LinSnapshot {
    constraints_len: usize,
    defs_len: usize,
    frontier: usize,
    contradiction: bool,
    saturated: bool,
    rows_since_saturation: usize,
}

impl Linear {
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a restore point for [`Linear::undo_to`].
    pub fn snapshot(&self) -> LinSnapshot {
        LinSnapshot {
            constraints_len: self.constraints.len(),
            defs_len: self.defs.len(),
            frontier: self.frontier,
            contradiction: self.contradiction,
            saturated: self.saturated,
            rows_since_saturation: self.rows_since_saturation,
        }
    }

    /// Restores an earlier [`Linear::snapshot`]: constraints and definitions
    /// added (asserted *or* derived) since are dropped and the elimination
    /// frontier rolls back so re-solves recombine whatever needs
    /// recombining. Rows left stale by a dropped pivot are live again; they
    /// were combined before that pivot existed, or sit above the restored
    /// frontier.
    pub fn undo_to(&mut self, snap: &LinSnapshot) {
        for c in &self.constraints[snap.constraints_len.min(self.constraints.len())..] {
            self.seen.remove(&c.0);
        }
        self.constraints.truncate(snap.constraints_len);
        for (pivot, _) in &self.defs[snap.defs_len.min(self.defs.len())..] {
            self.pivots.remove(pivot);
        }
        self.defs.truncate(snap.defs_len);
        self.frontier = snap.frontier;
        self.contradiction = snap.contradiction;
        self.saturated = snap.saturated;
        self.rows_since_saturation = snap.rows_since_saturation;
    }

    /// Did rows arrive after the store saturated? They were never combined
    /// with anything, so a persistent caller must rebuild from its source
    /// facts (dropping the accumulated derived rows) to stay as complete as
    /// a per-query solve.
    pub fn needs_rebuild(&self) -> bool {
        self.saturated && self.rows_since_saturation > 0
    }

    /// Has this id ever been used as an atom key? Conservative over undo —
    /// see the field docs. The theory combiner uses this to detect
    /// congruence merges that absorb a class some constraint row
    /// references (the staleness-rebuild trigger).
    pub fn is_atom(&self, t: TermId) -> bool {
        self.atoms.contains(&t)
    }

    /// Returns `true` if the collected constraints are definitely
    /// unsatisfiable over the integers.
    pub fn contradictory(&self) -> bool {
        self.contradiction
    }

    /// Converts an integer-sorted expression into a polynomial, interning
    /// non-arithmetic sub-terms as atoms via the congruence closure.
    pub fn poly_of(&mut self, e: &Expr, cc: &mut Congruence) -> Poly {
        match e {
            Expr::Int(i) => Poly::constant(*i),
            Expr::BinOp(BinOp::Add, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                pa.add(&pb)
            }
            Expr::BinOp(BinOp::Sub, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                pa.sub(&pb)
            }
            Expr::BinOp(BinOp::Mul, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                match (pa.as_constant(), pb.as_constant()) {
                    (Some(ca), _) => pb.scale(ca),
                    (_, Some(cb)) => pa.scale(cb),
                    // Non-linear: treat the whole product as an atom.
                    _ => {
                        let rep = cc.rep_of(e);
                        self.atoms.insert(rep);
                        Poly::atom(rep)
                    }
                }
            }
            Expr::UnOp(UnOp::Neg, a) => self.poly_of(a, cc).scale(-1),
            _ => {
                let rep = cc.rep_of(e);
                self.atoms.insert(rep);
                let atom = Poly::atom(rep);
                // Sequence lengths are always non-negative; record that fact
                // whenever a length term becomes an atom.
                if matches!(e, Expr::UnOp(UnOp::SeqLen, _)) {
                    self.push(atom.scale(-1));
                }
                atom
            }
        }
    }

    /// Adds the fact `lhs <= rhs`.
    pub fn add_le(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        let pl = self.poly_of(lhs, cc);
        let pr = self.poly_of(rhs, cc);
        self.push(pl.sub(&pr));
    }

    /// Adds the fact `lhs < rhs`.
    pub fn add_lt(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        let pl = self.poly_of(lhs, cc);
        let pr = self.poly_of(rhs, cc);
        self.push(pl.sub(&pr).add(&Poly::constant(1)));
    }

    /// Adds the fact `lhs == rhs`: solved for a pivot when some atom has a
    /// unit coefficient, otherwise as two inequalities.
    pub fn add_eq(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        let pl = self.poly_of(lhs, cc);
        let pr = self.poly_of(rhs, cc);
        let Some(d) = self.normalize(pl.sub(&pr)) else {
            return;
        };
        if let Some(k) = d.as_constant() {
            if k != 0 {
                self.contradiction = true;
            }
            return;
        }
        let unit = d.coeffs.iter().rev().find(|(_, c)| c.abs() == 1);
        let Some((&pivot, &c)) = unit else {
            self.push(d.scale(-1));
            self.push(d);
            return;
        };
        // c·pivot + rest = 0, so pivot = -c·rest (c is ±1).
        let mut rest = d;
        rest.coeffs.remove(&pivot);
        self.pivots.insert(pivot, self.defs.len());
        self.defs.push((pivot, rest.scale(-c)));
        let stale: Vec<Poly> = self
            .constraints
            .iter()
            .filter(|row| row.0.coeffs.contains_key(&pivot))
            .map(|row| row.0.clone())
            .collect();
        for row in stale {
            self.push(row);
        }
    }

    /// Adds the fact that `e >= 0` (e.g. sequence lengths, sizes).
    pub fn add_nonneg(&mut self, e: &Expr, cc: &mut Congruence) {
        let p = self.poly_of(e, cc);
        self.push(p.scale(-1));
    }

    /// Substitutes every live pivot in `p` and reduces the result, or
    /// `None` when a number overflows (the caller then drops the fact,
    /// which only costs completeness). Replacing definition `i`'s pivot
    /// only brings in pivots of later definitions, so taking the earliest
    /// remaining one each time is the in-order pass.
    fn normalize(&self, mut p: Poly) -> Option<Poly> {
        while let Some(&i) = p.coeffs.keys().filter_map(|a| self.pivots.get(a)).min() {
            let (pivot, rest) = &self.defs[i];
            let c = p.coeffs.remove(pivot).unwrap_or(0);
            p = p.combine(1, rest, c)?;
        }
        p.reduce();
        Some(p)
    }

    /// Does this row mention a live pivot (so only its substituted copy
    /// takes part in elimination)?
    fn is_stale(&self, row: &Poly) -> bool {
        row.coeffs.keys().any(|a| self.pivots.contains_key(a))
    }

    /// Adds the row `p <= 0`, normalised against the substitution.
    fn push(&mut self, p: Poly) {
        let Some(p) = self.normalize(p) else {
            return;
        };
        if let Some(k) = p.as_constant() {
            if k > 0 {
                self.contradiction = true;
            }
            return;
        }
        // Sound to skip: `seen` only ever holds rows that are still live.
        if !self.seen.insert(p.clone()) {
            return;
        }
        if self.saturated {
            self.rows_since_saturation += 1;
        }
        self.constraints.push(LeZero(p));
    }

    /// Runs the decision procedure: bound propagation plus a bounded number of
    /// Fourier–Motzkin elimination rounds over the rows that mention no
    /// pivot.
    ///
    /// Semi-naive: pairs entirely below the persistent `frontier` were
    /// combined by an earlier call, so each round only pairs constraints
    /// against the rows added since (asserted or derived). On a fresh
    /// context this explores exactly the pair set the naive version did
    /// (re-derivations were discarded by the dedup anyway); on a warm
    /// context a re-solve after one new fact costs O(new × old), not
    /// O(old²).
    pub fn solve(&mut self) {
        if self.contradiction {
            return;
        }
        // Bounded elimination: repeatedly combine pairs of constraints where an
        // atom occurs with opposite signs, deriving new constraints without
        // that atom. To stay cheap we only derive combinations whose resulting
        // polynomial has at most 4 atoms, and we cap the total number of
        // constraints.
        const MAX_CONSTRAINTS: usize = 4096;
        const MAX_ROUNDS: usize = 4;
        let mut new_start = self.frontier.min(self.constraints.len());
        for _ in 0..MAX_ROUNDS {
            let n = self.constraints.len();
            if new_start >= n {
                break;
            }
            let live: Vec<bool> = self
                .constraints
                .iter()
                .map(|c| !self.is_stale(&c.0))
                .collect();
            let mut new_constraints: Vec<Poly> = Vec::new();
            for i in (0..n).filter(|&i| live[i]) {
                for j in ((i + 1).max(new_start)..n).filter(|&j| live[j]) {
                    let a = &self.constraints[i].0;
                    let b = &self.constraints[j].0;
                    // Find an atom with opposite signs.
                    let mut candidate = None;
                    for (atom, ca) in &a.coeffs {
                        if let Some(cb) = b.coeffs.get(atom) {
                            if ca.signum() != cb.signum() {
                                candidate = Some((*atom, *ca, *cb));
                                break;
                            }
                        }
                    }
                    let Some((_atom, ca, cb)) = candidate else {
                        continue;
                    };
                    // Combine: |cb| * a + |ca| * b eliminates the atom.
                    let Some(combined) = a.combine(cb.abs(), b, ca.abs()) else {
                        continue;
                    };
                    if let Some(k) = combined.as_constant() {
                        if k > 0 {
                            self.contradiction = true;
                            return;
                        }
                        continue;
                    }
                    if combined.coeffs.len() <= 4 {
                        new_constraints.push(combined);
                    }
                }
            }
            new_start = n;
            if new_constraints.is_empty() {
                break;
            }
            for c in new_constraints {
                if self.constraints.len() >= MAX_CONSTRAINTS {
                    self.saturated = true;
                    self.frontier = self.constraints.len();
                    return;
                }
                self.push(c);
            }
        }
        self.frontier = self.constraints.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    fn setup() -> (Congruence, Linear, VarGen) {
        (Congruence::new(), Linear::new(), VarGen::new())
    }

    #[test]
    fn simple_bound_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc); // x < 3
        lin.add_le(&Expr::Int(5), &x, &mut cc); // 5 <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn consistent_bounds_do_not_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        lin.add_le(&Expr::Int(0), &x, &mut cc);
        lin.solve();
        assert!(!lin.contradictory());
    }

    #[test]
    fn transitive_chain_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.add_le(&y, &x, &mut cc); // y <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn equality_plus_strict_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_eq(&x, &y, &mut cc);
        lin.add_lt(&x, &y, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn addition_reasoning() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        // x + 1 <= 0 and x >= 0 is contradictory.
        lin.add_le(&Expr::add(x.clone(), Expr::Int(1)), &Expr::Int(0), &mut cc);
        lin.add_le(&Expr::Int(0), &x, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn atoms_share_congruence_representative() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        // If x == y is known by congruence, then x < 3 and y >= 5 conflict.
        cc.assert_eq_exprs(&x, &y);
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        lin.add_le(&Expr::Int(5), &y, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn nonlinear_products_are_opaque_atoms() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let prod = Expr::mul(x.clone(), y.clone());
        lin.add_le(&prod, &Expr::Int(10), &mut cc);
        lin.add_le(&Expr::Int(20), &prod, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn uninterpreted_terms_as_atoms() {
        let (mut cc, mut lin, mut g) = setup();
        let s = g.fresh_expr();
        let len = Expr::seq_len(s);
        // len(s) < 5 and len(s) > 5 conflict.
        lin.add_lt(&len, &Expr::Int(5), &mut cc);
        lin.add_lt(&Expr::Int(5), &len, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn constant_only_conflict_detected_on_push() {
        let (mut cc, mut lin, _g) = setup();
        lin.add_lt(&Expr::Int(5), &Expr::Int(3), &mut cc);
        assert!(lin.contradictory());
    }

    #[test]
    fn incremental_resolve_after_new_fact() {
        // Solve, add one more fact, re-solve: the semi-naive frontier must
        // still find the conflict introduced by the late fact.
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&y, &x, &mut cc); // y <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn snapshot_undo_restores_consistency() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_le(&Expr::Int(0), &x, &mut cc); // 0 <= x
        lin.solve();
        let snap = lin.snapshot();
        lin.add_lt(&x, &Expr::Int(0), &mut cc); // x < 0
        lin.solve();
        assert!(lin.contradictory());
        lin.undo_to(&snap);
        assert!(!lin.contradictory());
        // The surviving bound still works with new facts.
        lin.add_lt(&x, &Expr::Int(5), &mut cc);
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&Expr::Int(7), &x, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn undo_rolls_back_derived_rows() {
        // Derived rows from an inner scope must not outlive it: after the
        // undo, facts that only conflicted via the inner fact are consistent.
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.solve();
        let snap = lin.snapshot();
        lin.add_lt(&y, &Expr::Int(0), &mut cc); // y < 0 (derives x < -1 …)
        lin.solve();
        assert!(!lin.contradictory());
        lin.undo_to(&snap);
        lin.add_le(&Expr::Int(0), &x, &mut cc); // 0 <= x — fine without y < 0
        lin.solve();
        assert!(!lin.contradictory());
    }

    #[test]
    fn atoms_are_registered() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        let rep = cc.rep_of(&x);
        assert!(lin.is_atom(rep));
    }

    #[test]
    fn equalities_become_definitions() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_eq(&x, &Expr::add(y.clone(), Expr::Int(1)), &mut cc); // x == y + 1
        assert_eq!(lin.defs.len(), 1);
        assert!(lin.constraints.is_empty());
        lin.add_lt(&x, &y, &mut cc); // x < y, i.e. y + 1 < y after substitution
        assert!(lin.contradictory());
    }

    #[test]
    fn non_unit_equalities_keep_two_rows() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let sum = Expr::add(
            Expr::mul(Expr::Int(2), x.clone()),
            Expr::mul(Expr::Int(3), y.clone()),
        );
        lin.add_eq(&sum, &Expr::Int(6), &mut cc); // 2x + 3y == 6
        assert!(lin.defs.is_empty());
        assert_eq!(lin.constraints.len(), 2);
        lin.add_le(&Expr::Int(4), &x, &mut cc); // 4 <= x
        lin.add_le(&Expr::Int(0), &y, &mut cc); // 0 <= y
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn pivot_makes_older_rows_stale() {
        // The bound on `y` predates `y`'s definition: its substituted copy
        // is what meets the bound on `x`.
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.poly_of(&x, &mut cc); // intern x first: y gets the higher id
        lin.add_le(&Expr::Int(5), &y, &mut cc); // 5 <= y
        lin.solve();
        lin.add_eq(&y, &x, &mut cc); // y == x: pivot y
        assert!(lin.is_stale(&lin.constraints[0].0));
        lin.add_lt(&x, &Expr::Int(5), &mut cc); // x < 5
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn repeated_asserted_rows_are_stored_once() {
        let (mut cc, mut lin, mut g) = setup();
        let len = Expr::seq_len(g.fresh_expr());
        for _ in 0..6 {
            lin.add_nonneg(&len, &mut cc);
        }
        assert_eq!(lin.constraints.len(), 1);
    }

    #[test]
    fn length_bound_rows_count_after_saturation() {
        // A fresh length atom after saturation brings an uncombined
        // `0 <= len` row, so a persistent caller must rebuild.
        let (mut cc, mut lin, mut g) = setup();
        lin.saturated = true;
        let len = Expr::seq_len(g.fresh_expr());
        lin.poly_of(&len, &mut cc);
        assert!(lin.needs_rebuild());
    }

    /// The linear system of an unfolded `dll_seg` in `pop_front`: a chain
    /// `len(s_i) == len(s_{i+1}) + 1` with `0 <= len` and `len <= usize::MAX`
    /// on every link. As row pairs it saturated the store; solved, it is
    /// a handful of bounds on one atom.
    fn length_chain(links: usize) -> (Congruence, Linear, Vec<Expr>) {
        let (mut cc, mut lin, mut g) = setup();
        let usize_max = Expr::Int(u64::MAX as i128);
        let lens: Vec<Expr> = (0..=links).map(|_| Expr::seq_len(g.fresh_expr())).collect();
        for w in lens.windows(2) {
            lin.add_eq(&w[0], &Expr::add(w[1].clone(), Expr::Int(1)), &mut cc);
            for len in w {
                lin.add_nonneg(len, &mut cc);
                lin.add_le(len, &usize_max, &mut cc);
            }
            lin.solve();
        }
        (cc, lin, lens)
    }

    #[test]
    fn unit_offset_length_chain_stays_small() {
        let (mut cc, mut lin, lens) = length_chain(10);
        assert!(!lin.contradictory());
        assert!(!lin.saturated);
        assert!(
            lin.constraints.len() < 256,
            "{} rows",
            lin.constraints.len()
        );
        lin.add_lt(&lens[0], &Expr::Int(0), &mut cc); // len(head) < 0
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn undo_across_a_pivot_keeps_the_chain() {
        let (mut cc, mut lin, mut lens) = length_chain(8);
        let head = lens[0].clone();
        let snap = lin.snapshot();
        let defs = lin.defs.len();
        let last = lens.pop().unwrap();
        let next = Expr::seq_len(Expr::lvar("past_the_end"));
        lin.add_eq(&last, &Expr::add(next, Expr::Int(1)), &mut cc);
        assert_eq!(lin.defs.len(), defs + 1, "the new link must create a pivot");
        lin.solve();
        lin.add_lt(&head, &Expr::Int(9), &mut cc); // 9 links need len(head) >= 9
        lin.solve();
        assert!(lin.contradictory());
        lin.undo_to(&snap);
        assert!(!lin.contradictory());
        assert_eq!(lin.defs.len(), defs);
        lin.add_lt(&head, &Expr::Int(9), &mut cc); // fine with 8 links
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_lt(&head, &Expr::Int(8), &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    /// A tiny deterministic linear congruential generator (the one
    /// `tests/solver_differential.rs` uses).
    struct Lcg(u64);

    impl Lcg {
        fn new(seed: u64) -> Lcg {
            Lcg(seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493))
        }

        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        /// A value in `lo..=hi`.
        fn range(&mut self, lo: i128, hi: i128) -> i128 {
            lo + self.below((hi - lo + 1) as u64) as i128
        }
    }

    /// `coeffs · x + constant REL 0`.
    #[derive(Clone, Debug)]
    struct Fact {
        coeffs: Vec<i128>,
        constant: i128,
        rel: BinOp,
    }

    impl Fact {
        fn random(g: &mut Lcg, atoms: usize) -> Fact {
            let rel = [BinOp::Le, BinOp::Lt, BinOp::Eq][g.below(3) as usize];
            // One equality in three has only even coefficients, so no unit
            // pivot: the two-row encoding.
            let even = rel == BinOp::Eq && g.below(3) == 0;
            // Half the coefficients are zero, so rows stay sparse enough
            // for elimination to settle in a few rounds.
            let coeffs = (0..atoms)
                .map(|_| match (g.below(2), even) {
                    (0, _) => 0,
                    (_, true) => 2 * [-1, 1][g.below(2) as usize],
                    (_, false) => [-2, -1, 1, 2][g.below(4) as usize],
                })
                .collect();
            Fact {
                coeffs,
                constant: g.range(-4, 4),
                rel,
            }
        }

        fn assert_into(&self, vars: &[Expr], lin: &mut Linear, cc: &mut Congruence) {
            let mut lhs = Expr::Int(self.constant);
            for (c, x) in self.coeffs.iter().zip(vars) {
                if *c != 0 {
                    lhs = Expr::add(lhs, Expr::mul(Expr::Int(*c), x.clone()));
                }
            }
            let zero = Expr::Int(0);
            match self.rel {
                BinOp::Le => lin.add_le(&lhs, &zero, cc),
                BinOp::Lt => lin.add_lt(&lhs, &zero, cc),
                _ => lin.add_eq(&lhs, &zero, cc),
            }
        }

        fn holds(&self, model: &[i128]) -> bool {
            let v: i128 = self.constant
                + self
                    .coeffs
                    .iter()
                    .zip(model)
                    .map(|(c, m)| c * m)
                    .sum::<i128>();
            match self.rel {
                BinOp::Le => v <= 0,
                BinOp::Lt => v < 0,
                _ => v == 0,
            }
        }
    }

    /// An integer model of `facts` in `[-6, 6]^atoms`, if there is one.
    fn small_model(facts: &[Fact], atoms: usize) -> Option<Vec<i128>> {
        let mut model = vec![-6i128; atoms];
        loop {
            if facts.iter().all(|f| f.holds(&model)) {
                return Some(model);
            }
            let mut i = 0;
            while i < atoms && model[i] == 6 {
                model[i] = -6;
                i += 1;
            }
            if i == atoms {
                return None;
            }
            model[i] += 1;
        }
    }

    #[test]
    fn refutations_are_sound_on_random_systems() {
        // Random systems over 3–4 atoms with equalities (unit and
        // non-unit) and strict and non-strict inequalities, with
        // snapshots and undos interleaved: a refuted state must have no
        // small integer model. At most three facts are live at once: four
        // dense inequalities already drive the bounded elimination to its
        // row cap, which costs seconds per seed.
        for seed in 0..300u64 {
            let mut g = Lcg::new(seed);
            let (mut cc, mut lin, mut vg) = setup();
            let atoms = 3 + g.below(2) as usize;
            let vars: Vec<Expr> = (0..atoms).map(|_| vg.fresh_expr()).collect();
            let mut facts: Vec<Fact> = Vec::new();
            let mut scopes: Vec<(LinSnapshot, usize)> = Vec::new();
            for _ in 0..12 {
                match g.below(6) {
                    0 => scopes.push((lin.snapshot(), facts.len())),
                    1 => {
                        if let Some((snap, n)) = scopes.pop() {
                            lin.undo_to(&snap);
                            facts.truncate(n);
                        }
                    }
                    _ if facts.len() < 3 => {
                        let f = Fact::random(&mut g, atoms);
                        f.assert_into(&vars, &mut lin, &mut cc);
                        facts.push(f);
                    }
                    _ => {}
                }
                lin.solve();
                if lin.contradictory() {
                    if let Some(m) = small_model(&facts, atoms) {
                        panic!("seed {seed}: refuted {facts:?}, but {m:?} is a model");
                    }
                }
            }
        }
    }

    #[test]
    fn scale_and_add_polys() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let p = lin.poly_of(&Expr::mul(Expr::Int(3), x.clone()), &mut cc);
        let q = lin.poly_of(&x, &mut cc);
        let sum = p.add(&q.scale(-3));
        assert_eq!(sum.as_constant(), Some(0));
    }
}
