//! The budget interval over which one MCG run replays exactly.
//!
//! With one budget `B` for every group, the MCG greedy reads `B` only
//! through comparisons against values it has computed itself: a set cost
//! (`cost > B`, the skip rule) or a group's accumulated cost
//! (`group_cost >= B`, exhaustion; `group_cost > B`, the `H₂` test). Every
//! other step depends on the outcomes of those comparisons alone. So a run
//! at any `B'` for which each comparison the run at `B` *made* comes out
//! the same takes the same branches, in the same order, and returns the
//! same picks: the runs are identical. [`BudgetWindow`] is that set of
//! `B'` — an interval, because each comparison bounds `B'` from one side.
//! [`crate::solve_scg`] uses it to skip candidate budgets that would only
//! replay the run before them.

use crate::cost::Cost;

/// The interval of budgets `B'` that reproduce every budget comparison
/// recorded so far. Each bound is `(value, strict)`; `None` is unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BudgetWindow<C> {
    lo: Option<(C, bool)>,
    hi: Option<(C, bool)>,
}

impl<C: Cost> BudgetWindow<C> {
    /// The window before any comparison: every budget.
    pub fn unbounded() -> Self {
        BudgetWindow { lo: None, hi: None }
    }

    /// Evaluates `x > b` and narrows the window to the budgets giving the
    /// same outcome: `B' < x` when true, `B' >= x` when false.
    pub fn gt(&mut self, x: &C, b: &C) -> bool {
        let out = x > b;
        if out {
            self.lower_hi(x, true);
        } else {
            self.raise_lo(x, false);
        }
        out
    }

    /// Evaluates `x >= b` and narrows the window to the budgets giving the
    /// same outcome: `B' <= x` when true, `B' > x` when false.
    pub fn ge(&mut self, x: &C, b: &C) -> bool {
        let out = x >= b;
        if out {
            self.lower_hi(x, false);
        } else {
            self.raise_lo(x, true);
        }
        out
    }

    /// Whether a run at budget `b` would make every recorded comparison
    /// come out the same.
    pub fn contains(&self, b: &C) -> bool {
        let above_lo = match &self.lo {
            None => true,
            Some((v, strict)) => b > v || (!*strict && b == v),
        };
        let below_hi = match &self.hi {
            None => true,
            Some((v, strict)) => b < v || (!*strict && b == v),
        };
        above_lo && below_hi
    }

    /// Narrows to the budgets inside both windows.
    pub fn intersect(&mut self, other: &BudgetWindow<C>) {
        if let Some((v, strict)) = &other.lo {
            self.raise_lo(v, *strict);
        }
        if let Some((v, strict)) = &other.hi {
            self.lower_hi(v, *strict);
        }
    }

    fn raise_lo(&mut self, v: &C, strict: bool) {
        let tighter = match &self.lo {
            None => true,
            Some((lo, lo_strict)) => v > lo || (v == lo && strict && !*lo_strict),
        };
        if tighter {
            self.lo = Some((v.clone(), strict));
        }
    }

    fn lower_hi(&mut self, v: &C, strict: bool) {
        let tighter = match &self.hi {
            None => true,
            Some((hi, hi_strict)) => v < hi || (v == hi && strict && !*hi_strict),
        };
        if tighter {
            self.hi = Some((v.clone(), strict));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt_edges() {
        // `5 > 5` is false: B' = 5 keeps the outcome, B' = 6 keeps it,
        // B' = 4 flips it (`5 > 4`).
        let mut w = BudgetWindow::<u64>::unbounded();
        assert!(!w.gt(&5, &5));
        assert!(w.contains(&5));
        assert!(w.contains(&6));
        assert!(!w.contains(&4));
        // `5 > 4` is true: B' = 4 keeps it, B' = 5 flips it.
        let mut w = BudgetWindow::<u64>::unbounded();
        assert!(w.gt(&5, &4));
        assert!(w.contains(&4));
        assert!(!w.contains(&5));
    }

    #[test]
    fn ge_edges() {
        // `5 >= 5` is true: B' = 5 keeps it, B' = 6 flips it.
        let mut w = BudgetWindow::<u64>::unbounded();
        assert!(w.ge(&5, &5));
        assert!(w.contains(&5));
        assert!(w.contains(&0));
        assert!(!w.contains(&6));
        // `5 >= 6` is false: B' = 6 keeps it, B' = 5 flips it.
        let mut w = BudgetWindow::<u64>::unbounded();
        assert!(!w.ge(&5, &6));
        assert!(w.contains(&6));
        assert!(!w.contains(&5));
    }

    /// Over every small comparison, the window holds exactly the budgets
    /// that reproduce all recorded outcomes.
    #[test]
    fn window_is_exactly_the_replaying_budgets() {
        let comparisons: [(bool, u64); 4] = [(true, 3), (false, 7), (false, 5), (true, 9)];
        for b in 0..12u64 {
            let mut w = BudgetWindow::unbounded();
            for &(strict_gt, x) in &comparisons {
                if strict_gt {
                    w.gt(&x, &b);
                } else {
                    w.ge(&x, &b);
                }
            }
            for b2 in 0..12u64 {
                let same = comparisons.iter().all(|&(strict_gt, x)| {
                    if strict_gt {
                        (x > b) == (x > b2)
                    } else {
                        (x >= b) == (x >= b2)
                    }
                });
                assert_eq!(w.contains(&b2), same, "B = {b}, B' = {b2}");
            }
        }
    }

    #[test]
    fn intersect_keeps_the_tighter_bounds() {
        let mut a = BudgetWindow::<u64>::unbounded();
        a.ge(&2, &4); // B' > 2
        a.gt(&9, &4); // B' < 9
        let mut b = BudgetWindow::<u64>::unbounded();
        b.gt(&3, &4); // B' >= 3
        b.ge(&9, &4); // B' <= 9
        a.intersect(&b);
        assert!(!a.contains(&2));
        assert!(a.contains(&3));
        assert!(a.contains(&8));
        assert!(!a.contains(&9));
    }
}
