//! The DFS decision stack driving systematic interleaving exploration.
//!
//! Every nondeterministic choice in one model execution — which thread
//! runs next, which (possibly stale) value a weak-memory load observes —
//! consumes one [`Branch`] from this stack. The first execution takes
//! choice 0 everywhere and records each branch's arity; subsequent
//! executions *replay* the recorded prefix, then
//! [`Decisions::advance`] bumps the deepest non-exhausted branch and
//! pops exhausted ones, enumerating the schedule tree depth-first
//! (loom-style stateless model checking: the program itself is re-run,
//! nothing is snapshotted).

/// One recorded choice point: `chosen` of `total` alternatives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Branch {
    /// Number of alternatives that existed at this point.
    pub total: u32,
    /// Alternative taken in the current execution.
    pub chosen: u32,
}

/// Replayable stack of choice points (see module docs).
#[derive(Debug, Default)]
pub struct Decisions {
    stack: Vec<Branch>,
    /// Next stack slot the running execution will consume.
    pos: usize,
}

impl Decisions {
    /// An empty stack (first execution takes choice 0 everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds for a fresh execution; the recorded stack is replayed.
    pub fn begin(&mut self) {
        self.pos = 0;
    }

    /// Consumes the next choice point with `total ≥ 2` alternatives.
    /// Returns the chosen index, or `Err((expected, got))` when the
    /// replayed arity does not match the recorded one — which means the
    /// execution was not deterministic and the exploration is invalid.
    pub fn next(&mut self, total: usize) -> Result<usize, (usize, usize)> {
        debug_assert!(total >= 2, "singleton choices must not branch");
        if let Some(b) = self.stack.get(self.pos) {
            if b.total as usize != total {
                return Err((b.total as usize, total));
            }
            self.pos += 1;
            Ok(b.chosen as usize)
        } else {
            self.stack.push(Branch {
                total: total as u32,
                chosen: 0,
            });
            self.pos += 1;
            Ok(0)
        }
    }

    /// Choice points consumed by the current execution.
    pub fn depth(&self) -> usize {
        self.pos
    }

    /// Moves to the next unexplored path: truncates to what the last
    /// execution actually consumed (aborted/pruned runs stop early),
    /// then increments the deepest non-exhausted branch. Returns `false`
    /// when the whole tree has been explored.
    pub fn advance(&mut self) -> bool {
        self.stack.truncate(self.pos);
        while let Some(last) = self.stack.last_mut() {
            if last.chosen + 1 < last.total {
                last.chosen += 1;
                return true;
            }
            self.stack.pop();
        }
        false
    }

    /// Clears everything (new module).
    pub fn reset(&mut self) {
        self.stack.clear();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks a fixed-shape tree, returning every path as a vector of
    /// chosen indices.
    fn enumerate(shape: &[usize]) -> Vec<Vec<usize>> {
        let mut d = Decisions::new();
        let mut paths = Vec::new();
        loop {
            d.begin();
            let mut path = Vec::new();
            for &total in shape {
                match d.next(total) {
                    Ok(c) => path.push(c),
                    #[allow(
                        clippy::unreachable,
                        reason = "test helper: the shape is fixed, so replay cannot diverge"
                    )]
                    Err(_) => unreachable!("fixed shape cannot diverge"),
                }
            }
            paths.push(path);
            if !d.advance() {
                return paths;
            }
        }
    }

    #[test]
    fn enumerates_full_cartesian_product() {
        let paths = enumerate(&[2, 3]);
        assert_eq!(paths.len(), 6);
        assert_eq!(paths.first(), Some(&vec![0, 0]));
        assert_eq!(paths.last(), Some(&vec![1, 2]));
        // All distinct.
        let mut uniq = paths.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), paths.len());
    }

    #[test]
    fn depth_dependent_trees_terminate() {
        // The arity of later choices may depend on earlier ones (as
        // thread counts shrink when threads finish). Model that: first
        // choice of 2; path 0 has a further choice of 2, path 1 none.
        let mut d = Decisions::new();
        let mut paths = Vec::new();
        loop {
            d.begin();
            let mut path = Vec::new();
            let c = d.next(2).unwrap();
            path.push(c);
            if c == 0 {
                path.push(d.next(2).unwrap());
            }
            paths.push(path);
            if !d.advance() {
                break;
            }
        }
        assert_eq!(paths, vec![vec![0, 0], vec![0, 1], vec![1]]);
    }

    #[test]
    fn replay_divergence_is_reported() {
        let mut d = Decisions::new();
        d.begin();
        assert_eq!(d.next(3), Ok(0));
        assert!(d.advance());
        d.begin();
        // Same point now (incorrectly) claims 2 alternatives.
        assert_eq!(d.next(2), Err((3, 2)));
    }

    #[test]
    fn aborted_paths_truncate_cleanly() {
        let mut d = Decisions::new();
        d.begin();
        assert_eq!(d.next(2), Ok(0));
        assert_eq!(d.next(2), Ok(0));
        assert!(d.advance());
        d.begin();
        // This execution aborts after one choice; the stale deeper
        // branch must not leak into the next path.
        assert_eq!(d.next(2), Ok(0));
        assert!(d.advance());
        d.begin();
        // The abandoned subtree was dropped: the shallow branch itself
        // advances to its second alternative, and exploring it to
        // completion exhausts the tree.
        assert_eq!(d.next(2), Ok(1));
        assert!(!d.advance());
    }
}
