//! Step accumulator for validity certificates.
//!
//! The validator threads a [`CertBuilder`] through `check_plan`: every
//! rule application (U1 view instantiation, U2 match/restrict/compose,
//! U3 expansion, C3 probe, dependent join) pushes a [`Step`] and gets
//! back its index, which later steps cite as premises. The builder also
//! remembers which step justified each directly-marked DAG class and
//! which step backs each view root, so a DAG-propagation acceptance can
//! name its supporting premises via [`Marking`] provenance.
//!
//! When disabled (`CheckOptions::emit_certificates == false`) every
//! method is a no-op and `push` returns a dummy index, so the validator
//! logic stays branch-free.

use fgac_analyze::Step;
use fgac_optimizer::{Dag, EqId, Marking};

pub(crate) struct CertBuilder {
    enabled: bool,
    steps: Vec<Step>,
    /// Directly-marked DAG classes (U3 cores, matcher hits) and the
    /// step that justified each. Looked up through `dag.find` so later
    /// merges don't orphan the provenance.
    class_steps: Vec<(EqId, usize)>,
    /// Step index backing each view root, in `mark_valid` root order.
    root_steps: Vec<usize>,
}

impl CertBuilder {
    pub fn new(enabled: bool) -> Self {
        CertBuilder {
            enabled,
            steps: Vec::new(),
            class_steps: Vec::new(),
            root_steps: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a step and returns its index (0 when disabled).
    pub fn push(&mut self, step: Step) -> usize {
        if !self.enabled {
            return 0;
        }
        self.steps.push(step);
        self.steps.len() - 1
    }

    /// Appends a step backing the next view root (root order must match
    /// the root list handed to `mark_valid`).
    pub fn push_root(&mut self, step: Step) -> usize {
        let idx = self.push(step);
        self.root_steps.push(idx);
        idx
    }

    /// Records that `class` was directly marked valid because of `step`.
    pub fn note_class(&mut self, dag: &Dag, class: EqId, step: usize) {
        if self.enabled {
            self.class_steps.push((dag.find(class), step));
        }
    }

    fn step_for_class(&self, dag: &Dag, class: EqId) -> Option<usize> {
        let canon = dag.find(class);
        self.class_steps
            .iter()
            .rev()
            .find(|&&(c, _)| dag.find(c) == canon)
            .map(|&(_, s)| s)
    }

    /// Premise steps supporting `class`'s validity: the view roots and
    /// directly-marked classes the marking's provenance reaches.
    pub fn supports(&self, dag: &Dag, marking: &Marking, class: EqId) -> Vec<usize> {
        if !self.enabled {
            return Vec::new();
        }
        let mut out: Vec<usize> = marking
            .supporting_roots(dag, class)
            .into_iter()
            .filter_map(|i| self.root_steps.get(i).copied())
            .collect();
        for c in marking.supporting_marks(dag, class) {
            if let Some(s) = self.step_for_class(dag, c) {
                out.push(s);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Consumes the builder, yielding the steps the goal (the last step)
    /// rests on, transitively through premises, in their order and with
    /// their premises renumbered. A view root or a probe the derivation
    /// never cites proves nothing about the query; kept, it would be
    /// stored with every cached accept and re-verified on every
    /// revalidation.
    pub fn take(self) -> Vec<Step> {
        let mut steps = self.steps;
        let n = steps.len();
        // Every premise is an index `push` returned before its step was
        // built, so it precedes that step: one backward pass marks them.
        let mut keep = vec![false; n];
        if let Some(goal) = keep.last_mut() {
            *goal = true;
        }
        for i in (0..n).rev() {
            if keep[i] {
                for &p in &steps[i].premises {
                    keep[p] = true;
                }
            }
        }
        let mut renumbered = Vec::with_capacity(n);
        let mut kept = 0;
        for &k in &keep {
            renumbered.push(kept);
            kept += usize::from(k);
        }
        let mut k = keep.iter();
        steps.retain(|_| k.next().copied().unwrap_or(false));
        for s in &mut steps {
            for p in &mut s.premises {
                *p = renumbered[*p];
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_analyze::RuleId;
    use fgac_types::Ident;

    fn step(rule: RuleId, view: &str, premises: Vec<usize>) -> Step {
        Step {
            view: Some(Ident::new(view)),
            premises,
            ..Step::new(rule)
        }
    }

    #[test]
    fn take_keeps_only_the_steps_the_goal_rests_on() {
        let mut b = CertBuilder::new(true);
        for v in ["a", "b", "c", "d"] {
            b.push_root(step(RuleId::U1, v, vec![]));
        }
        b.push(step(RuleId::U2Match, "m", vec![3]));
        b.push(step(RuleId::C3a, "goal", vec![4, 1]));
        let kept: Vec<(String, Vec<usize>)> = b
            .take()
            .into_iter()
            .map(|s| {
                (
                    s.view.map(|v| v.to_string()).unwrap_or_default(),
                    s.premises,
                )
            })
            .collect();
        let want = [
            ("b", vec![]),
            ("d", vec![]),
            ("m", vec![1]),
            ("goal", vec![2, 0]),
        ];
        assert_eq!(
            kept,
            want.map(|(v, p)| (v.to_string(), p)).to_vec(),
            "uncited roots a and c go; premises follow their steps"
        );
    }
}
