//! Explain mode: rule-derivation trees for consolidation runs.
//!
//! When [`crate::Options::explain`] is set, the Ω engine records one
//! [`ExplainEntry`] per committed rule — which rule fired at which recursion
//! depth, on what program fragment, and which entailment questions
//! (`Ψ ⊨ φ`) were asked since the previous commit, i.e. the questions that
//! *justified* this rule choice over its alternatives. The flat entry list
//! is reassembled into a derivation tree ([`ExplainNode`]) whose shape
//! mirrors the recursive structure of Figure 8: each rule's children are the
//! sub-consolidations its conclusion contains.
//!
//! Two renderings are provided: [`ExplainReport::render_text`] for humans
//! (indented, one rule per line, entailments as `⊨`-prefixed sub-lines) and
//! [`ExplainReport::to_json`] for tools. Degradation truncation points are
//! visible as `DepthFallback` / `BudgetFallback` leaves: everything below
//! them was emitted verbatim, not consolidated.

use udf_lang::ast::ProgId;
use udf_obs::write_json_string;

/// How one entailment question `Ψ ⊨ φ` was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EntailmentVia {
    /// Syntactic mode: `φ` was (or was not) literally a conjunct of `Ψ`.
    Syntactic,
    /// Served from the per-pair validity cache.
    Cache,
    /// Served from the shared cross-pair [`crate::memo::EntailmentMemo`].
    Memo,
    /// Refuted by evaluation: a countermodel kept from an earlier solver
    /// call makes `Ψ` true and `φ` false (always "not proved").
    Countermodel,
    /// Decided by an SMT solver call.
    Solver,
    /// The consolidation budget was exhausted; answered "not proved"
    /// without consulting the solver (sound, possibly incomplete).
    BudgetExhausted,
}

impl EntailmentVia {
    /// Stable lowercase name used in text and JSON renderings.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EntailmentVia::Syntactic => "syntactic",
            EntailmentVia::Cache => "cache",
            EntailmentVia::Memo => "memo",
            EntailmentVia::Countermodel => "countermodel",
            EntailmentVia::Solver => "solver",
            EntailmentVia::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// One entailment question asked while deciding a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct EntailmentEvent {
    /// The queried formula `φ`, printed over SSA-versioned variables.
    pub query: String,
    /// Whether `Ψ ⊨ φ` was proved.
    pub proved: bool,
    /// Which mechanism produced the answer.
    pub via: EntailmentVia,
}

/// One committed rule application, as recorded by the engine (flat form).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ExplainEntry {
    /// Ω recursion depth at which the rule committed.
    pub depth: usize,
    /// Rule name (`"Assign"`, `"If4"`, `"Loop2"`, `"BudgetFallback"`, …).
    pub rule: &'static str,
    /// Human-readable fragment the rule applied to (guard, assignment, …).
    pub detail: String,
    /// Entailment questions asked since the previous committed rule — the
    /// justification for choosing this rule.
    pub entailments: Vec<EntailmentEvent>,
}

/// A node of the reassembled derivation tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ExplainNode {
    /// Rule name.
    pub rule: &'static str,
    /// Fragment the rule applied to.
    pub detail: String,
    /// Justifying entailment questions.
    pub entailments: Vec<EntailmentEvent>,
    /// Sub-derivations performed inside this rule's conclusion.
    pub children: Vec<ExplainNode>,
}

/// Derivation of one program pair `Π_left ⊗ Π_right`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PairExplain {
    /// Id of the first program of the pair.
    pub left: ProgId,
    /// Id of the second program of the pair.
    pub right: ProgId,
    /// Top-level derivation steps, in commit order.
    pub roots: Vec<ExplainNode>,
}

/// Full explain output of a consolidation run (one entry per engine pair;
/// `consolidate_many` concatenates the pairs of its reduction tree in
/// level order, whatever order they finished in).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExplainReport {
    /// Per-pair derivations.
    pub(crate) pairs: Vec<PairExplain>,
}

/// Rebuilds the derivation tree from the engine's flat, pre-order entry
/// list: an entry becomes a child of the nearest preceding entry with a
/// strictly smaller depth.
pub(crate) fn build_tree(entries: Vec<ExplainEntry>) -> Vec<ExplainNode> {
    let mut roots: Vec<ExplainNode> = Vec::new();
    let mut stack: Vec<(usize, ExplainNode)> = Vec::new();
    for e in entries {
        let node = ExplainNode {
            rule: e.rule,
            detail: e.detail,
            entailments: e.entailments,
            children: Vec::new(),
        };
        while stack.last().is_some_and(|&(d, _)| d >= e.depth) {
            if let Some((_, done)) = stack.pop() {
                attach(&mut roots, &mut stack, done);
            }
        }
        stack.push((e.depth, node));
    }
    while let Some((_, done)) = stack.pop() {
        attach(&mut roots, &mut stack, done);
    }
    roots
}

fn attach(roots: &mut Vec<ExplainNode>, stack: &mut [(usize, ExplainNode)], node: ExplainNode) {
    match stack.last_mut() {
        Some((_, parent)) => parent.children.push(node),
        None => roots.push(node),
    }
}

impl ExplainReport {
    /// A report covering a single pair, from the engine's flat trace.
    pub(crate) fn single(left: ProgId, right: ProgId, entries: Vec<ExplainEntry>) -> ExplainReport {
        ExplainReport {
            pairs: vec![PairExplain {
                left,
                right,
                roots: build_tree(entries),
            }],
        }
    }

    /// Names of every rule appearing anywhere in the report (sorted, deduped).
    pub fn rules_fired(&self) -> Vec<&'static str> {
        let mut out = std::collections::BTreeSet::new();
        fn walk(n: &ExplainNode, out: &mut std::collections::BTreeSet<&'static str>) {
            out.insert(n.rule);
            for c in &n.children {
                walk(c, out);
            }
        }
        for p in &self.pairs {
            for r in &p.roots {
                walk(r, &mut out);
            }
        }
        out.into_iter().collect()
    }

    /// Human-readable indented rendering of the full derivation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for p in &self.pairs {
            out.push_str(&format!("pair {} (x) {}\n", p.left, p.right));
            for r in &p.roots {
                render_node(r, 1, &mut out);
            }
        }
        out
    }

    /// Machine-readable JSON rendering (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"pairs\":[");
        for (i, p) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"left\":{},\"right\":{},\"derivation\":[",
                p.left.0, p.right.0
            ));
            for (j, r) in p.roots.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                node_json(r, &mut out);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn render_node(n: &ExplainNode, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push_str(n.rule);
    if !n.detail.is_empty() {
        out.push_str("  ");
        out.push_str(&n.detail);
    }
    out.push('\n');
    for e in &n.entailments {
        out.push_str(&pad);
        out.push_str("  |= ");
        out.push_str(&e.query);
        out.push_str(if e.proved {
            "  [proved, "
        } else {
            "  [not proved, "
        });
        out.push_str(e.via.name());
        out.push_str("]\n");
    }
    for c in &n.children {
        render_node(c, indent + 1, out);
    }
}

fn node_json(n: &ExplainNode, out: &mut String) {
    out.push_str("{\"rule\":");
    write_json_string(out, n.rule);
    out.push_str(",\"detail\":");
    write_json_string(out, &n.detail);
    out.push_str(",\"entailments\":[");
    for (i, e) in n.entailments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"query\":");
        write_json_string(out, &e.query);
        out.push_str(",\"proved\":");
        out.push_str(if e.proved { "true" } else { "false" });
        out.push_str(",\"via\":\"");
        out.push_str(e.via.name());
        out.push_str("\"}");
    }
    out.push_str("],\"children\":[");
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node_json(c, out);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(depth: usize, rule: &'static str) -> ExplainEntry {
        ExplainEntry {
            depth,
            rule,
            detail: String::new(),
            entailments: Vec::new(),
        }
    }

    #[test]
    fn tree_nests_by_depth() {
        let roots = build_tree(vec![
            entry(0, "Seq"),
            entry(1, "Assign"),
            entry(2, "If4"),
            entry(2, "Step"),
            entry(1, "Skip"),
        ]);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].rule, "Seq");
        assert_eq!(roots[0].children.len(), 2);
        assert_eq!(roots[0].children[0].rule, "Assign");
        assert_eq!(roots[0].children[0].children.len(), 2);
        assert_eq!(roots[0].children[1].rule, "Skip");
    }

    #[test]
    fn equal_depths_are_siblings() {
        let roots = build_tree(vec![entry(3, "Assign"), entry(3, "Step")]);
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn render_text_names_rules_and_entailments() {
        let mut e = entry(0, "If1");
        e.detail = "price < 200".to_owned();
        e.entailments.push(EntailmentEvent {
            query: "(<= 200 price@0)".to_owned(),
            proved: true,
            via: EntailmentVia::Solver,
        });
        let report = ExplainReport::single(ProgId(1), ProgId(2), vec![e]);
        let text = report.render_text();
        assert!(text.contains("pair"));
        assert!(text.contains("If1"));
        assert!(text.contains("price < 200"));
        assert!(text.contains("[proved, solver]"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let mut e = entry(0, "Assign");
        e.detail = "x := \"quote\"".to_owned();
        let report = ExplainReport::single(ProgId(7), ProgId(8), vec![e]);
        let json = report.to_json();
        assert!(json.starts_with("{\"pairs\":["));
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("\"left\":7"));
        assert!(json.contains("\"children\":[]"));
    }
}
