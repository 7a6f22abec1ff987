//! Path and statement shapes: what an update *can* touch, by label.
//!
//! A [`PathShape`] abstracts a target `LocationPath` to three label
//! sets — the labels its result nodes can carry (`finals`), a superset
//! of their proper-ancestor labels (`ancestors`) and of their direct
//! parents (`parents`) — plus a `dead` flag when the path provably
//! selects nothing in any DTD-conforming document (wrong root label,
//! child step outside the parent's content model, descendant step to
//! an unreachable label, a predicate that can never hold, a step below
//! an attribute or text node).
//!
//! A [`StatementShape`] lifts that to a whole `UpdateStatement`: the
//! labels it can create and destroy, the labels whose string value may
//! change, and the insertion-point / deletion-target sets the
//! Figure 15 independence rules compare. All sets are conservative
//! *supersets* for conforming documents; `Labels::Any` marks the
//! honest "could be anything" cases (wildcards without a schema,
//! unparseable forests, `insert q1 into q2` copies).

use crate::labels::Labels;
use crate::schema::SchemaInfo;
use std::collections::BTreeSet;
use xivm_algebra::Axis;
use xivm_pattern::xpath::{LocationPath, XNodeTest, XPred, XStep};
use xivm_update::UpdateStatement;

/// Label abstraction of one location path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathShape {
    /// The path provably selects nothing in any conforming document.
    pub dead: bool,
    /// Labels the selected nodes can carry.
    pub finals: Labels,
    /// Superset of the selected nodes' proper-ancestor labels.
    pub ancestors: Labels,
    /// Superset of the selected nodes' direct-parent labels.
    pub parents: Labels,
}

impl PathShape {
    fn dead_shape() -> PathShape {
        PathShape {
            dead: true,
            finals: Labels::none(),
            ancestors: Labels::none(),
            parents: Labels::none(),
        }
    }

    /// Walks `path` (an absolute path, evaluated from the document
    /// node) through the schema, if one is given.
    pub fn of(schema: Option<&SchemaInfo>, path: &LocationPath) -> PathShape {
        let Some(first) = path.steps.first() else {
            // An empty location path selects nothing (`eval_path`
            // returns no context).
            return PathShape::dead_shape();
        };
        let Some(mut st) = first_step(schema, first) else {
            return PathShape::dead_shape();
        };
        if !preds_may_hold(schema, &st, &first.preds) {
            return PathShape::dead_shape();
        }
        for step in &path.steps[1..] {
            match next_step(schema, &st, step) {
                Some(next) if preds_may_hold(schema, &next, &step.preds) => st = next,
                _ => return PathShape::dead_shape(),
            }
        }
        PathShape { dead: false, finals: st.cur, ancestors: st.anc, parents: st.parent }
    }
}

/// Walker state after some prefix of steps.
#[derive(Debug, Clone)]
struct WalkState {
    cur: Labels,
    anc: Labels,
    parent: Labels,
}

/// Feasible labels of a node reached from context labels `cur` over
/// `axis` with label test `test` (`None` = wildcard: any *element*).
/// Attribute (`@…`) and text (`#…`) labels are never constrained by
/// the schema (the grammar speaks about elements only). An empty
/// result set means the step is dead.
pub(crate) fn reachable_targets(
    schema: Option<&SchemaInfo>,
    cur: &Labels,
    axis: Axis,
    test: Option<&str>,
) -> Labels {
    if cur.is_none() || cur.all_leaf_kinds() {
        // Attributes and text nodes have neither children nor
        // descendants.
        return Labels::none();
    }
    match test {
        Some(l) if l.starts_with('@') || l.starts_with('#') => Labels::one(l),
        Some(n) => match schema {
            None => Labels::one(n),
            Some(s) => {
                if !s.is_satisfiable(n) {
                    return Labels::none();
                }
                let ok = match (axis, cur.as_set()) {
                    (Axis::Child, Some(set)) => set.iter().any(|p| s.children_of(p).contains(n)),
                    (Axis::Child, None) => !s.possible_parents(n).is_empty(),
                    (Axis::Descendant, Some(set)) => {
                        set.iter().any(|p| s.strict_descendants(p).contains(n))
                    }
                    (Axis::Descendant, None) => !s.possible_ancestors(n).is_empty(),
                };
                if ok {
                    Labels::one(n)
                } else {
                    Labels::none()
                }
            }
        },
        None => match schema {
            None => Labels::Any,
            Some(s) => match axis {
                Axis::Child => s.children_of_set(cur),
                Axis::Descendant => s.strict_descendants_of_set(cur),
            },
        },
    }
}

/// Feasible labels of a *first* step, taken from the document node:
/// the child axis reaches only the root element, the descendant axis
/// any node of the document.
pub(crate) fn root_targets(schema: Option<&SchemaInfo>, axis: Axis, test: Option<&str>) -> Labels {
    match test {
        Some(l) if l.starts_with('@') || l.starts_with('#') => match axis {
            // The document node's only child is the root element.
            Axis::Child => Labels::none(),
            Axis::Descendant => Labels::one(l),
        },
        Some(n) => match schema {
            None => Labels::one(n),
            Some(s) => {
                let ok = match axis {
                    Axis::Child => s.start() == n && s.is_satisfiable(n),
                    Axis::Descendant => s.occurs_in_documents(n),
                };
                if ok {
                    Labels::one(n)
                } else {
                    Labels::none()
                }
            }
        },
        None => match schema {
            None => Labels::Any,
            Some(s) => match axis {
                Axis::Child => {
                    if s.is_satisfiable(s.start()) {
                        Labels::one(s.start().to_owned())
                    } else {
                        Labels::none()
                    }
                }
                Axis::Descendant => Labels::Set(s.descendants_or_self(s.start())),
            },
        },
    }
}

fn test_label(test: &XNodeTest) -> Option<String> {
    match test {
        XNodeTest::Name(n) => Some(n.clone()),
        XNodeTest::Attribute(a) => Some(format!("@{a}")),
        XNodeTest::Text => Some(xivm_xml::TEXT_LABEL.to_owned()),
        XNodeTest::Wildcard | XNodeTest::SelfNode => None,
    }
}

fn first_step(schema: Option<&SchemaInfo>, step: &XStep) -> Option<WalkState> {
    // `//.` matches attributes and text too, whose labels a schema
    // cannot enumerate; `/.` is just the root element.
    let cur = if matches!(step.test, XNodeTest::SelfNode) && step.axis == Axis::Descendant {
        Labels::Any
    } else {
        root_targets(schema, step.axis, test_label(&step.test).as_deref())
    };
    if cur.is_none() {
        return None;
    }
    let (anc, parent) = match step.axis {
        // The root element has no element ancestors.
        Axis::Child => (Labels::none(), Labels::none()),
        Axis::Descendant => match schema {
            None => (Labels::Any, Labels::Any),
            Some(s) => match &step.test {
                XNodeTest::Name(n) => {
                    (Labels::Set(s.possible_ancestors(n)), Labels::Set(s.possible_parents(n)))
                }
                // Owners of attributes / text / arbitrary nodes: any
                // element of the document.
                _ => {
                    let all = Labels::Set(s.descendants_or_self(s.start()));
                    (all.clone(), all)
                }
            },
        },
    };
    Some(WalkState { cur, anc, parent })
}

fn next_step(schema: Option<&SchemaInfo>, st: &WalkState, step: &XStep) -> Option<WalkState> {
    if matches!(step.test, XNodeTest::SelfNode) {
        // `.` passes the context through unchanged regardless of axis.
        return Some(st.clone());
    }
    let cur = reachable_targets(schema, &st.cur, step.axis, test_label(&step.test).as_deref());
    if cur.is_none() {
        return None;
    }
    let (anc, parent) = match step.axis {
        Axis::Child => {
            // The parent is the context node itself; with a schema and
            // a name test we can narrow it to the viable parents.
            let parent = match (schema, &step.test) {
                (Some(s), XNodeTest::Name(n)) => {
                    Labels::Set(s.possible_parents(n)).intersection(&st.cur)
                }
                _ => st.cur.clone(),
            };
            (st.anc.clone().union(&parent), parent)
        }
        Axis::Descendant => match schema {
            None => (Labels::Any, Labels::Any),
            Some(s) => {
                // Labels at or strictly below the context nodes — the
                // scope every ancestor of the new node (other than the
                // context's own ancestors) must come from.
                let scope = st.cur.clone().union(&s.strict_descendants_of_set(&st.cur));
                match &step.test {
                    XNodeTest::Name(n) => (
                        st.anc
                            .clone()
                            .union(&Labels::Set(s.possible_ancestors(n)).intersection(&scope)),
                        Labels::Set(s.possible_parents(n)).intersection(&scope),
                    ),
                    _ => (st.anc.clone().union(&scope), scope),
                }
            }
        },
    };
    Some(WalkState { cur, anc, parent })
}

/// Could every predicate in `preds` hold for some node in some
/// conforming document? `false` means a predicate is *definitely*
/// false — its path can match nothing — so the step selects nothing.
fn preds_may_hold(schema: Option<&SchemaInfo>, st: &WalkState, preds: &[XPred]) -> bool {
    preds.iter().all(|p| pred_may_hold(schema, st, p))
}

fn pred_may_hold(schema: Option<&SchemaInfo>, st: &WalkState, pred: &XPred) -> bool {
    match pred {
        XPred::Exists(path) | XPred::ValEq(path, _) => walk_relative(schema, st, path).is_some(),
        XPred::And(a, b) => pred_may_hold(schema, st, a) && pred_may_hold(schema, st, b),
        XPred::Or(a, b) => pred_may_hold(schema, st, a) || pred_may_hold(schema, st, b),
    }
}

fn walk_relative(
    schema: Option<&SchemaInfo>,
    st: &WalkState,
    path: &LocationPath,
) -> Option<WalkState> {
    let mut cur = st.clone();
    for step in &path.steps {
        cur = next_step(schema, &cur, step)?;
        if !preds_may_hold(schema, &cur, &step.preds) {
            return None;
        }
    }
    Some(cur)
}

/// Label abstraction of one update statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementShape {
    /// The statement provably does nothing in any conforming document
    /// (dead target path, or an `insert q1 into q2` whose source is
    /// dead).
    pub dead: bool,
    /// Labels of nodes the statement can create (inserted forests,
    /// including their `@…` attribute labels).
    pub creates: Labels,
    /// Labels of nodes the statement can destroy (deletion targets
    /// plus everything reachable inside their subtrees).
    pub destroys: Labels,
    /// Labels of *surviving* nodes whose string value / serialized
    /// content may change: the targets and their ancestors.
    pub touch_scope: Labels,
    /// Labels of the nodes content is inserted *into* (Figure 15's
    /// `InsertInto` targets).
    pub ins_finals: Labels,
    /// Superset of the insertion points' proper-ancestor labels.
    pub ins_ancestors: Labels,
    /// Labels of the nodes a deletion removes (subtree roots only).
    pub del_finals: Labels,
}

impl StatementShape {
    fn dead_shape() -> StatementShape {
        StatementShape {
            dead: true,
            creates: Labels::none(),
            destroys: Labels::none(),
            touch_scope: Labels::none(),
            ins_finals: Labels::none(),
            ins_ancestors: Labels::none(),
            del_finals: Labels::none(),
        }
    }

    /// Abstracts `stmt` against the schema, if one is given.
    pub fn of(schema: Option<&SchemaInfo>, stmt: &UpdateStatement) -> StatementShape {
        let target = PathShape::of(schema, stmt.target());
        if target.dead {
            return StatementShape::dead_shape();
        }
        let touch_scope = target.finals.clone().union(&target.ancestors);
        match stmt {
            UpdateStatement::Insert { xml, .. } => StatementShape {
                dead: false,
                creates: forest_labels(xml),
                destroys: Labels::none(),
                touch_scope,
                ins_finals: target.finals,
                ins_ancestors: target.ancestors,
                del_finals: Labels::none(),
            },
            UpdateStatement::InsertFrom { source, .. } => {
                let src = PathShape::of(schema, source);
                if src.dead {
                    // Nothing to copy: the statement is a no-op.
                    return StatementShape::dead_shape();
                }
                StatementShape {
                    dead: false,
                    // The copied subtrees can contain any label below
                    // the source — including attributes the schema
                    // cannot enumerate — so stay honest.
                    creates: Labels::Any,
                    destroys: Labels::none(),
                    touch_scope,
                    ins_finals: target.finals,
                    ins_ancestors: target.ancestors,
                    del_finals: Labels::none(),
                }
            }
            UpdateStatement::Delete { .. } => StatementShape {
                dead: false,
                creates: Labels::none(),
                destroys: destroy_closure(schema, &target.finals),
                touch_scope,
                ins_finals: Labels::none(),
                ins_ancestors: Labels::none(),
                del_finals: target.finals,
            },
            UpdateStatement::Replace { xml, .. } => StatementShape {
                dead: false,
                creates: forest_labels(xml),
                destroys: destroy_closure(schema, &target.finals),
                touch_scope,
                // The forest is inserted under the target's parent;
                // the parent's own proper ancestors are a subset of
                // the target's.
                ins_finals: target.parents,
                ins_ancestors: target.ancestors,
                del_finals: target.finals,
            },
        }
    }
}

/// Everything a deletion rooted at a `finals`-labeled node can remove:
/// the roots themselves plus — via the schema's reachability — every
/// element label their subtrees can contain. Attribute / text targets
/// have no subtree; without a schema an element subtree can contain
/// anything.
fn destroy_closure(schema: Option<&SchemaInfo>, finals: &Labels) -> Labels {
    let Some(set) = finals.as_set() else { return Labels::Any };
    if finals.all_leaf_kinds() {
        return finals.clone();
    }
    match schema {
        None => Labels::Any,
        Some(s) => {
            let mut out: BTreeSet<String> = set.clone();
            for l in set {
                if !(l.starts_with('@') || l.starts_with('#')) {
                    out.extend(s.strict_descendants(l));
                }
            }
            Labels::Set(out)
        }
    }
}

/// Labels of an XML forest: its element and attribute labels, read by
/// the parser `apply_pul` uses without building a document (text nodes
/// affect only the enclosing string values, which `touch_scope`
/// covers). `Any` when the forest does not parse — the runtime will
/// reject it anyway, but the verdict must stay sound.
fn forest_labels(xml: &str) -> Labels {
    xivm_xml::parser::forest_labels(xml).map_or(Labels::Any, Labels::Set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xivm_dtd::grammar::figure_5a;
    use xivm_pattern::xpath::parse_xpath;

    fn schema() -> SchemaInfo {
        SchemaInfo::from_dtd(&figure_5a()).unwrap()
    }

    fn shape(s: Option<&SchemaInfo>, path: &str) -> PathShape {
        PathShape::of(s, &parse_xpath(path).unwrap())
    }

    #[test]
    fn anchored_paths_respect_the_content_model() {
        let s = schema();
        assert!(!shape(Some(&s), "/d1/a/b").dead);
        assert!(shape(Some(&s), "/a").dead, "the root must be d1");
        assert!(shape(Some(&s), "/d1/b").dead, "b is not a child of d1");
        assert!(shape(Some(&s), "/d1/a/b/c/b").dead, "c is a leaf");
    }

    #[test]
    fn descendant_paths_use_reachability() {
        let s = schema();
        let c = shape(Some(&s), "//c");
        assert!(!c.dead);
        assert_eq!(c.finals, Labels::one("c"));
        assert_eq!(
            c.ancestors,
            Labels::from_iter(["a".to_owned(), "b".to_owned(), "d1".to_owned()])
        );
        assert_eq!(c.parents, Labels::one("b"));
        assert!(shape(Some(&s), "//zzz").dead);
        assert!(shape(Some(&s), "//c//b").dead, "nothing below c");
    }

    #[test]
    fn intermediate_descendant_steps_narrow_parents() {
        let s = schema();
        let b = shape(Some(&s), "/d1//b");
        assert!(!b.dead);
        assert_eq!(b.parents, Labels::one("a"));
        assert_eq!(b.ancestors, Labels::from_iter(["a".to_owned(), "d1".to_owned()]));
    }

    #[test]
    fn schemaless_paths_stay_alive_but_widen() {
        let x = shape(None, "/x/y");
        assert!(!x.dead);
        assert_eq!(x.finals, Labels::one("y"));
        assert_eq!(x.parents, Labels::one("x"));
        assert_eq!(x.ancestors, Labels::one("x"));
        let y = shape(None, "//y");
        assert_eq!(y.ancestors, Labels::Any);
    }

    #[test]
    fn attribute_and_text_steps_are_leaves() {
        let at = shape(None, "//person/@id");
        assert_eq!(at.finals, Labels::one("@id"));
        assert_eq!(at.parents, Labels::one("person"));
        assert!(shape(None, "//person/@id/x").dead, "attributes have no children");
        assert!(shape(None, "//person/text()//x").dead);
        assert!(shape(None, "/@id").dead, "the document node has no attributes");
    }

    #[test]
    fn dead_predicates_kill_the_path() {
        let s = schema();
        assert!(shape(Some(&s), "/d1/a[zzz]").dead, "a has no zzz child");
        assert!(!shape(Some(&s), "/d1/a[b]").dead);
        assert!(!shape(Some(&s), "/d1/a[zzz or b]").dead, "or: one side may hold");
        assert!(shape(Some(&s), "/d1/a[zzz and b]").dead, "and: one side is dead");
        assert!(!shape(Some(&s), "/d1/a[b = \"v\"]").dead);
        assert!(shape(Some(&s), "/d1/a[zzz = \"v\"]").dead);
    }

    #[test]
    fn delete_shapes_close_over_the_subtree() {
        let s = schema();
        let del = StatementShape::of(Some(&s), &UpdateStatement::delete("//a").unwrap());
        assert!(!del.dead);
        assert_eq!(
            del.destroys,
            Labels::from_iter(["a".to_owned(), "b".to_owned(), "c".to_owned()])
        );
        assert_eq!(del.del_finals, Labels::one("a"));
        assert!(del.creates.is_none());
        assert_eq!(del.touch_scope, Labels::from_iter(["a".to_owned(), "d1".to_owned()]));
        // Without a schema the subtree contents are unknown…
        let del = StatementShape::of(None, &UpdateStatement::delete("//a").unwrap());
        assert!(del.destroys.is_any());
        // …except for attribute targets, which have no subtree.
        let del = StatementShape::of(None, &UpdateStatement::delete("//a/@id").unwrap());
        assert_eq!(del.destroys, Labels::one("@id"));
    }

    #[test]
    fn insert_shapes_scan_the_forest() {
        let s = schema();
        let ins = StatementShape::of(
            Some(&s),
            &UpdateStatement::insert("//b", "<c at=\"1\"><d/></c>").unwrap(),
        );
        assert!(!ins.dead);
        assert_eq!(
            ins.creates,
            Labels::from_iter(["@at".to_owned(), "c".to_owned(), "d".to_owned()])
        );
        assert!(ins.destroys.is_none());
        assert_eq!(ins.ins_finals, Labels::one("b"));
        let dead =
            StatementShape::of(Some(&s), &UpdateStatement::insert("/d1/zzz", "<c/>").unwrap());
        assert!(dead.dead);
    }

    #[test]
    fn replace_inserts_under_the_parent() {
        let s = schema();
        let rep =
            StatementShape::of(Some(&s), &UpdateStatement::replace("//b", "<b><c/></b>").unwrap());
        assert!(!rep.dead);
        assert_eq!(rep.ins_finals, Labels::one("a"), "content lands under b's parent");
        assert_eq!(rep.del_finals, Labels::one("b"));
        assert_eq!(rep.destroys, Labels::from_iter(["b".to_owned(), "c".to_owned()]));
    }

    #[test]
    fn insert_from_dead_source_is_a_noop() {
        let s = schema();
        let st = UpdateStatement::insert_from("//zzz", "//a").unwrap();
        assert!(StatementShape::of(Some(&s), &st).dead);
        let st = UpdateStatement::insert_from("//c", "//a").unwrap();
        let sh = StatementShape::of(Some(&s), &st);
        assert!(!sh.dead);
        assert!(sh.creates.is_any(), "copied subtrees are unconstrained");
    }
}
