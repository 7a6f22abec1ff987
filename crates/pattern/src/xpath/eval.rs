//! XPath evaluation over the document store.
//!
//! This is the component that plays Saxon's role in the paper's
//! implementation: locating the *target nodes* of updates ("Find
//! Target Nodes" in the Section 6 time breakdowns) and supporting the
//! full-recomputation baseline.
//!
//! A path is first *resolved* against the document — every name test
//! becomes a [`LabelId`] (a name the interner never saw matches
//! nothing), once per evaluation — so the per-candidate work is
//! integer comparisons. A step whose predicates contain `[@a = "c"]`
//! as a top-level conjunct asks the document's attribute-value index
//! for its candidates instead of scanning the context's children or
//! descendants: the owners of the hits, filtered by the node test and
//! by the context. That is sound because the index only *narrows* —
//! every candidate still has to pass every predicate of the step, the
//! one that keyed the lookup included. Predicates are existential, so
//! they are decided by a depth-first search that stops at the first
//! witness and builds no node list at all.

use super::ast::{LocationPath, XNodeTest, XPred, XStep};
use xivm_algebra::Axis;
use xivm_xml::label::attribute_label;
use xivm_xml::{Document, LabelId, NodeId, NodeKind};

/// A node test with its name looked up (`None`: in no document node).
#[derive(Clone, Copy)]
enum Test {
    Labeled(NodeKind, Option<LabelId>),
    Element,
    Text,
    SelfNode,
}

struct Step<'a> {
    axis: Axis,
    test: Test,
    preds: Vec<Pred<'a>>,
    /// `(@a, "c")` of a top-level conjunct `[@a = "c"]`, if any.
    key: Option<(Option<LabelId>, &'a str)>,
}

enum Pred<'a> {
    Exists(Vec<Step<'a>>),
    ValEq(Vec<Step<'a>>, &'a str),
    All(Vec<Pred<'a>>),
    Any(Vec<Pred<'a>>),
}

fn resolve<'a>(doc: &Document, path: &'a LocationPath) -> Vec<Step<'a>> {
    let attribute = |name: &str| doc.label_id(&attribute_label(name));
    let step = |s: &'a XStep| Step {
        axis: s.axis,
        test: match &s.test {
            XNodeTest::Name(n) => Test::Labeled(NodeKind::Element, doc.label_id(n)),
            XNodeTest::Attribute(a) => Test::Labeled(NodeKind::Attribute, attribute(a)),
            XNodeTest::Wildcard => Test::Element,
            XNodeTest::Text => Test::Text,
            XNodeTest::SelfNode => Test::SelfNode,
        },
        preds: s.preds.iter().map(|p| resolve_pred(doc, p)).collect(),
        key: s.preds.iter().find_map(index_key).map(|(a, c)| (attribute(a), c)),
    };
    path.steps.iter().map(step).collect()
}

fn resolve_pred<'a>(doc: &Document, pred: &'a XPred) -> Pred<'a> {
    let pair = |a, b| vec![resolve_pred(doc, a), resolve_pred(doc, b)];
    match pred {
        XPred::Exists(path) => Pred::Exists(resolve(doc, path)),
        XPred::ValEq(path, c) => Pred::ValEq(resolve(doc, path), c),
        XPred::And(a, b) => Pred::All(pair(a, b)),
        XPred::Or(a, b) => Pred::Any(pair(a, b)),
    }
}

/// The `(a, c)` of an `[@a = "c"]` the predicate *implies*: the
/// predicate itself or a conjunct of it, never a branch of an `or`.
fn index_key(pred: &XPred) -> Option<(&str, &str)> {
    match pred {
        XPred::ValEq(path, c) => match path.steps.as_slice() {
            [XStep { axis: Axis::Child, test: XNodeTest::Attribute(a), preds }]
                if preds.is_empty() =>
            {
                Some((a, c))
            }
            _ => None,
        },
        XPred::And(a, b) => index_key(a).or_else(|| index_key(b)),
        _ => None,
    }
}

/// Evaluates an absolute location path against a document, returning
/// matching nodes in document order without duplicates.
pub fn eval_path(doc: &Document, path: &LocationPath) -> Vec<NodeId> {
    eval_steps(doc, None, &resolve(doc, path))
}

/// Evaluates a relative path from a single context node.
pub fn eval_relative(doc: &Document, ctx: NodeId, path: &LocationPath) -> Vec<NodeId> {
    eval_steps(doc, Some(vec![ctx]), &resolve(doc, path))
}

/// Walks `steps` from `context` (document-ordered and duplicate-free;
/// `None`: the document node).
fn eval_steps(doc: &Document, mut context: Option<Vec<NodeId>>, steps: &[Step]) -> Vec<NodeId> {
    // Can the context hold a node together with one of its descendants?
    // Only after a `//` step — the one case where a step's output is
    // not in document order by construction.
    let mut nested = false;
    for step in steps {
        if context.as_ref().is_some_and(|c| c.is_empty()) {
            break;
        }
        context = Some(eval_step(doc, context.as_deref(), nested, step));
        nested |= step.axis == Axis::Descendant;
    }
    context.unwrap_or_default()
}

/// One step from `context` (`None`: the document node): the nodes that
/// pass the axis and the node test, from the value index or a scan,
/// then every predicate, then — only where the order does not follow
/// from the construction — a sort.
fn eval_step(doc: &Document, context: Option<&[NodeId]>, nested: bool, step: &Step) -> Vec<NodeId> {
    let indexed = index_candidates(doc, context, step);
    let unordered = nested || indexed.is_some();
    let mut out = indexed.unwrap_or_else(|| scan_candidates(doc, context, step));
    out.retain(|&n| step.preds.iter().all(|p| holds(doc, n, p)));
    if unordered && out.len() > 1 {
        out.sort_by(|&a, &b| doc.doc_cmp(a, b));
        out.dedup();
    }
    out
}

/// The nodes the step's axis and node test reach from the context.
fn scan_candidates(doc: &Document, context: Option<&[NodeId]>, step: &Step) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut take = |n: NodeId| {
        if matches(doc, n, step.test) {
            out.push(n);
        }
        false
    };
    match (context, step.axis, step.test) {
        (Some(context), _, Test::SelfNode) => return context.to_vec(),
        (Some(context), Axis::Child, _) => {
            context.iter().flat_map(|&c| doc.children_of(c)).for_each(|&c| _ = take(c))
        }
        (Some(context), Axis::Descendant, _) => {
            context.iter().for_each(|&c| _ = any_descendant(doc, c, &mut take))
        }
        // `/x` from the document node: the root element if it matches.
        (None, Axis::Child, _) => doc.root().into_iter().for_each(|r| _ = take(r)),
        // `//x` from the document node: the canonical relation is the
        // answer — where structural identifiers pay off for target
        // finding.
        (None, Axis::Descendant, Test::Labeled(_, label)) => {
            return label.map_or(Vec::new(), |l| doc.canonical_nodes(l).to_vec())
        }
        (None, Axis::Descendant, _) => {
            doc.root().into_iter().for_each(|r| _ = take(r) || any_descendant(doc, r, &mut take))
        }
    }
    out
}

/// The step's candidates by value-index lookup, in no particular
/// order, or `None` when the step has no `[@a = "c"]` to key one on (or
/// scanning the context's children is the cheaper way). Every result
/// passes the node test and the axis from the context; the predicates
/// and the order are the caller's.
fn index_candidates(
    doc: &Document,
    context: Option<&[NodeId]>,
    step: &Step,
) -> Option<Vec<NodeId>> {
    let (label, value) = step.key?;
    if matches!(step.test, Test::SelfNode) {
        return None;
    }
    // An attribute name the document never saw: nothing can match.
    let Some(label) = label else { return Some(Vec::new()) };
    let hits = doc.attributes_with_value(label, value);
    if let (Axis::Child, Some(context)) = (step.axis, context) {
        // Fewer children to scan than hits to check: scan.
        let mut children = 0;
        if context.iter().all(|&c| {
            children += doc.children_of(c).len();
            children < hits.len()
        }) {
            return None;
        }
    }
    let within = |n: NodeId| match context {
        None => step.axis == Axis::Descendant || doc.parent_of(n).is_none(),
        Some(context) => {
            let listed = |a: NodeId| context.binary_search_by(|&c| doc.doc_cmp(c, a)).is_ok();
            let mut up = std::iter::successors(doc.parent_of(n), |&a| doc.parent_of(a));
            match step.axis {
                Axis::Child => up.next().is_some_and(listed),
                Axis::Descendant => up.any(listed),
            }
        }
    };
    let owners = hits.into_iter().filter_map(|a| doc.parent_of(a));
    Some(owners.filter(|&n| matches(doc, n, step.test) && within(n)).collect())
}

/// Calls `f` on the proper descendants of `node` in document order
/// until it returns true; was there such a node?
fn any_descendant(doc: &Document, node: NodeId, f: &mut dyn FnMut(NodeId) -> bool) -> bool {
    doc.children_of(node).iter().any(|&c| f(c) || any_descendant(doc, c, f))
}

fn matches(doc: &Document, node: NodeId, test: Test) -> bool {
    let n = doc.node(node);
    match test {
        Test::Labeled(kind, label) => label == Some(n.label) && n.kind == kind,
        Test::Element => n.kind == NodeKind::Element,
        Test::Text => n.kind == NodeKind::Text,
        Test::SelfNode => true,
    }
}

fn holds(doc: &Document, node: NodeId, pred: &Pred) -> bool {
    match pred {
        Pred::Exists(path) => reaches(doc, node, path, &|_| true),
        Pred::ValEq(path, c) => reaches(doc, node, path, &|n| {
            let found = doc.node(n);
            match found.kind {
                NodeKind::Element => doc.value(n) == *c,
                _ => found.text.as_deref().unwrap_or("") == *c,
            }
        }),
        Pred::All(preds) => preds.iter().all(|p| holds(doc, node, p)),
        Pred::Any(preds) => preds.iter().any(|p| holds(doc, node, p)),
    }
}

/// Does `steps` lead from `node` to a node that `accept`s? Depth
/// first, first witness wins: no node list is built.
fn reaches(doc: &Document, node: NodeId, steps: &[Step], accept: &dyn Fn(NodeId) -> bool) -> bool {
    let Some((step, rest)) = steps.split_first() else { return accept(node) };
    let mut on = |n: NodeId| {
        matches(doc, n, step.test)
            && step.preds.iter().all(|p| holds(doc, n, p))
            && reaches(doc, n, rest, accept)
    };
    match (step.test, step.axis) {
        (Test::SelfNode, _) => on(node),
        (_, Axis::Child) => doc.children_of(node).iter().any(|&c| on(c)),
        (_, Axis::Descendant) => any_descendant(doc, node, &mut on),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parser::parse_xpath;
    use xivm_xml::parse_document;

    /// The evaluator this module had before the value index, kept as
    /// the reference the indexed one is tested against: label *names*
    /// compared per candidate, every step a scan, every step's output
    /// sorted and deduplicated by Dewey ID.
    fn eval_path_scan(doc: &Document, path: &LocationPath) -> Vec<NodeId> {
        let Some(root) = doc.root() else { return Vec::new() };
        let (first, rest) = path.steps.split_first().expect("paths have steps");
        let mut context = match first.axis {
            Axis::Child => vec![root],
            Axis::Descendant => doc.descendants_or_self(root),
        };
        context.retain(|&n| scan_test(doc, n, &first.test) && scan_preds(doc, n, &first.preds));
        scan_steps(doc, context, rest)
    }

    fn scan_steps(doc: &Document, mut context: Vec<NodeId>, steps: &[XStep]) -> Vec<NodeId> {
        for step in steps {
            let mut out: Vec<NodeId> = Vec::new();
            for &ctx in &context {
                match (&step.test, step.axis) {
                    (XNodeTest::SelfNode, _) => out.push(ctx),
                    (_, Axis::Child) => out.extend(doc.children_of(ctx)),
                    (_, Axis::Descendant) => out.extend(&doc.descendants_or_self(ctx)[1..]),
                }
            }
            out.retain(|&n| scan_test(doc, n, &step.test));
            let mut keyed: Vec<_> = out.into_iter().map(|n| (doc.dewey(n), n)).collect();
            keyed.sort_by(|a, b| a.0.doc_cmp(&b.0));
            keyed.dedup_by(|a, b| a.1 == b.1);
            context = keyed.into_iter().map(|(_, n)| n).collect();
            context.retain(|&n| scan_preds(doc, n, &step.preds));
        }
        context
    }

    fn scan_test(doc: &Document, node: NodeId, test: &XNodeTest) -> bool {
        let n = doc.node(node);
        match test {
            XNodeTest::Name(name) => n.kind == NodeKind::Element && doc.label_name(n.label) == name,
            XNodeTest::Wildcard => n.kind == NodeKind::Element,
            XNodeTest::Attribute(name) => {
                n.kind == NodeKind::Attribute && doc.label_name(n.label) == format!("@{name}")
            }
            XNodeTest::Text => n.kind == NodeKind::Text,
            XNodeTest::SelfNode => true,
        }
    }

    fn scan_preds(doc: &Document, node: NodeId, preds: &[XPred]) -> bool {
        preds.iter().all(|p| scan_pred(doc, node, p))
    }

    fn scan_pred(doc: &Document, node: NodeId, pred: &XPred) -> bool {
        let from_here = |path: &LocationPath| scan_steps(doc, vec![node], &path.steps);
        match pred {
            XPred::Exists(path) => !from_here(path).is_empty(),
            XPred::ValEq(path, c) => from_here(path).iter().any(|&n| doc.value(n) == *c),
            XPred::And(a, b) => scan_pred(doc, node, a) && scan_pred(doc, node, b),
            XPred::Or(a, b) => scan_pred(doc, node, a) || scan_pred(doc, node, b),
        }
    }

    /// An XMark-shaped document (the generator lives downstream of
    /// this crate): keyed persons, items and auctions, repeated
    /// values, nested `parlist`s, an `id` on more than one label.
    fn auction_site() -> Document {
        let person = |i: usize| {
            let extra =
                ["<phone>1</phone>", "<homepage>h</homepage>", "<creditcard>c</creditcard>"];
            format!(
                "<person id=\"person{i}\"><name>N{}</name>{}{}<address><city>c</city></address>\
                 <profile income=\"{}\"><interest category=\"category{}\"/>\
                 <interest category=\"category{}\"/></profile><watches/></person>",
                i % 3,
                extra[i % 3],
                extra[(i + 1) % 3],
                30 + i % 2,
                i % 4,
                (i + 1) % 4,
            )
        };
        let item = |i: usize| {
            format!(
                "<item id=\"item{i}\"><location>L</location><name>gold</name>\
                 <description><parlist><listitem><parlist><listitem>deep</listitem></parlist>\
                 </listitem></parlist></description><mailbox/></item>"
            )
        };
        let auction = |i: usize| {
            format!(
                "<open_auction id=\"open_auction{i}\">{}<current>1</current>\
                 <bidder><personref person=\"person{}\"/><increase>4.50</increase></bidder>\
                 <bidder><personref person=\"person{}\"/><increase>1.50</increase></bidder>\
                 <itemref item=\"item{}\"/></open_auction>",
                if i % 2 == 0 { "<reserve>9</reserve><privacy>Yes</privacy>" } else { "" },
                i % 5,
                (i + 2) % 5,
                i % 3
            )
        };
        let many = |f: &dyn Fn(usize) -> String, n: usize| (0..n).map(f).collect::<String>();
        parse_document(&format!(
            "<site><regions><namerica>{}</namerica><asia>{}<item id=\"person1\"/></asia></regions>\
             <people>{}</people><open_auctions>{}</open_auctions></site>",
            many(&item, 4),
            many(&|i| item(i + 4), 2),
            many(&person, 7),
            many(&auction, 5)
        ))
        .unwrap()
    }

    /// Appendix A's target paths, the point stream's seven statement
    /// shapes (`benchmark/src/stream.rs`), and the shapes that decide
    /// whether the index may be asked at all.
    const PATHS: &[&str] = &[
        "/site/people/person",
        "/site/open_auctions/open_auction/bidder",
        "//open_auction/bidder",
        "/site/regions/*/item",
        "/site/regions//item",
        "/site/regions/*/item/name",
        "//person[profile/@income]",
        "/site/open_auctions/open_auction[reserve]/bidder",
        "/site/regions/*/item[name]",
        "/site/people/person[phone and homepage]",
        "/site/open_auctions/open_auction[privacy and bidder]/bidder",
        "/site/regions[namerica or samerica]//item",
        "/site/regions/*/item[description][name]",
        "/site/regions//item[description][name]",
        "/site/people/person[phone or homepage]",
        "/site/open_auctions/open_auction[bidder or privacy]/bidder",
        "/site/regions//item[description or name]",
        "/site/regions[namerica or samerica]/item",
        "/site/open_auctions/open_auction[current and (bidder or reserve)]/bidder",
        "/site/regions//item[description and (name or mailbox)]",
        "/site/people/person[address and (phone or homepage) and (creditcard or profile)]",
        // the point stream
        "/site/people",
        "/site/people/person[@id=\"person3\"]/name",
        "/site/people/person[@id=\"person3\"]",
        "/site/open_auctions/open_auction[@id=\"open_auction2\"]",
        "/site/open_auctions/open_auction[@id=\"open_auction2\"]/bidder[personref/@person=\"person4\"]",
        "/site/regions/namerica",
        "/site/regions/namerica/item[@id=\"item1\"]",
        // keyed, every axis and context
        "//person[@id=\"person1\"]",
        "//*[@id=\"person1\"]",
        "/site//*[@id=\"person1\"]",
        "/site[@id=\"person1\"]",
        "/site/regions/asia/item[@id=\"person1\"]",
        "/site/regions/namerica/item[@id=\"person1\"]",
        "//interest[@category=\"category1\"]",
        "//person[@id=\"person2\"]//interest[@category=\"category3\"]",
        "/site/people/person/profile/interest[@category=\"category2\"]",
        "//profile[@income=\"30\"]/interest[@category=\"category0\"]",
        "//parlist//listitem",
        "//parlist/listitem//parlist",
        "//item//parlist[listitem]//listitem",
        "//person[@id=\"person2\" and phone]",
        "//person[phone and @id=\"person2\"]",
        "//person[@id=\"person2\" and homepage and creditcard]",
        "//person[@id=\"person2\" or phone]",
        "//person[(@id=\"person2\" or phone) and @id=\"person0\"]",
        "//person[@id=\"person2\"][@id=\"person3\"]",
        "//person[@id=\"nobody\"]",
        "//person[@nothing=\"person1\"]",
        "//nothing[@id=\"person1\"]",
        "//person[name=\"N1\"]",
        "//person[//@category=\"category3\"]",
        "//person[profile/@income=\"31\"]/@id",
        "//personref[@person=\"person2\"]/.",
        "//bidder/.[increase=\"4.50\"]",
        "//@id",
        "//text()",
        "//*",
    ];

    fn assert_same_as_scan(d: &Document, when: &str) {
        for xp in PATHS {
            let path = parse_xpath(xp).unwrap();
            assert_eq!(eval_path(d, &path), eval_path_scan(d, &path), "{xp} {when}");
        }
    }

    #[test]
    fn indexed_evaluation_equals_the_scan_it_replaces() {
        let mut d = auction_site();
        assert_same_as_scan(&d, "on the seed");
        let hits = |d: &Document, xp: &str| eval_path(d, &parse_xpath(xp).unwrap());
        assert_eq!(hits(&d, "//*[@id=\"person1\"]").len(), 2, "a person and an item");
        assert_eq!(hits(&d, "/site/regions/asia/item[@id=\"person1\"]").len(), 1);
        // Updates move the index with the document.
        let people = hits(&d, "/site/people")[0];
        xivm_xml::parser::parse_forest_into(
            &mut d,
            people,
            "<person id=\"person3\"><phone>2</phone><profile income=\"30\"/></person>",
        )
        .unwrap();
        assert_eq!(hits(&d, "/site/people/person[@id=\"person3\"]").len(), 2);
        assert_same_as_scan(&d, "after an insert");
        for xp in ["//person[@id=\"person2\"]", "//open_auction[@id=\"open_auction2\"]/bidder"] {
            for n in hits(&d, xp) {
                d.remove_subtree(n).unwrap();
            }
        }
        assert!(hits(&d, "//person[@id=\"person2\"]").is_empty());
        assert_same_as_scan(&d, "after deletes");
        d.check_invariants().unwrap();
    }

    fn doc() -> Document {
        parse_document(
            "<site><people>\
               <person id=\"person0\"><name>Jim</name><phone>1</phone></person>\
               <person id=\"person1\"><name>Ann</name><homepage>h</homepage>\
                 <profile income=\"30k\"><age>33</age></profile></person>\
               <person id=\"person2\"><name>Bob</name></person>\
             </people>\
             <regions><namerica><item><name>i1</name></item></namerica>\
                      <asia><item><mailbox/></item></asia></regions></site>",
        )
        .unwrap()
    }

    fn run(d: &Document, xp: &str) -> Vec<String> {
        let path = parse_xpath(xp).unwrap();
        eval_path(d, &path)
            .into_iter()
            .map(|n| {
                let node = d.node(n);
                match node.kind {
                    NodeKind::Element => d.label_name(node.label).to_owned(),
                    _ => d.value(n),
                }
            })
            .collect()
    }

    #[test]
    fn absolute_child_path() {
        let d = doc();
        assert_eq!(run(&d, "/site/people/person").len(), 3);
        assert_eq!(run(&d, "/wrong/people").len(), 0);
    }

    #[test]
    fn descendant_path_uses_all_depths() {
        let d = doc();
        assert_eq!(run(&d, "//name").len(), 4);
        assert_eq!(run(&d, "/site//item//name").len(), 1);
    }

    #[test]
    fn wildcard_steps() {
        let d = doc();
        assert_eq!(run(&d, "/site/regions/*/item").len(), 2);
    }

    #[test]
    fn attribute_and_text_tests() {
        let d = doc();
        assert_eq!(run(&d, "//person/@id").len(), 3);
        assert_eq!(run(&d, "//person/name/text()"), vec!["Jim", "Ann", "Bob"]);
    }

    #[test]
    fn exists_predicate() {
        let d = doc();
        assert_eq!(run(&d, "//person[phone]").len(), 1);
        assert_eq!(run(&d, "//person[profile/age]").len(), 1);
        assert_eq!(run(&d, "//person[@id]").len(), 3);
    }

    #[test]
    fn value_predicates() {
        let d = doc();
        assert_eq!(run(&d, "//person[@id=\"person1\"]/name/text()"), vec!["Ann"]);
        assert_eq!(run(&d, "//person[name=\"Bob\"]").len(), 1);
        assert_eq!(run(&d, "//person[name='Nobody']").len(), 0);
    }

    #[test]
    fn boolean_predicates() {
        let d = doc();
        assert_eq!(run(&d, "//person[phone or homepage]").len(), 2);
        assert_eq!(run(&d, "//person[phone and homepage]").len(), 0);
        assert_eq!(run(&d, "//person[name and (phone or homepage)]").len(), 2);
        assert_eq!(run(&d, "//item[description or name]").len(), 1);
    }

    #[test]
    fn results_in_document_order_without_duplicates() {
        let d = doc();
        let path = parse_xpath("//person//name").unwrap();
        let nodes = eval_path(&d, &path);
        for w in nodes.windows(2) {
            assert!(d.dewey(w[0]).doc_cmp(&d.dewey(w[1])).is_lt());
        }
    }

    #[test]
    fn self_node_in_predicate_path() {
        let d = doc();
        // [. = "Jim"] on name nodes
        assert_eq!(run(&d, "//name[. = \"Jim\"]").len(), 1);
    }

    #[test]
    fn empty_document_yields_nothing() {
        let d = Document::new();
        let path = parse_xpath("//a").unwrap();
        assert!(eval_path(&d, &path).is_empty());
    }

    #[test]
    fn deleted_nodes_are_invisible() {
        let mut d = doc();
        let path = parse_xpath("//person").unwrap();
        let persons = eval_path(&d, &path);
        d.remove_subtree(persons[0]).unwrap();
        assert_eq!(eval_path(&d, &path).len(), 2);
    }
}
