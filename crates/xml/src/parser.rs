//! A small, dependency-free XML parser.
//!
//! Supports the subset the paper's workloads need: elements,
//! attributes, character data with the five predefined entities,
//! comments, processing instructions and doctype declarations (the
//! latter three are skipped). Namespaces, CDATA sections and DTD
//! internal subsets are out of scope (see DESIGN.md §8).
//!
//! A forest inserted under many targets is parsed once: the parse
//! builds a [`ForestTemplate`] — labels interned, text unescaped,
//! whitespace-only text dropped — and [`DocumentEdit::graft`] appends a
//! copy of it under each target, node for node what the streaming
//! parse ([`DocumentEdit::insert_forest`]) of its text would build.

use crate::document::{Document, DocumentEdit};
use crate::error::XmlError;
use crate::label::{attribute_label, LabelId, TEXT_LABEL};
use crate::node::{NodeId, NodeKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Parses `input` into a fresh [`Document`].
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut doc = Document::new();
    let mut p = Parser::new(input);
    p.skip_misc();
    if p.at_end() {
        return Err(XmlError::NoRoot);
    }
    p.element(doc.edit().appending(), None)?;
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err("content after document root"));
    }
    Ok(doc)
}

/// Parses an XML *forest* and appends each top-level tree as a child of
/// `parent`. Returns the ids of the appended roots. This is the
/// workhorse of `apply-insert` (Section 3.4): the inserted snippet is
/// parsed directly into its new context so the new nodes receive their
/// final Dewey IDs.
pub fn parse_forest_into(
    doc: &mut Document,
    parent: NodeId,
    input: &str,
) -> Result<Vec<NodeId>, XmlError> {
    doc.edit().insert_forest(parent, input)
}

impl DocumentEdit<'_> {
    /// [`parse_forest_into`] as one operation of a larger edit. The
    /// nodes are appended unindexed and registered when the edit ends —
    /// one search per label of the forest — also when the parse fails
    /// half way: what it built so far stays in the document.
    pub fn insert_forest(&mut self, parent: NodeId, input: &str) -> Result<Vec<NodeId>, XmlError> {
        Parser::new(input).forest(self.appending(), parent)
    }

    /// Parses `input` once, for [`Self::graft`]: its labels are interned
    /// here in the order the streaming parse would intern them, and no
    /// node is built. A malformed forest fails as the streaming parse
    /// fails, having interned the labels it met before the error.
    pub fn parse_template(&mut self, input: &str) -> Result<ForestTemplate, XmlError> {
        let mut sink = TemplateSink { edit: self, nodes: Vec::new() };
        Parser::new(input).forest(&mut sink, None)?;
        Ok(ForestTemplate { nodes: sink.nodes })
    }

    /// Appends a copy of `template` under `parent` — the nodes, ordinals
    /// and lists [`Self::insert_forest`] of its text would build there,
    /// at arena slots `first + i` for its node `i`, `first` being the
    /// arena's length before. Every copy shares the template's strings.
    pub fn graft(
        &mut self,
        parent: NodeId,
        template: &ForestTemplate,
    ) -> Result<Vec<NodeId>, XmlError> {
        let doc = self.appending();
        let first = doc.arena_len();
        let mut roots = Vec::new();
        for node in &template.nodes {
            let up = node.parent.map_or(parent, |p| NodeId((first + p) as u32));
            let copy = doc.push_node(Some(up), node.kind, node.label, node.text.clone())?;
            if node.parent.is_none() {
                roots.push(copy);
            }
        }
        Ok(roots)
    }
}

/// A parsed forest ([`DocumentEdit::parse_template`]), to be copied
/// under any number of parents ([`DocumentEdit::graft`]).
#[derive(Debug)]
pub struct ForestTemplate {
    nodes: Vec<TemplateNode>,
}

/// One node of a [`ForestTemplate`], in document order.
#[derive(Debug)]
pub struct TemplateNode {
    pub kind: NodeKind,
    /// Interned in the document the template was parsed for.
    pub label: LabelId,
    /// How many template nodes lie above it: 0 for a root.
    pub depth: usize,
    /// The template index of the node's parent; `None` for a root.
    parent: Option<usize>,
    text: Option<Arc<str>>,
}

impl ForestTemplate {
    /// The nodes in document order: node `i` of a copy is at arena slot
    /// `first + i` ([`DocumentEdit::graft`]).
    pub fn nodes(&self) -> &[TemplateNode] {
        &self.nodes
    }
}

/// The template's sink: interns into the edit, builds template nodes.
/// A node is its template index; `None` is the parent of the roots.
struct TemplateSink<'e, 'd> {
    edit: &'e mut DocumentEdit<'d>,
    nodes: Vec<TemplateNode>,
}

impl TemplateSink<'_, '_> {
    fn push(
        &mut self,
        parent: Option<usize>,
        kind: NodeKind,
        label: LabelId,
        text: Option<Arc<str>>,
    ) -> usize {
        let depth = parent.map_or(0, |p| self.nodes[p].depth + 1);
        self.nodes.push(TemplateNode { kind, label, parent, depth, text });
        self.nodes.len() - 1
    }
}

impl Sink for TemplateSink<'_, '_> {
    type Node = Option<usize>;

    fn element(
        &mut self,
        parent: Option<Option<usize>>,
        tag: &str,
    ) -> Result<Self::Node, XmlError> {
        let label = self.edit.intern_label(tag);
        Ok(Some(self.push(parent.flatten(), NodeKind::Element, label, None)))
    }

    fn attribute(&mut self, node: Option<usize>, name: &str, raw: &str) -> Result<(), XmlError> {
        let label = self.edit.intern_label(&attribute_label(name));
        self.push(node, NodeKind::Attribute, label, Some(unescape(raw)));
        Ok(())
    }

    fn text(&mut self, parent: Option<usize>, raw: &str) -> Result<Option<Self::Node>, XmlError> {
        let Some(text) = text_node(raw) else { return Ok(None) };
        let label = self.edit.intern_label(TEXT_LABEL);
        Ok(Some(Some(self.push(parent, NodeKind::Text, label, Some(text)))))
    }
}

/// Accepts exactly the forests [`parse_forest_into`] accepts, building
/// nothing: the same parser over a sink that drops what it is handed.
/// Statement validation uses it to reject a malformed insertion before
/// anything is applied, at the cost of one scan of the text.
pub fn check_forest(input: &str) -> Result<(), XmlError> {
    Parser::new(input).forest(&mut (), ()).map(drop)
}

/// The labels of the forest's elements and attributes (those spelled
/// as interned, `@name`), for exactly the forests [`parse_forest_into`]
/// accepts: the same parser over a sink that keeps the names and builds
/// no node. What the static analyzer reads of an insertion.
pub fn forest_labels(input: &str) -> Result<BTreeSet<String>, XmlError> {
    let mut labels = BTreeSet::new();
    Parser::new(input).forest(&mut labels, ())?;
    Ok(labels)
}

/// Where the parser puts what it recognizes: a [`Document`] builds
/// nodes, `()` builds nothing, a set of names keeps the labels.
trait Sink {
    type Node: Copy;
    fn element(&mut self, parent: Option<Self::Node>, tag: &str) -> Result<Self::Node, XmlError>;
    fn attribute(&mut self, node: Self::Node, name: &str, raw: &str) -> Result<(), XmlError>;
    /// Character data under `parent`; `None` when it is all whitespace
    /// (such text makes no node).
    fn text(&mut self, parent: Self::Node, raw: &str) -> Result<Option<Self::Node>, XmlError>;
}

impl Sink for Document {
    type Node = NodeId;

    fn element(&mut self, parent: Option<NodeId>, tag: &str) -> Result<NodeId, XmlError> {
        let label = self.intern_label(tag);
        self.push_node(parent, NodeKind::Element, label, None)
    }

    fn attribute(&mut self, node: NodeId, name: &str, raw: &str) -> Result<(), XmlError> {
        let label = self.intern_label(&attribute_label(name));
        self.push_node(Some(node), NodeKind::Attribute, label, Some(unescape(raw))).map(drop)
    }

    fn text(&mut self, parent: NodeId, raw: &str) -> Result<Option<NodeId>, XmlError> {
        let Some(text) = text_node(raw) else { return Ok(None) };
        let label = self.intern_label(TEXT_LABEL);
        self.push_node(Some(parent), NodeKind::Text, label, Some(text)).map(Some)
    }
}

impl Sink for () {
    type Node = ();

    fn element(&mut self, _: Option<()>, _: &str) -> Result<(), XmlError> {
        Ok(())
    }

    fn attribute(&mut self, _: (), _: &str, _: &str) -> Result<(), XmlError> {
        Ok(())
    }

    fn text(&mut self, _: (), _: &str) -> Result<Option<()>, XmlError> {
        Ok(None)
    }
}

impl Sink for BTreeSet<String> {
    type Node = ();

    fn element(&mut self, _: Option<()>, tag: &str) -> Result<(), XmlError> {
        if !self.contains(tag) {
            self.insert(tag.to_owned());
        }
        Ok(())
    }

    fn attribute(&mut self, _: (), name: &str, _: &str) -> Result<(), XmlError> {
        self.insert(attribute_label(name));
        Ok(())
    }

    fn text(&mut self, _: (), _: &str) -> Result<Option<()>, XmlError> {
        Ok(None)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<char> {
        self.bytes.get(self.pos).map(|&b| b as char)
    }

    fn peek2(&self) -> Option<char> {
        self.bytes.get(self.pos + 1).map(|&b| b as char)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err(&self, msg: &str) -> XmlError {
        XmlError::Parse { offset: self.pos, message: msg.to_owned() }
    }

    fn expect(&mut self, c: char) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{c}'")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, XML declarations, comments, PIs and doctypes.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.peek() == Some('<') {
                match self.peek2() {
                    Some('?') => {
                        self.skip_until("?>");
                        continue;
                    }
                    Some('!') => {
                        if self.starts_with("<!--") {
                            self.skip_until("-->");
                        } else {
                            self.skip_until(">");
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            break;
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, end: &str) {
        while !self.at_end() && !self.starts_with(end) {
            self.pos += 1;
        }
        self.pos = (self.pos + end.len()).min(self.bytes.len());
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap())
    }

    /// A forest: top-level trees and character data, each appended
    /// under `parent`; the roots it made, in order.
    fn forest<S: Sink>(&mut self, sink: &mut S, parent: S::Node) -> Result<Vec<S::Node>, XmlError> {
        let mut roots = Vec::new();
        loop {
            self.skip_misc();
            if self.at_end() {
                return Ok(roots);
            }
            if self.peek() == Some('<') {
                roots.push(self.element(sink, Some(parent))?);
            } else {
                let raw = self.text()?;
                roots.extend(sink.text(parent, raw)?);
            }
        }
    }

    fn element<S: Sink>(
        &mut self,
        sink: &mut S,
        parent: Option<S::Node>,
    ) -> Result<S::Node, XmlError> {
        self.expect('<')?;
        let tag = self.name()?;
        let node = sink.element(parent, tag)?;
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.pos += 1;
                    self.expect('>')?;
                    return Ok(node);
                }
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect('=')?;
                    self.skip_ws();
                    let quote = self.bump().ok_or_else(|| self.err("unterminated attribute"))?;
                    if quote != '"' && quote != '\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.at_end() {
                            return Err(self.err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                    self.pos += 1;
                    sink.attribute(node, name, raw)?;
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // content
        loop {
            if self.at_end() {
                return Err(self.err("unterminated element"));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != tag {
                    return Err(self.err(&format!("mismatched close tag </{close}> for <{tag}>")));
                }
                self.skip_ws();
                self.expect('>')?;
                return Ok(node);
            }
            if self.starts_with("<!--") {
                self.skip_until("-->");
                continue;
            }
            if self.starts_with("<?") {
                self.skip_until("?>");
                continue;
            }
            if self.peek() == Some('<') {
                self.element(sink, Some(node))?;
            } else {
                let raw = self.text()?;
                sink.text(node, raw)?;
            }
        }
    }

    /// The raw (still escaped) character data up to the next `<`.
    fn text(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '<' {
                break;
            }
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in text"))
    }
}

/// The text of the node character data makes: none when it is all
/// whitespace (no entity unescapes to whitespace).
fn text_node(raw: &str) -> Option<Arc<str>> {
    (!raw.trim().is_empty()).then(|| unescape(raw))
}

/// `s` with its entities replaced, allocated once when it has none.
fn unescape(s: &str) -> Arc<str> {
    if !s.contains('&') {
        return s.into();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let (rep, consumed) = if rest.starts_with("&lt;") {
            ("<", 4)
        } else if rest.starts_with("&gt;") {
            (">", 4)
        } else if rest.starts_with("&amp;") {
            ("&", 5)
        } else if rest.starts_with("&quot;") {
            ("\"", 6)
        } else if rest.starts_with("&apos;") {
            ("'", 6)
        } else {
            ("&", 1)
        };
        out.push_str(rep);
        rest = &rest[consumed..];
    }
    out.push_str(rest);
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::serialize_document;

    #[test]
    fn parse_simple_document() {
        let d = parse_document("<a><b/><b><c/></b></a>").unwrap();
        let b = d.label_id("b").unwrap();
        assert_eq!(d.canonical_nodes(b).len(), 2);
        d.check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_through_serializer() {
        let src = "<site><people><person id=\"person0\"><name>Jim</name></person></people></site>";
        let d = parse_document(src).unwrap();
        assert_eq!(serialize_document(&d), src);
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let d = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let root = d.root().unwrap();
        assert_eq!(d.children_of(root).len(), 2);
    }

    #[test]
    fn mixed_content_text_is_kept() {
        let d = parse_document("<a>3<b/></a>").unwrap();
        assert_eq!(d.value(d.root().unwrap()), "3");
    }

    #[test]
    fn entities_are_unescaped() {
        let d = parse_document("<a t=\"x&quot;y\">1 &lt; 2 &amp; 3</a>").unwrap();
        let r = d.root().unwrap();
        assert_eq!(d.value(r), "1 < 2 & 3");
        let at = d.children_of(r)[0];
        assert_eq!(d.value(at), "x\"y");
    }

    #[test]
    fn skips_prolog_comments_and_pis() {
        let d = parse_document(
            "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE a><a><?pi data?><!-- in --><b/></a>",
        )
        .unwrap();
        assert_eq!(serialize_document(&d), "<a><b/></a>");
    }

    #[test]
    fn errors_on_mismatched_tags() {
        assert!(matches!(parse_document("<a><b></a></b>"), Err(XmlError::Parse { .. })));
    }

    #[test]
    fn errors_on_trailing_content() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn errors_on_empty_input() {
        assert!(matches!(parse_document("   "), Err(XmlError::NoRoot)));
    }

    #[test]
    fn parse_forest_appends_children() {
        let mut d = parse_document("<a><b/></a>").unwrap();
        let root = d.root().unwrap();
        let roots = parse_forest_into(&mut d, root, "<x/><y><z/></y>").unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(serialize_document(&d), "<a><b/><x/><y><z/></y></a>");
        d.check_invariants().unwrap();
    }

    #[test]
    fn forest_preserves_existing_ids() {
        let mut d = parse_document("<a><b/></a>").unwrap();
        let root = d.root().unwrap();
        let b = d.children_of(root)[0];
        let b_id = d.dewey(b);
        parse_forest_into(&mut d, root, "<c/>").unwrap();
        assert_eq!(d.dewey(b), b_id);
    }

    /// The two building-nothing sinks against the document sink: the
    /// same verdict, and — where the forest parses — the labels of
    /// exactly the nodes it would build, text nodes aside.
    #[test]
    fn check_forest_and_forest_labels_agree_with_parsing_the_forest() {
        let forests = [
            "<x/><y><z a=\"1\">t &amp; u</z></y>",
            "<x a=\"1\"><x b=\"2\" a=\"3\"/>t</x>",
            "top <b/> level",
            "<!-- c --><?pi?><x/>",
            "",
            "<x>",
            "<x></y>",
            "</x>",
            "<x a=1/>",
            "<x a=\"1/>",
            "a < b",
        ];
        for forest in forests {
            let mut d = parse_document("<a/>").unwrap();
            let root = d.root().unwrap();
            let built = parse_forest_into(&mut d, root, forest).map(|_| {
                let made = d.descendants_or_self(root).into_iter().skip(1);
                let labels = made.map(|n| d.label_name(d.node(n).label).to_owned());
                labels.filter(|l| l != TEXT_LABEL).collect::<BTreeSet<_>>()
            });
            assert_eq!(check_forest(forest), built.clone().map(drop), "{forest:?}");
            assert_eq!(forest_labels(forest), built, "{forest:?}");
        }
    }

    /// A template grafted under two parents builds what parsing the
    /// forest under each builds — nodes, ordinals, lists — and a forest
    /// the template parse refuses fails the streaming parse the same way.
    #[test]
    fn a_grafted_template_builds_what_parsing_under_each_parent_builds() {
        let forests = [
            "<x/><y><z a=\"1\">t &amp; u</z></y>",
            "<x a=\"1\"><x b=\"2\" a=\"3\"/>t</x>",
            "top <b/> level",
            " <!-- c --><?pi?><x>\n </x> ",
            "",
            "<x>",
            "<x a=1/>",
        ];
        for forest in forests {
            let mut parsed = parse_document("<a><p/><q/></a>").unwrap();
            let mut grafted = parsed.clone();
            let (p, q) = (NodeId(1), NodeId(2));
            let streamed = {
                let mut edit = parsed.edit();
                edit.insert_forest(p, forest).and_then(|_| edit.insert_forest(q, forest))
            };
            let mut edit = grafted.edit();
            match edit.parse_template(forest) {
                Ok(template) => {
                    edit.graft(p, &template).unwrap();
                    edit.graft(q, &template).unwrap();
                    drop(edit);
                    assert!(streamed.is_ok(), "{forest:?}");
                    assert_eq!(serialize_document(&grafted), serialize_document(&parsed));
                    assert_eq!(grafted.arena_len(), parsed.arena_len(), "{forest:?}");
                    let ids = |d: &Document| {
                        let all = d.descendants_or_self(d.root().unwrap());
                        all.into_iter().map(|n| d.dewey(n)).collect::<Vec<_>>()
                    };
                    assert_eq!(ids(&grafted), ids(&parsed), "{forest:?}");
                    grafted.check_invariants().unwrap();
                }
                Err(e) => assert_eq!(streamed.unwrap_err(), e, "{forest:?}"),
            }
        }
    }

    #[test]
    fn unescape_handles_lone_ampersand() {
        assert_eq!(&*unescape("a&b"), "a&b");
        assert_eq!(&*unescape("no entities"), "no entities");
    }
}
