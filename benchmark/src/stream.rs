//! The seeded point-update stream.
//!
//! Generated DB-nets style (PAPERS.md, Montali & Rivkin): a small
//! seeded process whose every transition is a data-manipulating
//! action with a matching compensating action. A *pair* opens with an
//! insert marked by a reserved id (`benchK`), optionally takes a
//! middle step, and closes with the delete addressed through that
//! marker. At most [`MAX_OPEN`] pairs are open at once, on distinct
//! ids, so the database stays within a few nodes of the seed document
//! for as long as the stream runs — unlike looping the Appendix A
//! *delete* variants, which empty the document in round one — and a
//! finished stream leaves exactly the seed serialization behind.
//!
//! Every fragment uses only elements and attributes the XMark
//! generator itself emits, in DTD order, so the stream conforms to
//! `xivm_xmark::XMARK_DTD` and is safe under static analysis.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pairs open at once, at most.
pub const MAX_OPEN: usize = 4;

/// What a pair inserts. The stream opens the three kinds in exact
/// thirds (a [`Deck`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `person benchK` into `/site/people`, then `replace` its
    /// `name`, then delete it: 3 statements.
    Person,
    /// A `bidder` (marked by `personref/@person = benchK`) into one
    /// open auction, then delete it: 2 statements.
    Bidder,
    /// `item benchK` into `/site/regions/namerica`, then delete it:
    /// 2 statements.
    Item,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Person, Kind::Bidder, Kind::Item];

    /// Statements in one pair of this kind.
    pub fn statements(self) -> usize {
        match self {
            Kind::Person => 3,
            Kind::Bidder | Kind::Item => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    Insert,
    Replace,
    Delete,
}

/// One generated statement: the text is all the program ever sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub text: String,
    pub kind: Kind,
    pub step: Step,
    /// The numeric part of the pair's `benchK` marker.
    pub id: u64,
}

struct OpenPair {
    kind: Kind,
    id: u64,
    auction: usize,
    /// Statements of this pair emitted so far.
    done: usize,
    /// 0-based position in opening order.
    ordinal: u64,
}

const FIRST_NAMES: [&str; 6] = ["Jim", "Ann", "Bob", "Eve", "Ida", "Max"];
const LAST_NAMES: [&str; 5] = ["Smith", "Jones", "Brown", "Diaz", "Lee"];
const WORDS: [&str; 8] =
    ["gold", "vintage", "rare", "mint", "boxed", "classic", "signed", "antique"];
/// Every second bid is 4.50, the amount Q3 filters on: those bids (and
/// the deletes that take them back) are the stream's expensive tail,
/// a seventh of it, so a p95 sits well inside that class.
const INCREASES: [&str; 4] = ["1.50", "4.50", "3.00", "4.50"];

/// Draws from a small set in seeded order but exact proportions: the
/// set is dealt out completely before it is shuffled again. Choices
/// that decide what a statement costs come from decks, so every seed
/// runs the same mix and only order, ids and targets differ.
struct Deck<T: Copy> {
    cards: Vec<T>,
    left: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: &[T]) -> Self {
        Deck { cards: cards.to_vec(), left: 0 }
    }

    /// The next card, without taking it.
    fn peek(&mut self, rng: &mut StdRng) -> T {
        if self.left == 0 {
            // Fisher-Yates.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.random_range(0..i + 1));
            }
            self.left = self.cards.len();
        }
        self.cards[self.left - 1]
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        let card = self.peek(rng);
        self.left -= 1;
        card
    }
}

pub struct PointStream {
    rng: StdRng,
    next_id: u64,
    open: Vec<OpenPair>,
    auctions: usize,
    /// Statements not yet promised to an open pair.
    unreserved: usize,
    kinds: Deck<Kind>,
    homepages: Deck<bool>,
    increases: Deck<&'static str>,
    /// Test-only fault: the pair with this ordinal (0-based, in
    /// opening order) never gets its compensating delete.
    skip_delete_of: Option<u64>,
    opened: u64,
}

impl PointStream {
    /// A stream of at most `statements` statements (at least
    /// `statements − 2`: a pair is opened only when all its statements
    /// still fit) over a document with `auctions` open auctions,
    /// `open_auction0 .. open_auction{auctions−1}`.
    pub fn new(seed: u64, auctions: usize, statements: usize) -> Self {
        assert!(auctions > 0, "the bidder pairs need an open auction to bid on");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_57a7_e3e2_7001);
        let next_id = rng.random_range(1_000u64..900_000);
        PointStream {
            rng,
            next_id,
            open: Vec::with_capacity(MAX_OPEN),
            auctions,
            unreserved: statements,
            kinds: Deck::new(&Kind::ALL),
            homepages: Deck::new(&[true, false]),
            increases: Deck::new(&INCREASES),
            skip_delete_of: None,
            opened: 0,
        }
    }

    /// Deliberately breaks the stream (see `skip_delete_of`); the
    /// oracle must then reject the run.
    pub fn skip_delete_of(mut self, pair: u64) -> Self {
        self.skip_delete_of = Some(pair);
        self
    }

    /// Stops opening pairs; what is open still closes through
    /// [`Iterator::next`].
    pub fn close(&mut self) {
        self.unreserved = 0;
    }

    /// Ids of the pairs open right now.
    #[cfg(test)]
    pub fn open_ids(&self) -> Vec<u64> {
        self.open.iter().map(|p| p.id).collect()
    }

    fn words(&mut self, n: usize) -> String {
        (0..n).map(|_| pick(&mut self.rng, &WORDS)).collect::<Vec<_>>().join(" ")
    }

    fn person_name(&mut self) -> String {
        format!("{} {}", pick(&mut self.rng, &FIRST_NAMES), pick(&mut self.rng, &LAST_NAMES))
    }

    fn statement(&mut self, pair: &OpenPair) -> (String, Step) {
        let id = pair.id;
        match (pair.kind, pair.done) {
            (Kind::Person, 0) => {
                let name = self.person_name();
                // Half the persons have a homepage, so Q17 (persons
                // with a homepage) sees traffic as well as Q1.
                let homepage = if self.homepages.draw(&mut self.rng) {
                    format!("<homepage>http://www.example.org/~bench{id}</homepage>")
                } else {
                    String::new()
                };
                (
                    format!(
                        "insert <person id=\"bench{id}\"><name>{name}</name>\
                         <emailaddress>mailto:bench{id}@example.org</emailaddress>\
                         {homepage}<watches/></person> into /site/people"
                    ),
                    Step::Insert,
                )
            }
            (Kind::Person, 1) => {
                let name = self.person_name();
                (
                    format!(
                        "replace /site/people/person[@id=\"bench{id}\"]/name \
                         with <name>{name}</name>"
                    ),
                    Step::Replace,
                )
            }
            (Kind::Person, _) => {
                (format!("delete /site/people/person[@id=\"bench{id}\"]"), Step::Delete)
            }
            (Kind::Bidder, 0) => {
                let (month, day) = (self.rng.random_range(1..13), self.rng.random_range(1..29));
                let increase = self.increases.draw(&mut self.rng);
                (
                    format!(
                        "insert <bidder><date>{month:02}/{day:02}/2009</date>\
                         <time>12:00:00</time><personref person=\"bench{id}\"/>\
                         <increase>{increase}</increase></bidder> \
                         into /site/open_auctions/open_auction[@id=\"open_auction{}\"]",
                        pair.auction
                    ),
                    Step::Insert,
                )
            }
            (Kind::Bidder, _) => (
                format!(
                    "delete /site/open_auctions/open_auction[@id=\"open_auction{}\"]\
                     /bidder[personref/@person=\"bench{id}\"]",
                    pair.auction
                ),
                Step::Delete,
            ),
            (Kind::Item, 0) => {
                let (name, text) = (self.words(2), self.words(6));
                (
                    format!(
                        "insert <item id=\"bench{id}\"><location>Internal</location>\
                         <quantity>1</quantity><name>{name}</name>\
                         <payment>Creditcard, Personal Check, Cash</payment>\
                         <description><parlist>{text}</parlist></description></item> \
                         into /site/regions/namerica"
                    ),
                    Step::Insert,
                )
            }
            (Kind::Item, _) => {
                (format!("delete /site/regions/namerica/item[@id=\"bench{id}\"]"), Step::Delete)
            }
        }
    }
}

fn pick<'a>(rng: &mut StdRng, xs: &[&'a str]) -> &'a str {
    xs[rng.random_range(0..xs.len())]
}

impl Iterator for PointStream {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        loop {
            let kind = self.kinds.peek(&mut self.rng);
            let can_open = self.open.len() < MAX_OPEN && self.unreserved >= kind.statements();
            let choices = self.open.len() + usize::from(can_open);
            if choices == 0 {
                return None;
            }
            // Every enabled transition is equally likely: opening a
            // pair, or advancing any one of the open ones.
            let choice = self.rng.random_range(0..choices);
            if choice == self.open.len() {
                self.kinds.draw(&mut self.rng);
                self.unreserved -= kind.statements();
                let pair = OpenPair {
                    kind,
                    id: self.next_id,
                    auction: self.rng.random_range(0..self.auctions),
                    done: 0,
                    ordinal: self.opened,
                };
                self.next_id += 1;
                self.opened += 1;
                self.open.push(pair);
            }
            let mut pair = self.open.swap_remove(choice);
            let last = pair.done + 1 == pair.kind.statements();
            if last && self.skip_delete_of == Some(pair.ordinal) {
                // The sabotaged pair: dropped without its delete.
                self.skip_delete_of = None;
                continue;
            }
            let (text, step) = self.statement(&pair);
            let stmt = Stmt { text, kind: pair.kind, step, id: pair.id };
            pair.done += 1;
            if !last {
                self.open.push(pair);
            }
            return Some(stmt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xivm::update::statement::parse_statement;
    use xivm::update::{apply_pul, compute_pul};
    use xivm::xml::serialize_document;
    use xivm_xmark::{generate, XmarkConfig};

    fn auctions_of(doc: &xivm::xml::Document) -> usize {
        doc.canonical_nodes_named("open_auction").len()
    }

    fn mix(stmts: &[Stmt]) -> BTreeMap<(Kind, Step), usize> {
        let mut m = BTreeMap::new();
        for s in stmts {
            *m.entry((s.kind, s.step)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a: Vec<Stmt> = PointStream::new(7, 20, 700).collect();
        let b: Vec<Stmt> = PointStream::new(7, 20, 700).collect();
        assert_eq!(a, b);
        assert!((698..=700).contains(&a.len()), "{} statements", a.len());
    }

    #[test]
    fn another_seed_changes_ids_and_order_but_not_the_mix() {
        let a: Vec<Stmt> = PointStream::new(1, 20, 2100).collect();
        let b: Vec<Stmt> = PointStream::new(2, 20, 2100).collect();
        assert_ne!(a[0].id, b[0].id, "id ranges are seeded");
        assert_ne!(
            a.iter().map(|s| (s.kind, s.step)).collect::<Vec<_>>(),
            b.iter().map(|s| (s.kind, s.step)).collect::<Vec<_>>()
        );
        assert_eq!(mix(&a), mix(&b));
        // exact thirds: 2100 statements are 300 pairs of each kind
        assert_eq!(mix(&a)[&(Kind::Person, Step::Replace)], 300);
        assert_eq!(mix(&a)[&(Kind::Bidder, Step::Insert)], 300);
        assert_eq!(mix(&a)[&(Kind::Item, Step::Delete)], 300);
    }

    #[test]
    fn at_most_four_pairs_open_on_distinct_ids() {
        let mut s = PointStream::new(3, 20, 1400);
        let mut peak = 0;
        while s.next().is_some() {
            let mut ids = s.open_ids();
            peak = peak.max(ids.len());
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), s.open_ids().len(), "open ids are distinct");
        }
        assert_eq!(peak, MAX_OPEN);
        assert!(s.open_ids().is_empty());
    }

    /// The regression test for the `fig_async` / `fig_feed` flaw
    /// (their delete variants empty the document in round one): the
    /// live node count never leaves ±2 % of the seed's, and a closed
    /// stream restores the seed serialization exactly.
    #[test]
    fn stream_keeps_the_document_bounded_and_restores_it() {
        let mut doc = generate(&XmarkConfig { target_bytes: 60 * 1024, seed: 5 });
        let seed_text = serialize_document(&doc);
        let seed_live = doc.live_count() as f64;
        let mut stream = PointStream::new(5, auctions_of(&doc), 1000);
        let mut applied = 0;
        while let Some(s) = stream.next() {
            let stmt = parse_statement(&s.text).expect("generated statements parse");
            let pul = compute_pul(&doc, &stmt);
            // One target per statement; a replace is a delete and an
            // insert at that target's parent.
            let ops = if s.step == Step::Replace { 2 } else { 1 };
            assert_eq!(pul.len(), ops, "every statement hits exactly one target: {}", s.text);
            apply_pul(&mut doc, &pul).expect("generated statements apply");
            let live = doc.live_count() as f64;
            assert!((live - seed_live).abs() <= seed_live * 0.02, "live nodes drifted to {live}");
            applied += 1;
            if applied == 400 {
                // an early close still drains every open pair
                stream.close();
            }
        }
        assert!((400..400 + MAX_OPEN * 3).contains(&applied));
        assert_eq!(serialize_document(&doc), seed_text);
        doc.check_invariants().unwrap();
    }

    #[test]
    fn a_skipped_compensating_delete_leaves_the_document_changed() {
        let mut doc = generate(&XmarkConfig { target_bytes: 60 * 1024, seed: 5 });
        let seed_text = serialize_document(&doc);
        for s in PointStream::new(5, auctions_of(&doc), 200).skip_delete_of(10) {
            let pul = compute_pul(&doc, &parse_statement(&s.text).unwrap());
            apply_pul(&mut doc, &pul).unwrap();
        }
        assert_ne!(serialize_document(&doc), seed_text);
    }
}
