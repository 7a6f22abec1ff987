//! Async commits & backpressure: submit without waiting for the seal.
//!
//! An ingest thread rarely wants to pay the full maintenance latency
//! per commit. [`Database::apply_async`] validates and enqueues, the
//! service thread seals strictly in order, each drained queue as one
//! window, and the producer holds a [`Ticket`] it can wait on — or
//! not. Consumers pick what happens when they fall
//! behind a bounded feed: `Block` the sealer, take a `Lagged` marker
//! and re-seed from a snapshot, or get disconnected.
//!
//! ```sh
//! cargo run --release --example async_service
//! ```

use std::time::Instant;

use xivm::prelude::*;

fn main() -> Result<(), Error> {
    // A ticker feed: readings stream in, one view mirrors the prices.
    let mut db = Database::builder()
        .document("<market><feed/><log/></market>")
        .view("prices", "//feed{id}/tick{id,val}")
        .build()?;
    let prices = db.view("prices")?;

    // --- Tickets: submission returns before the seal -----------------
    let feed = db.subscribe(prices);
    let submit = Instant::now();
    let mut tickets = Vec::new();
    for i in 0..8 {
        tickets.push(db.apply_async([format!("insert <tick>{i}</tick> into //feed")])?);
    }
    let submitted = submit.elapsed();
    // The promised order is the submission order...
    assert!(tickets.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    // ...and a ticket blocks for exactly one commit's seal.
    let third = tickets[2].wait()?;
    assert_eq!(third.seq, tickets[2].seq);
    // flush() is the everything-submitted barrier; commit_barrier(seq)
    // waits for a specific boundary instead.
    db.flush()?;
    assert_eq!(db.commit_barrier(tickets[7].seq), 8);
    println!(
        "submitted 8 commits in {submitted:?}, sealed through seq {} ({} ticks live)",
        db.last_seq(),
        db.store(prices).len()
    );

    // The feed saw every commit, gapless, exactly as a synchronous
    // loop of apply() would have produced it.
    let events = db.drain(&feed);
    assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), (1..=8).collect::<Vec<_>>());

    // --- DropAndMark: lag is explicit, recovery is a snapshot --------
    // A dashboard that only keeps the freshest state bounds its queue
    // and accepts losing intermediate deltas — but never silently.
    let dashboard = db.subscribe_with(prices, Some(2), SlowConsumerPolicy::DropAndMark);
    for i in 0..5 {
        db.apply(format!("insert <tick>d{i}</tick> into //feed"))?;
    }
    let mut lagged_over = None;
    let mut tail = Vec::new();
    for event in dashboard.drain() {
        match event {
            FeedEvent::Lagged(l) => lagged_over = Some(l.missed_range.clone()),
            FeedEvent::Delta(d) => tail.push(d.seq),
        }
    }
    let missed = lagged_over.expect("3 of 5 events overflowed the capacity-2 queue");
    println!("dashboard lagged over commits {missed:?}, then drained {tail:?}");
    // Re-seed from an MVCC snapshot and replay only what's newer: the
    // mirror converges without ever replaying the missed history.
    let snap = db.snapshot();
    let mut mirror = snap.store(prices).clone();
    db.apply("insert <tick>fresh</tick> into //feed")?;
    for event in dashboard.drain() {
        let d = event.delta().expect("a keeping-up consumer never lags");
        if d.seq > snap.seq() {
            d.delta.replay(&mut mirror);
        }
    }
    assert!(mirror.identical_to(db.store(prices)), "snapshot re-seed converges");
    db.unsubscribe(dashboard);

    // --- Block: backpressure without loss ----------------------------
    // An auditor that must see everything bounds its queue and blocks
    // the *sealer* (never the submitter) when it falls behind.
    let auditor = db.subscribe_with(prices, Some(1), SlowConsumerPolicy::Block);
    let before = db.last_seq();
    let submit = Instant::now();
    let t1 = db.apply_async(["insert <tick>a1</tick> into //feed"])?;
    let t2 = db.apply_async(["insert <tick>a2</tick> into //feed"])?;
    println!("submission stayed non-blocking under backpressure ({:?})", submit.elapsed());
    // The capacity-1 queue fills after the first seal; draining is what
    // lets the service finish the second (drain/pending never touch
    // the database core, which the service holds, for exactly this
    // reason).
    let mut audited = Vec::new();
    while audited.len() < 2 {
        audited.extend(db.drain(&auditor).into_iter().map(|e| e.seq));
    }
    assert_eq!(audited, vec![before + 1, before + 2]);
    t1.wait()?;
    t2.wait()?;
    db.unsubscribe(auditor);

    // --- Disconnect: fall behind, fall off ---------------------------
    let fragile = db.subscribe_with(prices, Some(1), SlowConsumerPolicy::Disconnect);
    db.apply("insert <tick>x</tick> into //feed")?; // fills the queue
    db.apply("insert <tick>y</tick> into //feed")?; // overflows: torn down
    assert!(fragile.is_disconnected());
    assert!(fragile.drain().is_empty(), "a disconnected feed delivers nothing");
    println!("fragile consumer disconnected at seq {}", db.last_seq());
    db.unsubscribe(fragile);

    // Whatever the interleaving, the database itself is deterministic:
    // same statements, same stores, same commit count as a synchronous
    // replay. (tests/fault_injection.rs proves this holds even when a
    // commit panics mid-seal.)
    println!("final state: {} ticks across {} commits", db.store(prices).len(), db.last_seq());
    Ok(())
}
