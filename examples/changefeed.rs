//! Changefeed over a socket: a remote consumer mirrors a view by
//! replaying its delta stream, byte for byte.
//!
//! A [`Database`] computes per-view deltas on every commit (that is
//! the paper's whole point). In-process, `subscribe` turns one view
//! into a feed of [`DeltaEvent`]s; across processes, a [`FeedServer`]
//! frames the same events onto TCP and a [`ReplicaClient`] maintains
//! a byte-identical copy of the store — `O(|Δ|)` per commit, never a
//! store clone, resumable after a crash from the replica's own
//! high-water mark. Deferred views ride the same stream: their
//! refresh commit carries one coalesced delta whose `folded` range
//! names the commits it batched.
//!
//! ```sh
//! cargo run --release --example changefeed
//! ```

use xivm::prelude::*;
use xivm::update::builder::{delete, element, insert, replace};

fn order(sku: &str) -> UpdateBuilder {
    insert(element("order").child(element("sku").text(sku))).into("//orders")
}

fn main() -> Result<(), Error> {
    // An order book: one document, one view a downstream consumer
    // (index, cache, dashboard) mirrors — from another process.
    let mut db = Database::builder()
        .document(
            "<shop>\
               <orders>\
                 <order><sku>tea</sku></order>\
               </orders>\
               <audit/>\
             </shop>",
        )
        .view("skus", "//order{id}/sku{id,val}")
        .build()?;
    let skus = db.view("skus")?;

    // Serve the view's changefeed on a localhost socket (retain the
    // last 64 events for resume-by-replay), and keep a local feed so
    // this process can narrate the deltas it ships. The local feed is
    // explicitly unbounded: this single thread produces and consumes,
    // so a bounded `Block` queue would deadlock against itself.
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, skus, 64).expect("bind feed server");
    let feed = db.subscribe_with(skus, None, SlowConsumerPolicy::Block);
    println!("serving view `skus` on {}", server.local_addr());

    // The consumer — normally in another process: its handshake pulls
    // a snapshot of the current store, then only deltas flow.
    let mut replica = ReplicaClient::connect(server.local_addr(), "skus").expect("connect replica");

    // Business as usual, with typed statements: orders arrive, the
    // tea order is swapped for mate, spam is purged, and unrelated
    // subtrees churn without touching the view.
    db.apply(order("coffee"))?;
    db.apply(insert(element("entry").text("day 1")).into("//audit"))?; // does not touch the view
    db.transaction().statement(order("spam")).statement(order("cocoa")).commit()?;
    db.apply(
        replace(r#"//order[sku = "tea"]"#)
            .with(element("order").child(element("sku").text("mate"))),
    )?;
    db.apply(delete(r#"//order[sku = "spam"]"#))?;

    // Ship everything committed so far and let the replica catch up.
    server.pump(&db);
    replica.sync_to(db.last_seq()).expect("replica syncs");
    assert!(replica.identical_to(db.store(skus)), "replica must be byte-identical");

    println!("\nshipped {} commits; per-event weights:", db.last_seq());
    for event in db.drain(&feed) {
        let net: i64 = event.delta.rows().iter().map(|(_, weight)| weight).sum();
        println!(
            "  commit #{}: net weight {:+}{}",
            event.seq,
            net,
            if event.delta.is_empty() { "  (did not touch the view)" } else { "" },
        );
    }

    // Crash mid-stream: the socket dies, commits keep flowing, and
    // the resumed connection replays exactly the missed range from
    // the server's retained window (or falls back to a snapshot if
    // the window were outrun).
    replica.kill();
    db.apply(order("juice"))?;
    db.apply(delete("//audit/entry"))?;
    server.pump(&db);
    replica.reconnect().expect("reconnect after crash");
    replica.sync_to(db.last_seq()).expect("resume syncs");
    assert!(replica.identical_to(db.store(skus)), "resume must converge");
    println!(
        "\ncrashed and resumed: replica back in sync at seq {} after {} reconnect(s)",
        replica.seq(),
        replica.reconnects()
    );

    // Deferred maintenance: take the view off the commit path. The
    // next commits seal without touching the store (their events
    // carry empty deltas), then one refresh folds the whole batch
    // into a single commit — and a single replicated event.
    db.set_maintenance(skus, MaintenanceMode::Deferred)?;
    db.apply(order("matcha"))?;
    db.apply(order("sencha"))?;
    assert_eq!(db.deferred_commits(skus), 2);
    let refresh = db.refresh(skus)?.expect("a batch was pending");
    server.pump(&db);
    replica.sync_to(db.last_seq()).expect("replica folds the refresh");
    assert!(replica.identical_to(db.store(skus)), "folded refresh must converge");

    let events = db.drain(&feed);
    let folded = events.last().and_then(|e| e.folded.clone()).expect("refresh event folds");
    println!(
        "\ndeferred: commits {}..={} left the store untouched; refresh commit #{} folded {:?}",
        folded.start(),
        folded.end(),
        refresh.seq,
        folded
    );

    // The mirrored order book, read back from the replica's store.
    println!(
        "\nreplica order book ({} tuples, seq {}):",
        replica.store().unwrap().len(),
        replica.seq()
    );
    for (tuple, count) in replica.store().unwrap().cursor() {
        let sku = tuple.field(1).val.as_deref().unwrap_or("?");
        println!("  sku {sku:<8} x{count}");
    }
    assert_eq!(db.store(skus).len(), 6);

    db.unsubscribe(feed);
    server.close(&mut db);
    Ok(())
}
