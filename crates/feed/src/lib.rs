//! Socket replication of xivm view changefeeds.
//!
//! A [`FeedServer`] owns a subscription on one view of a
//! [`Database`](xivm_core::database::Database) and broadcasts every
//! commit's [`DeltaEvent`](xivm_core::DeltaEvent) — framed with
//! [`xivm_core::snapshot::encode_event`] — to any number of TCP
//! replicas. A [`ReplicaClient`] maintains a **byte-identical** copy
//! of the view's store (`encode_store(replica) ==
//! encode_store(source)` after syncing to the source's sequence
//! number) by replaying the stream.
//!
//! Resumption is first-class: a client reconnecting after a crash
//! offers its high-water mark, and the server either replays the
//! missing events from a bounded retained window or answers with a
//! full store snapshot plus resume point — correct either way, with
//! bounded server memory. `Lagged` markers (a bounded subscription
//! under [`DropAndMark`](xivm_core::SlowConsumerPolicy::DropAndMark)
//! that overflowed) propagate to every replica, which recover through
//! the same reconnect path. Deferred views compose transparently: a
//! refresh commit is one ordinary event whose
//! [`folded`](xivm_core::DeltaEvent::folded) range names the commits
//! it coalesces, so replicas fold the whole batch atomically.
//!
//! See [`wire`] for the exact byte layout.
//!
//! ```no_run
//! use xivm_core::database::Database;
//! use xivm_feed::{FeedServer, ReplicaClient};
//!
//! let mut db = Database::builder()
//!     .document("<a><b/></a>")
//!     .view("ab", "//a{id}//b{id}")
//!     .build()
//!     .unwrap();
//! let ab = db.view("ab").unwrap();
//! let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 64).unwrap();
//!
//! // Typically in another process:
//! let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();
//!
//! db.apply("insert <b/> into /a").unwrap();
//! server.pump(&db);
//! replica.sync_to(db.last_seq()).unwrap();
//! assert!(replica.identical_to(db.store(ab)));
//! ```

#![forbid(unsafe_code)]

pub mod wire;

mod client;
mod server;

pub use client::ReplicaClient;
pub use server::FeedServer;
pub use wire::{FeedError, FrameKind, MAX_FRAME, PROTOCOL_VERSION};
