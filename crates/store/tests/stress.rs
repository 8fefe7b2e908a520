//! Multi-thread store stress tests: the concurrency contract behind
//! `warpstl serve` sharing one `Arc<Store>` across a worker pool.
//!
//! The store's safety story is *atomic rename, not locks*: concurrent
//! same-key writers each stage a private temp file and rename it over the
//! entry, so the entry file only ever holds one complete, checksummed
//! write (last writer wins). Readers that lose every race still only
//! degrade to plain misses. These tests hammer that story from many
//! threads at once — including a concurrent `gc` — and assert that no
//! read ever returns torn bytes and no benign race is miscounted as
//! corruption.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use warpstl_store::{Key, Store};

fn temp_store(tag: &str) -> Store {
    let dir =
        std::env::temp_dir().join(format!("warpstl-store-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

/// Concurrent same-key writers + readers + a gc loop. Every successful
/// read must be one of the payloads some writer actually wrote (the
/// checksum inside `get` already proves the bytes are untorn; this also
/// proves they are *ours*), and the corrupt-miss counter must stay at
/// zero — vanished or in-flight entries are plain misses, never
/// corruption.
#[test]
fn concurrent_same_key_writers_yield_only_whole_checksummed_reads() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: usize = 200;

    let store = Arc::new(temp_store("same-key"));
    let key = Key(0xA11);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    for w in 0..WRITERS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                // Distinct valid payloads per (writer, round): a torn
                // read could not produce any of these under a checksum.
                let payload = format!("payload-{w}-{round}");
                store.put(key, payload.as_bytes(), None);
            }
        }));
    }

    let mut reader_handles = Vec::new();
    for _ in 0..READERS {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        reader_handles.push(std::thread::spawn(move || {
            let mut observed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if let Some(bytes) = store.get(key, None) {
                    let text = String::from_utf8(bytes).expect("payloads are UTF-8");
                    assert!(
                        text.starts_with("payload-"),
                        "read returned bytes no writer wrote: {text:?}"
                    );
                    observed += 1;
                }
            }
            observed
        }));
    }

    // gc runs concurrently with the writers the whole time. The default
    // temp age threshold protects in-flight temp files; all entries the
    // scan sees are valid, so gc must remove nothing.
    let gc_removed = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut removed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                removed += store.gc().unwrap().0;
                std::thread::sleep(Duration::from_millis(1));
            }
            removed
        })
    };

    for handle in handles {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let observed: usize = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(gc_removed.join().unwrap(), 0, "gc deleted live state");

    // Last writer wins: the settled entry is one whole write, and the
    // final read (after all writers joined) sees some writer's last round.
    let settled = store.get(key, None).unwrap();
    let text = String::from_utf8(settled).unwrap();
    let last_round = format!("-{}", ROUNDS - 1);
    assert!(
        text.starts_with("payload-") && text.ends_with(&last_round),
        "settled entry is not a final-round write: {text:?}"
    );

    let stats = store.session();
    assert_eq!(
        stats.corrupt, 0,
        "a concurrent read was miscounted as corruption"
    );
    assert_eq!(stats.version_mismatch, 0);
    assert_eq!(stats.write_errors, 0, "gc raced a writer's temp file");
    assert!(observed > 0 || stats.hits > 0, "readers never saw a write");
    let _ = std::fs::remove_dir_all(store.root());
}

/// Writers on *distinct* keys racing a `clear` loop: every read is either
/// a whole write or a miss, and the maintenance lock serializes the two
/// `clear`/`gc` loops (no double-accounted removals, no errors).
#[test]
fn concurrent_clear_and_gc_degrade_reads_to_plain_misses() {
    const KEYS: u64 = 8;
    const ROUNDS: usize = 100;

    let store = Arc::new(temp_store("clear-race"));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                for k in 0..KEYS {
                    let payload = format!("entry-{k}-{round}");
                    store.put(Key(k.into()), payload.as_bytes(), None);
                }
            }
        })
    };
    let mut maintenance = Vec::new();
    for _ in 0..2 {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        maintenance.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.clear().unwrap();
                store.gc().unwrap();
            }
        }));
    }
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for k in 0..KEYS {
                    if let Some(bytes) = store.get(Key(k.into()), None) {
                        let text = String::from_utf8(bytes).expect("payloads are UTF-8");
                        assert!(text.starts_with(&format!("entry-{k}-")));
                    }
                }
            }
        })
    };

    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for handle in maintenance {
        handle.join().unwrap();
    }
    reader.join().unwrap();

    let stats = store.session();
    assert_eq!(stats.corrupt, 0, "clear/gc races must read as plain misses");
    assert_eq!(stats.version_mismatch, 0);
    let _ = std::fs::remove_dir_all(store.root());
}
