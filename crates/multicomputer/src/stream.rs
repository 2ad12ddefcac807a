//! Per-stream ordering and reassembly for chunked transfers.
//!
//! The interconnect delivers 256-bit packets; the DBMS layers above it
//! ship query results as *streams* of chunks (one message per batch,
//! terminated by an end-of-stream marker carrying the chunk count). A
//! coordinator fanning out one subplan to many fragments receives all of
//! those streams interleaved on a single mailbox, and nothing in the
//! transport guarantees that chunk `seq = 3` of a stream arrives after
//! `seq = 2` — a rerouted packet train, or a future fragment→fragment
//! relay, may reorder them.
//!
//! [`StreamReassembly`] is the transport-side answer: it accepts chunks
//! tagged `(stream, seq)` in any arrival order, buffers ahead-of-order
//! chunks, and releases each stream's chunks strictly in `seq` order. A
//! stream is *complete* once its end marker has been seen **and** every
//! `seq` below the advertised count has been released — an end marker
//! overtaking its last chunks parks the stream as ending rather than
//! closing it early. Duplicate or out-of-range sequence numbers are
//! protocol errors, not silent drops — including traffic for a stream
//! that already completed: a second end marker (or a straggler chunk)
//! after completion is reported as the duplicate it is, never confused
//! with an unknown stream and never silently accepted.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::HashSet;

use prisma_types::{PrismaError, Result};

/// Reassembly state for one chunk stream.
#[derive(Debug)]
struct StreamState<T> {
    /// Next sequence number owed to the consumer.
    next_seq: u64,
    /// Chunks that arrived ahead of order, keyed by sequence.
    pending: BTreeMap<u64, T>,
    /// Advertised chunk count, once the end marker arrived.
    seq_count: Option<u64>,
}

impl<T> StreamState<T> {
    fn new() -> Self {
        StreamState {
            next_seq: 0,
            pending: BTreeMap::new(),
            seq_count: None,
        }
    }

    fn is_complete(&self) -> bool {
        self.seq_count == Some(self.next_seq) && self.pending.is_empty()
    }
}

/// Reassembles a fixed set of chunk streams arriving interleaved and
/// possibly out of order on one mailbox.
///
/// `T` is the chunk payload (a tuple batch, a bucket set, …); streams are
/// identified by the caller's correlation tag.
#[derive(Debug)]
pub struct StreamReassembly<T> {
    streams: HashMap<u64, StreamState<T>>,
    /// Tags whose streams already completed — kept so late traffic for a
    /// finished stream is reported as a duplicate, not "unknown stream".
    done: HashSet<u64>,
    /// Tags retired by failover: the sender is presumed dead and its
    /// stream was re-issued under a fresh (epoch-bumped) tag, so any
    /// traffic still arriving under a retired tag is *stale*, not a
    /// protocol violation — it is silently discarded.
    retired: HashSet<u64>,
}

impl<T> StreamReassembly<T> {
    /// Track `tags` as the expected streams (one per fragment fan-out).
    pub fn expecting(tags: impl IntoIterator<Item = u64>) -> Self {
        StreamReassembly {
            streams: tags.into_iter().map(|t| (t, StreamState::new())).collect(),
            done: HashSet::new(),
            retired: HashSet::new(),
        }
    }

    /// Start expecting one more stream (a failover re-issue under a fresh
    /// tag). No-op if the tag is already tracked.
    pub fn expect(&mut self, tag: u64) {
        if !self.done.contains(&tag) && !self.retired.contains(&tag) {
            self.streams.entry(tag).or_insert_with(StreamState::new);
        }
    }

    /// Retire an open stream: its sender is presumed dead and a
    /// replacement stream was (or will be) issued under a different tag.
    /// Buffered chunks are dropped, the tag no longer blocks
    /// [`Self::all_complete`], and late traffic under it — chunks from a
    /// not-quite-dead primary racing the failover — is silently ignored
    /// instead of corrupting the merge or erroring the query. Returns the
    /// number of buffered chunks discarded. Completed streams cannot be
    /// retired (their output was already consumed).
    pub fn retire(&mut self, tag: u64) -> usize {
        if self.done.contains(&tag) {
            return 0;
        }
        let dropped = self
            .streams
            .remove(&tag)
            .map_or(0, |s| s.pending.len() + s.next_seq as usize);
        self.retired.insert(tag);
        dropped
    }

    /// True when `tag` was retired by failover.
    pub fn is_retired(&self, tag: u64) -> bool {
        self.retired.contains(&tag)
    }

    fn state(&mut self, tag: u64, what: &str) -> Result<&mut StreamState<T>> {
        if self.done.contains(&tag) {
            return Err(PrismaError::Execution(format!(
                "stream {tag}: {what} after stream completed"
            )));
        }
        self.streams.get_mut(&tag).ok_or_else(|| {
            PrismaError::Execution(format!("{what} for unknown stream {tag}"))
        })
    }

    /// Accept chunk `seq` of stream `tag`, appending any chunks this
    /// releases (in sequence order) to `out`. Duplicates and sequence
    /// numbers at or beyond an advertised end are protocol errors.
    pub fn accept(&mut self, tag: u64, seq: u64, chunk: T, out: &mut Vec<T>) -> Result<()> {
        if self.retired.contains(&tag) {
            return Ok(()); // stale traffic from a failed-over sender
        }
        let state = self.state(tag, "chunk")?;
        if state.seq_count.is_some_and(|n| seq >= n) {
            return Err(PrismaError::Execution(format!(
                "stream {tag}: chunk {seq} past advertised end {:?}",
                state.seq_count
            )));
        }
        if seq < state.next_seq || state.pending.contains_key(&seq) {
            return Err(PrismaError::Execution(format!(
                "stream {tag}: duplicate chunk {seq}"
            )));
        }
        state.pending.insert(seq, chunk);
        while let Some(chunk) = state.pending.remove(&state.next_seq) {
            state.next_seq += 1;
            out.push(chunk);
        }
        self.note_progress(tag);
        Ok(())
    }

    /// Accept stream `tag`'s end marker advertising `seq_count` chunks.
    /// The stream stays open until every chunk below the count has been
    /// released; a count smaller than what already arrived is a protocol
    /// error, and so is a second end marker — whether the stream is still
    /// open or already completed.
    pub fn finish(&mut self, tag: u64, seq_count: u64) -> Result<()> {
        if self.retired.contains(&tag) {
            return Ok(()); // stale traffic from a failed-over sender
        }
        let state = self.state(tag, "end-of-stream")?;
        if state.seq_count.is_some() {
            return Err(PrismaError::Execution(format!(
                "stream {tag}: duplicate end-of-stream"
            )));
        }
        // saturating: a buffered chunk at seq u64::MAX must not overflow
        // the high-water computation (it makes every finite count an
        // undercount, which is the right verdict).
        let seen = state
            .pending
            .keys()
            .next_back()
            .map_or(state.next_seq, |k| k.saturating_add(1));
        if seq_count < seen {
            return Err(PrismaError::Execution(format!(
                "stream {tag}: end advertises {seq_count} chunks but {seen} arrived"
            )));
        }
        state.seq_count = Some(seq_count);
        self.note_progress(tag);
        Ok(())
    }

    fn note_progress(&mut self, tag: u64) {
        if self.streams[&tag].is_complete() {
            self.streams.remove(&tag);
            self.done.insert(tag);
        }
    }

    /// True once every expected stream has delivered all its chunks and
    /// its end marker.
    pub fn all_complete(&self) -> bool {
        self.streams.is_empty()
    }

    /// True once stream `tag` has delivered all its chunks and its end
    /// marker.
    pub fn is_complete(&self, tag: u64) -> bool {
        self.done.contains(&tag)
    }

    /// Streams completed so far.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Tags of streams still owed chunks or an end marker (sorted — the
    /// coordinator names these in timeout errors).
    pub fn open_streams(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.streams.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery_releases_immediately() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([0, 1]);
        let mut out = Vec::new();
        r.accept(0, 0, 10, &mut out).unwrap();
        r.accept(1, 0, 20, &mut out).unwrap();
        r.accept(0, 1, 11, &mut out).unwrap();
        assert_eq!(out, vec![10, 20, 11]);
        assert!(!r.all_complete());
        r.finish(0, 2).unwrap();
        r.finish(1, 1).unwrap();
        assert!(r.all_complete());
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn out_of_order_chunks_are_buffered_and_released_in_seq_order() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([7]);
        let mut out = Vec::new();
        r.accept(7, 2, 2, &mut out).unwrap();
        r.accept(7, 1, 1, &mut out).unwrap();
        assert!(out.is_empty(), "nothing released before seq 0");
        r.accept(7, 0, 0, &mut out).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn end_marker_overtaking_chunks_keeps_stream_open() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([3]);
        let mut out = Vec::new();
        r.finish(3, 2).unwrap();
        assert!(!r.all_complete());
        assert_eq!(r.open_streams(), vec![3]);
        r.accept(3, 1, 1, &mut out).unwrap();
        r.accept(3, 0, 0, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
        assert!(r.all_complete());
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([0]);
        let mut out = Vec::new();
        r.accept(0, 0, 0, &mut out).unwrap();
        assert!(r.accept(0, 0, 0, &mut out).is_err(), "duplicate seq");
        assert!(r.accept(9, 0, 0, &mut out).is_err(), "unknown stream");
        r.finish(0, 3).unwrap();
        assert!(r.accept(0, 5, 5, &mut out).is_err(), "past advertised end");
        assert!(r.finish(0, 3).is_err(), "duplicate end");
        // Empty stream completes on the marker alone.
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([1]);
        r.finish(1, 0).unwrap();
        assert!(r.all_complete());
    }

    #[test]
    fn traffic_for_a_completed_stream_is_a_protocol_error() {
        // Regression: a duplicate StreamEnd for a tag that already
        // completed used to surface as a confusing "unknown stream"
        // (completed streams were dropped from the map); it must be a
        // duplicate-end protocol error, and straggler chunks after
        // completion must be duplicates too.
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([0, 1]);
        let mut out = Vec::new();
        r.accept(0, 0, 0, &mut out).unwrap();
        r.finish(0, 1).unwrap();
        assert_eq!(r.completed(), 1, "stream 0 is complete");
        let err = r.finish(0, 1).unwrap_err().to_string();
        assert!(
            err.contains("stream 0") && err.contains("after stream completed"),
            "duplicate end for a completed stream mis-reported: {err}"
        );
        let err = r.accept(0, 0, 9, &mut out).unwrap_err().to_string();
        assert!(
            err.contains("after stream completed"),
            "straggler chunk for a completed stream mis-reported: {err}"
        );
        // A genuinely unknown stream still says so.
        let err = r.finish(42, 0).unwrap_err().to_string();
        assert!(err.contains("unknown stream 42"), "{err}");
        // The still-open stream is unaffected by the rejected traffic.
        r.finish(1, 0).unwrap();
        assert!(r.all_complete());
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn undercounting_end_marker_is_an_error() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([0]);
        let mut out = Vec::new();
        r.accept(0, 4, 4, &mut out).unwrap();
        assert!(r.finish(0, 2).is_err());
    }

    #[test]
    fn retired_streams_ignore_stale_traffic_and_unblock_completion() {
        let mut r: StreamReassembly<u32> = StreamReassembly::expecting([0, 1]);
        let mut out = Vec::new();
        r.accept(0, 0, 10, &mut out).unwrap();
        r.accept(0, 2, 12, &mut out).unwrap(); // one released, one buffered

        // PE hosting stream 0 dies; failover retires the tag and re-issues
        // under a fresh one.
        assert_eq!(r.retire(0), 2, "released + buffered chunks discarded");
        assert!(r.is_retired(0));
        assert!(!r.open_streams().contains(&0));

        // Stale traffic from the dead primary is silently ignored — no
        // output, no error, even for would-be protocol violations.
        let before = out.len();
        r.accept(0, 1, 11, &mut out).unwrap();
        r.accept(0, 0, 10, &mut out).unwrap(); // duplicate of a discarded chunk
        r.finish(0, 3).unwrap();
        r.finish(0, 3).unwrap(); // even a duplicate end is stale, not an error
        assert_eq!(out.len(), before, "stale chunks never released");

        // The replacement stream under a fresh tag behaves normally.
        r.expect(100);
        r.accept(100, 0, 20, &mut out).unwrap();
        r.finish(100, 1).unwrap();
        r.finish(1, 0).unwrap();
        assert!(r.all_complete());
        assert_eq!(out, vec![10, 20]);

        // Completed streams cannot be retired out of the done set.
        assert_eq!(r.retire(1), 0);
        assert!(r.finish(1, 0).is_err(), "still a duplicate end");
        // expect() on a retired tag stays retired.
        r.expect(0);
        assert!(r.is_retired(0));
        assert!(r.all_complete());
    }
}

#[cfg(test)]
mod proptests {
    //! Shuffled-delivery property tests for the reassembly error paths:
    //! whatever order the transport delivers chunks and end markers in,
    //! completion, duplicate detection, end-overtaking and seq-overflow
    //! handling must hold.

    use super::*;
    use proptest::prelude::*;

    /// Deterministic Fisher–Yates driven by a splitmix-style step, so a
    /// failing case reproduces from the generated seed alone.
    fn shuffle<T>(v: &mut [T], mut seed: u64) {
        for i in (1..v.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((seed >> 33) as usize) % (i + 1);
            v.swap(i, j);
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Chunk(u64, u64),
        End(u64, u64),
    }

    /// All chunks + end markers of `chunk_counts` streams, shuffled.
    fn delivery(chunk_counts: &[u64], seed: u64) -> Vec<Ev> {
        let mut evs = Vec::new();
        for (t, &n) in chunk_counts.iter().enumerate() {
            let t = t as u64;
            for s in 0..n {
                evs.push(Ev::Chunk(t, s));
            }
            evs.push(Ev::End(t, n));
        }
        shuffle(&mut evs, seed);
        evs
    }

    proptest! {
        #[test]
        fn any_delivery_order_reassembles_every_stream(
            chunk_counts in prop::collection::vec(0u64..8, 1..5),
            seed in 0u64..u64::MAX,
        ) {
            let mut r: StreamReassembly<(u64, u64)> =
                StreamReassembly::expecting(0..chunk_counts.len() as u64);
            let mut out = Vec::new();
            for ev in delivery(&chunk_counts, seed) {
                match ev {
                    Ev::Chunk(t, s) => r.accept(t, s, (t, s), &mut out).unwrap(),
                    Ev::End(t, n) => r.finish(t, n).unwrap(),
                }
            }
            prop_assert!(r.all_complete());
            prop_assert_eq!(r.completed(), chunk_counts.len());
            // Per stream, chunks were released strictly in seq order and
            // exactly once each.
            for (t, &n) in chunk_counts.iter().enumerate() {
                let seqs: Vec<u64> = out
                    .iter()
                    .filter(|&&(tag, _)| tag == t as u64)
                    .map(|&(_, s)| s)
                    .collect();
                prop_assert_eq!(seqs, (0..n).collect::<Vec<u64>>());
            }
        }

        #[test]
        fn traffic_after_completion_is_always_a_duplicate_error(
            n in 1u64..6,
            seed in 0u64..u64::MAX,
            extra in 0u64..8,
        ) {
            let mut r: StreamReassembly<u64> = StreamReassembly::expecting([0]);
            let mut out = Vec::new();
            for ev in delivery(&[n], seed) {
                match ev {
                    Ev::Chunk(_, s) => r.accept(0, s, s, &mut out).unwrap(),
                    Ev::End(_, c) => r.finish(0, c).unwrap(),
                }
            }
            prop_assert!(r.all_complete());
            // A straggler chunk — any seq — and a duplicate end marker are
            // both protocol errors naming the completed stream.
            let err = r.accept(0, extra % n, 0, &mut out).unwrap_err().to_string();
            prop_assert!(err.contains("after stream completed"), "{}", err);
            let err = r.finish(0, n).unwrap_err().to_string();
            prop_assert!(err.contains("after stream completed"), "{}", err);
        }

        #[test]
        fn duplicate_end_marker_errors_at_any_point(
            n in 1u64..6,
            deliver_before in 0u64..6,
        ) {
            // Deliver some prefix of chunks, the end marker, then a second
            // end marker: the duplicate must error whether the stream is
            // still open or just completed.
            let mut r: StreamReassembly<u64> = StreamReassembly::expecting([0]);
            let mut out = Vec::new();
            let k = deliver_before.min(n);
            for s in 0..k {
                r.accept(0, s, s, &mut out).unwrap();
            }
            r.finish(0, n).unwrap();
            let err = r.finish(0, n).unwrap_err().to_string();
            prop_assert!(
                err.contains("duplicate end-of-stream") || err.contains("after stream completed"),
                "{}", err
            );
        }

        #[test]
        fn end_marker_overtaking_chunks_never_closes_early(
            n in 1u64..8,
            seed in 0u64..u64::MAX,
        ) {
            // End first, chunks after, in any order: the stream must stay
            // open until the last chunk and then complete exactly.
            let mut r: StreamReassembly<u64> = StreamReassembly::expecting([0]);
            let mut out = Vec::new();
            r.finish(0, n).unwrap();
            let mut seqs: Vec<u64> = (0..n).collect();
            shuffle(&mut seqs, seed);
            for (i, &s) in seqs.iter().enumerate() {
                prop_assert!(!r.all_complete(), "closed early at {}/{}", i, n);
                r.accept(0, s, s, &mut out).unwrap();
            }
            prop_assert!(r.all_complete());
            prop_assert_eq!(out, (0..n).collect::<Vec<u64>>());
        }

        #[test]
        fn seqs_at_or_past_the_advertised_end_are_rejected(
            n in 1u64..6,
            past in 0u64..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut r: StreamReassembly<u64> = StreamReassembly::expecting([0]);
            let mut out = Vec::new();
            r.finish(0, n).unwrap();
            let err = r.accept(0, n + past, 0, &mut out).unwrap_err().to_string();
            prop_assert!(err.contains("past advertised end"), "{}", err);
            // The extreme: seq u64::MAX is always out of range once an end
            // is advertised…
            let err = r.accept(0, u64::MAX, 0, &mut out).unwrap_err().to_string();
            prop_assert!(err.contains("past advertised end"), "{}", err);
            // …and the rejected traffic must not poison the real stream.
            let mut seqs: Vec<u64> = (0..n).collect();
            shuffle(&mut seqs, seed);
            for &s in &seqs {
                r.accept(0, s, s, &mut out).unwrap();
            }
            prop_assert!(r.all_complete());
        }

        #[test]
        fn buffered_max_seq_does_not_overflow_the_end_check(
            count in 0u64..6,
        ) {
            // A chunk at seq u64::MAX arriving *before* the end marker is
            // buffered; the later end marker's high-water computation must
            // saturate instead of overflowing, and every finite count is
            // then an undercount.
            let mut r: StreamReassembly<u64> = StreamReassembly::expecting([0]);
            let mut out = Vec::new();
            r.accept(0, u64::MAX, 99, &mut out).unwrap();
            let err = r.finish(0, count).unwrap_err().to_string();
            prop_assert!(err.contains("arrived"), "{}", err);
        }
    }
}
