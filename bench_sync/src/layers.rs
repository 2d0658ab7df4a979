//! Per-layer numbers of a traced run.
//!
//! Two sources, kept apart in the report:
//!
//! * **spans** — the program's own spans (`sync.round`, `lock.*`,
//!   `meta.*`, `engine.*`, `wire.attempt`) plus the benchmark's
//!   `folder.*` spans, attributed to the measured round whose
//!   `sync.round` they descend from (or, for folder spans, whose
//!   window they fall in);
//! * **replays** — the kernels (Rabin cut points, SHA-1, RS encode and
//!   decode, image encode/decode, DES-CBC) re-run on the round's data
//!   after the round. They are a cost model of work the round did
//!   inline, not an attribution of the round's time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use unidrive::chunker::{cut_points, ChunkerConfig};
use unidrive::crypto::{MetadataCipher, Sha1};
use unidrive::erasure::{Codec, RedundancyConfig};
use unidrive::meta::{SegmentId, SyncFolderImage};
use unidrive::obs::{FieldValue, SpanRecord};
use unidrive::util::bytes::Bytes;

/// Named per-round values (milliseconds, counts or bytes).
pub type Values = BTreeMap<String, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Registry-clock windows of one measured round's two `sync_once` calls.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub commit: (u64, u64),
    pub fetch: (u64, u64),
}

/// Spans that account for a round's time: the union of their
/// intervals is subtracted from `sync.round` to give
/// `round.unattributed_ms`.
const ATTRIBUTED: [&str; 8] = [
    "lock.acquire",
    "lock.release",
    "lock.break",
    "lock.refresh",
    "meta.read",
    "meta.merge",
    "meta.commit",
    "engine.batch",
];

fn label_is(span: &SpanRecord, key: &str, want: &str) -> bool {
    matches!(span.attr(key), Some(FieldValue::S(s)) if s == want)
}

fn flag(span: &SpanRecord, key: &str) -> bool {
    matches!(span.attr(key), Some(FieldValue::B(true)))
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Attributes `spans` to the measured rounds given by `windows`
/// (device A's commit and device B's fetch), returning one set of
/// values per round.
pub fn from_spans(
    spans: &[SpanRecord],
    windows: &[Windows],
    device_a: &str,
    device_b: &str,
) -> Vec<Values> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let root_of = |mut id: u64| {
        while let Some(p) = by_id
            .get(&id)
            .map(|s| s.parent)
            .filter(|p| by_id.contains_key(p))
        {
            id = p;
        }
        id
    };
    let mut descendants: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    let mut rounds: Vec<&SpanRecord> = Vec::new();
    let mut folder: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.name {
            "sync.round" => rounds.push(s),
            n if n.starts_with("folder.") => folder.push(s),
            _ if s.parent != 0 => descendants.entry(root_of(s.id)).or_default().push(s),
            _ => {}
        }
    }
    let find_round = |device: &str, (lo, hi): (u64, u64)| {
        rounds
            .iter()
            .find(|r| label_is(r, "device", device) && r.start_ns >= lo && r.end_ns <= hi)
            .copied()
    };
    windows
        .iter()
        .map(|w| {
            let mut v = Values::new();
            for (side, device, window) in
                [("commit", device_a, w.commit), ("fetch", device_b, w.fetch)]
            {
                let Some(round) = find_round(device, window) else {
                    continue;
                };
                let (lo, hi) = (round.start_ns, round.end_ns);
                let mut add = |name: String, x: f64| *v.entry(name).or_insert(0.0) += x;
                let mut intervals = Vec::new();
                for s in folder
                    .iter()
                    .filter(|s| label_is(s, "device", device) && s.start_ns >= lo && s.end_ns <= hi)
                {
                    add(format!("{}_ms.{side}", s.name), ms(s.duration_ns()));
                    intervals.push((s.start_ns, s.end_ns));
                }
                for s in descendants.get(&round.id).map_or(&[][..], Vec::as_slice) {
                    match s.name {
                        "engine.batch" if label_is(s, "label", "upload") => {
                            add("engine.upload_batch_ms".into(), ms(s.duration_ns()))
                        }
                        "engine.batch" => {
                            add("engine.download_batch_ms".into(), ms(s.duration_ns()))
                        }
                        "engine.block" => {
                            add(format!("engine.blocks.{side}"), 1.0);
                            if flag(s, "extra") {
                                add(format!("engine.extra_blocks.{side}"), 1.0);
                            }
                        }
                        "wire.attempt" => add(format!("wire.attempts.{side}"), 1.0),
                        "meta.read" => add(format!("meta.read_ms.{side}"), ms(s.duration_ns())),
                        n if n.starts_with("lock.") || n.starts_with("meta.") => {
                            add(format!("{n}_ms"), ms(s.duration_ns()))
                        }
                        _ => {}
                    }
                    if ATTRIBUTED.contains(&s.name) {
                        intervals.push((s.start_ns, s.end_ns));
                    }
                }
                add(format!("round.wall_ms.{side}"), ms(hi - lo));
                add(
                    format!("round.unattributed_ms.{side}"),
                    ms(hi - lo - covered(intervals, lo, hi)),
                );
            }
            v
        })
        .collect()
}

/// Kernel configuration the replays use: the client's own.
pub struct Kernels {
    chunker: ChunkerConfig,
    redundancy: RedundancyConfig,
    cipher: MetadataCipher,
    codec: Codec,
}

impl Kernels {
    pub fn new(chunker: ChunkerConfig, redundancy: RedundancyConfig, passphrase: &str) -> Kernels {
        let codec = Codec::for_config(&redundancy).expect("paper redundancy is a valid codec");
        Kernels {
            chunker,
            redundancy,
            cipher: MetadataCipher::from_passphrase(passphrase),
            codec,
        }
    }

    /// Replays what committing `files` cost the kernels: cut points
    /// and SHA-1 over every file, RS encode of the normal blocks of
    /// each segment not in `known` and decode from `k` of them, then
    /// encode/decode and DES-CBC encrypt/decrypt of `image`.
    ///
    /// # Panics
    ///
    /// If a replayed decode or decrypt does not give back its input.
    pub fn replay(
        &self,
        files: &[(String, Bytes)],
        known: &HashSet<SegmentId>,
        image: &SyncFolderImage,
        nonce: u64,
    ) -> Values {
        let since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let mut v = Values::new();
        let mut segments: Vec<&[u8]> = Vec::new();
        let t = Instant::now();
        for (_, data) in files {
            for (offset, len) in black_box(cut_points(data, &self.chunker)) {
                segments.push(&data[offset..offset + len]);
            }
        }
        v.insert("chunker.segment_ms".into(), since(t));
        let t = Instant::now();
        let digests: Vec<_> = segments
            .iter()
            .map(|s| black_box(Sha1::digest(s)))
            .collect();
        v.insert("crypto.sha1_ms".into(), since(t));
        let chunked: usize = files.iter().map(|(_, d)| d.len()).sum();
        v.insert("chunker.bytes".into(), chunked as f64);

        let mut seen = HashSet::new();
        let fresh: Vec<&[u8]> = segments
            .iter()
            .zip(digests)
            .filter(|(_, d)| !known.contains(&SegmentId(*d)) && seen.insert(*d))
            .map(|(s, _)| *s)
            .collect();
        v.insert("erasure.new_segments".into(), fresh.len() as f64);
        let normal: Vec<usize> = (0..self.redundancy.normal_block_count()).collect();
        let (mut encode_ms, mut decode_ms) = (0.0, 0.0);
        for seg in fresh {
            let t = Instant::now();
            let blocks = black_box(self.codec.encode_blocks(seg, &normal));
            encode_ms += since(t);
            let shares: Vec<(usize, &[u8])> = normal
                .iter()
                .zip(&blocks)
                .take(self.codec.k())
                .map(|(i, b)| (*i, b.as_ref()))
                .collect();
            let t = Instant::now();
            let back = black_box(self.codec.decode(&shares, seg.len()));
            decode_ms += since(t);
            assert!(back.is_ok_and(|b| b == seg), "replayed RS decode lost data");
        }
        v.insert("erasure.encode_ms".into(), encode_ms);
        v.insert("erasure.decode_ms".into(), decode_ms);

        let t = Instant::now();
        let encoded = black_box(image.encode());
        let decoded = black_box(SyncFolderImage::decode(&encoded));
        v.insert("meta.encode_ms".into(), since(t));
        assert!(
            decoded.is_ok_and(|d| d == *image),
            "replayed image decode lost data"
        );
        v.insert("meta.image_bytes".into(), encoded.len() as f64);
        let t = Instant::now();
        let sealed = black_box(self.cipher.encrypt(&encoded, nonce));
        let opened = black_box(self.cipher.decrypt(&sealed));
        v.insert("meta.des_ms".into(), since(t));
        assert!(
            opened.is_ok_and(|o| o == encoded[..]),
            "replayed DES-CBC lost data"
        );
        v
    }
}
