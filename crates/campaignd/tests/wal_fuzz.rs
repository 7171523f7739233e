//! Deterministic fuzz smoke for the checkpoint WAL loader.
//!
//! Same philosophy as `http_parser.rs`: no external fuzzer, just a
//! fixed-seed splitmix64 stream. Each round writes a real WAL through
//! `WalWriter` with indices drawn from a small range (so duplicates are
//! common), damages its bytes the way a crash or a bad disk would — torn
//! tail, flipped checksum digit, random byte flips, another job's WAL
//! interleaved — and checks `load_wal` against what was written: it never
//! panics, it returns exactly the records before the first damaged line
//! (first write wins), and it errs only when the header line is damaged.

use std::collections::BTreeMap;
use std::path::Path;

use campaignd::checkpoint::{decode_result, load_wal, wal_path, WalWriter};
use platform::SimResult;

const JOB: &str = "job-0001-fuzzfuzz";
const OTHER_JOB: &str = "job-0002-elsewhere";

/// splitmix64, restated locally (same generator as `units::mix`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A record whose only varying field is the seed, which is all that
/// first-write-wins needs (the field codec has its own round-trip tests).
fn result(seed: u64) -> SimResult {
    let payload = format!(
        "{seed}|-|-|-|0|0|0|{:016x}|-|-|-|-|0|0|-|-|0|0|-|-|-|0|-|0",
        50f64.to_bits()
    );
    decode_result(&payload).expect("valid payload")
}

/// A WAL as written: its bytes, its records in append order, and the byte
/// offset one past each line's `\n` (header line first).
struct Written {
    bytes: Vec<u8>,
    records: Vec<(usize, SimResult)>,
    line_ends: Vec<usize>,
}

impl Written {
    /// Index of the record whose line (terminator included) holds byte
    /// `at`; `None` for the header line.
    fn record_at(&self, at: usize) -> Option<usize> {
        let line = self.line_ends.iter().position(|&end| at < end)?;
        line.checked_sub(1)
    }

    /// What the loader must return when only the first `n` records are
    /// intact: those records, first write wins.
    fn prefix(&self, n: usize) -> BTreeMap<usize, SimResult> {
        let mut cells = BTreeMap::new();
        for (idx, r) in &self.records[..n] {
            cells.entry(*idx).or_insert_with(|| r.clone());
        }
        cells
    }

    fn lines(&self) -> Vec<&[u8]> {
        let starts = std::iter::once(0).chain(self.line_ends.iter().copied());
        starts
            .zip(&self.line_ends)
            .map(|(start, &end)| &self.bytes[start..end])
            .collect()
    }
}

fn write_wal(rng: &mut Rng, path: &Path, job: &str) -> Written {
    let _ = std::fs::remove_file(path);
    let mut wal = WalWriter::open(path, job).expect("open wal");
    let records: Vec<(usize, SimResult)> = (0..rng.below(11))
        .map(|_| (rng.below(6), result(rng.next())))
        .collect();
    for (idx, r) in &records {
        wal.append_cell(*idx, r).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    let bytes = std::fs::read(path).expect("read wal");
    let line_ends: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    assert_eq!(line_ends.len(), records.len() + 1, "one line per record");
    Written {
        bytes,
        records,
        line_ends,
    }
}

/// Damages `w` one way; returns the mutant and how many leading records
/// survive it (`None`: the header is damaged, so loading must fail).
fn mutate(rng: &mut Rng, w: &Written, other: &Written) -> (Vec<u8>, Option<usize>) {
    match rng.below(5) {
        0 => (w.bytes.clone(), Some(w.records.len())),
        1 => {
            // Torn tail. A line whose text is complete survives without
            // its `\n`; the header line is judged the same way.
            let cut = rng.below(w.bytes.len() + 1);
            let intact = w.line_ends.iter().filter(|&&end| end - 1 <= cut).count();
            (w.bytes[..cut].to_vec(), intact.checked_sub(1))
        }
        2 if !w.records.is_empty() => {
            // One checksum digit (the 16 before a record's `\n`) changed
            // to another hex digit.
            let k = rng.below(w.records.len());
            let at = w.line_ends[k + 1] - 2 - rng.below(16);
            let hex = b"0123456789abcdef";
            let digit = hex.iter().position(|&h| h == w.bytes[at]).expect("hex");
            let mut bytes = w.bytes.clone();
            bytes[at] = hex[(digit + 1 + rng.below(15)) % 16];
            (bytes, Some(k))
        }
        3 => {
            // Up to four byte flips at distinct offsets, each with a
            // nonzero mask; many leave the line invalid UTF-8.
            let mut bytes = w.bytes.clone();
            let mut flipped: Vec<usize> = Vec::new();
            let mut survive = Some(w.records.len());
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len());
                if flipped.contains(&at) {
                    continue;
                }
                flipped.push(at);
                bytes[at] ^= 1 + rng.below(255) as u8;
                survive = survive.zip(w.record_at(at)).map(|(n, k)| n.min(k));
            }
            (bytes, survive)
        }
        _ => {
            // After our first k records, the other WAL's lines alternate
            // with the rest of ours, its header first. Records carry no
            // job id, so that foreign header is where loading must stop.
            let k = rng.below(w.records.len() + 1);
            let ours = w.lines();
            let mut bytes = ours[..=k].concat();
            let mut rest = ours[k + 1..].iter();
            for foreign in other.lines() {
                bytes.extend_from_slice(foreign);
                bytes.extend_from_slice(rest.next().copied().unwrap_or_default());
            }
            rest.for_each(|line| bytes.extend_from_slice(line));
            (bytes, Some(k))
        }
    }
}

#[test]
fn fuzz_smoke_loader_keeps_exactly_the_intact_prefix() {
    let dir = std::env::temp_dir().join(format!("campaignd-walfuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (path, other_path) = (wal_path(&dir, JOB), wal_path(&dir, OTHER_JOB));
    let mut rng = Rng(0x5EED_0A1F_0000_0001);
    for round in 0..1000 {
        let w = write_wal(&mut rng, &path, JOB);
        let other = write_wal(&mut rng, &other_path, OTHER_JOB);
        assert!(load_wal(&other_path, JOB).is_err(), "another job's WAL");
        let (mutant, survive) = mutate(&mut rng, &w, &other);
        std::fs::write(&path, &mutant).expect("write mutant");
        let loaded = load_wal(&path, JOB);
        match survive {
            None => assert!(loaded.is_err(), "round {round}: damaged header must err"),
            Some(n) => assert_eq!(
                loaded.expect("intact header"),
                w.prefix(n),
                "round {round}: {n} intact records"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
