//! The `Capture` wire format: a golden-bytes pin of the record layout
//! (`tick u64 BE | id u16 BE | dlc u8 | data`) and a deterministic fuzz
//! smoke for `Capture::parse`. No external fuzzer: a fixed-seed splitmix64
//! stream builds random captures, truncates them and flips bytes in them;
//! the parse must never panic, must return exactly the complete records of
//! a truncated capture, and must invert `record` on an intact one.

use canbus::{CanFrame, Capture};
use units::Tick;

/// splitmix64, restated locally (as in the lint crate's fuzz smoke) because
/// the test needs a raw stream, not `units::mix_seed`'s seed mixing.
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

/// Header bytes before each record's payload: tick, id, dlc.
const HEADER: usize = 8 + 2 + 1;

#[test]
fn into_bytes_matches_the_golden_layout() {
    let mut c = Capture::new();
    c.record(
        Tick::new(5),
        &CanFrame::new(0xE4, &[0xAB, 1, 2, 3, 4, 5]).unwrap(),
    );
    c.record(
        Tick::new(0x0102_0304_0506_0708),
        &CanFrame::new(0x1D0, &[0xCD, 0xEF]).unwrap(),
    );
    let golden: [u8; 30] = [
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // tick 5
        0x00, 0xE4, // id
        0x06, // dlc
        0xAB, 0x01, 0x02, 0x03, 0x04, 0x05, // data
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // tick
        0x01, 0xD0, // id
        0x02, // dlc
        0xCD, 0xEF, // data
    ];
    assert_eq!(c.len(), 2);
    assert_eq!(c.into_bytes(), golden);
}

/// A random capture and the records it holds, in order.
fn random_capture(rng: &mut Rng) -> (Vec<u8>, Vec<(Tick, CanFrame)>) {
    let mut c = Capture::new();
    let mut records = Vec::new();
    for _ in 0..rng.below(12) {
        let tick = Tick::new(rng.next() >> rng.below(64));
        let id = rng.below(CanFrame::MAX_ID as usize + 1) as u16;
        let data: Vec<u8> = (0..rng.below(9)).map(|_| rng.next() as u8).collect();
        let frame = CanFrame::new(id, &data).unwrap();
        c.record(tick, &frame);
        records.push((tick, frame));
    }
    (c.into_bytes(), records)
}

#[test]
fn parse_fuzz_smoke() {
    let mut rng = Rng(0x00ca_9700_2022);
    for _ in 0..500 {
        let (bytes, records) = random_capture(&mut rng);
        assert_eq!(Capture::parse(&bytes), records, "round trip");

        // A truncated capture yields exactly its complete records.
        let cut = rng.below(bytes.len() + 1);
        let mut end = 0;
        let complete = records
            .iter()
            .take_while(|(_, f)| {
                end += HEADER + f.data().len();
                end <= cut
            })
            .count();
        assert_eq!(Capture::parse(&bytes[..cut]), records[..complete]);

        // Flipped bytes may corrupt records but never panic the parse.
        let mut flipped = bytes;
        if !flipped.is_empty() {
            for _ in 0..=rng.below(4) {
                let at = rng.below(flipped.len());
                flipped[at] ^= 1 << rng.below(8);
            }
        }
        let parsed = Capture::parse(&flipped);
        assert!(parsed.len() <= flipped.len() / HEADER);
    }
}
