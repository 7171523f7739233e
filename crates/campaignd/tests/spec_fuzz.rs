//! Deterministic fuzz smoke for the job-spec parser.
//!
//! Same philosophy as `http_parser.rs` and `wal_fuzz.rs`: no external
//! fuzzer, just a fixed-seed splitmix64 stream. Each round takes a valid
//! `POST /jobs` body, mutates it — byte flips, truncation, a value swapped
//! for one of another type, huge or negative numbers, duplicated keys —
//! and feeds it through `parse_object` and `JobSpec::from_object`. Neither
//! may panic. Every accepted spec must round-trip through its canonical
//! encoding, stay within `MAX_JOB_CELLS`, and count its cells exactly:
//! `cell_count() == plan().len()`, checked whenever the plan is small
//! enough to build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use campaignd::spec::{JobSpec, MAX_JOB_CELLS};
use campaignd::wire::parse_object;

const ROUNDS: u64 = 1_000;

/// Plans up to this many cells are built to check `cell_count`.
const PLAN_CHECK_CELLS: u64 = 5_000;

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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Valid bodies, as (key, raw JSON value) fields so mutations can work on
/// whole values as well as on bytes.
fn seeds() -> Vec<Vec<(String, String)>> {
    let body = |fields: &[(&str, &str)]| {
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect::<Vec<_>>()
    };
    vec![
        body(&[
            ("kind", "\"resilience\""),
            ("base_seed", "7"),
            ("reps", "1"),
        ]),
        body(&[
            ("kind", "\"resilience\""),
            ("defense", "\"fail_safe\""),
            ("reps", "3"),
            ("panic_cells", "[[3, 1], [10, 2]]"),
            ("delay_cells", "[[0, 250]]"),
        ]),
        body(&[
            ("kind", "\"attack\""),
            ("strategy", "\"context_aware\""),
            ("attack", "\"steering_right\""),
            ("base_seed", "5"),
            ("reps", "6"),
        ]),
        body(&[
            ("kind", "\"attack\""),
            ("strategy", "\"random_st_dur\""),
            ("attack", "\"deceleration_steering\""),
            ("panic_cells", "[]"),
        ]),
    ]
}

/// Replacement values: every wire type, plus the numbers at the edges of
/// `u32`, `u64` and the job-size cap.
fn values(rng: &mut Rng) -> String {
    let cap_reps = (MAX_JOB_CELLS / 12).to_string();
    let over_cap = (MAX_JOB_CELLS / 12 + 1).to_string();
    let pool = [
        "0",
        "1",
        "-1",
        "-0",
        "1.5",
        "1e3",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        cap_reps.as_str(),
        over_cap.as_str(),
        "true",
        "false",
        "null",
        "\"\"",
        "\"attack\"",
        "\"resilience\"",
        "\"off\"",
        "\"observe\"",
        "\"acceleration\"",
        "\"random_dur\"",
        "\"\\u0041\"",
        "\"caf\u{e9}\"",
        "[]",
        "[[1, 2]]",
        "[[18446744073709551615, 18446744073709551615]]",
        "[[1]]",
        "[1, 2]",
        "{\"nested\": 1}",
    ];
    rng.pick(&pool).to_string()
}

const KEYS: [&str; 9] = [
    "kind",
    "strategy",
    "attack",
    "defense",
    "base_seed",
    "reps",
    "panic_cells",
    "delay_cells",
    "unknown",
];

fn render(fields: &[(String, String)]) -> Vec<u8> {
    let inner: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", inner.join(", ")).into_bytes()
}

/// One mutated body.
fn mutate(rng: &mut Rng, seeds: &[Vec<(String, String)>]) -> Vec<u8> {
    let mut fields = seeds[rng.below(seeds.len())].clone();
    // Structural mutations first, then at most one byte-level pass.
    for _ in 0..=rng.below(3) {
        match rng.below(4) {
            // Swap a value for one of another type (or an edge number).
            0 => {
                let i = rng.below(fields.len());
                fields[i].1 = values(rng);
            }
            // Add a field, possibly duplicating a key already present.
            1 => {
                let key = rng.pick(&KEYS).to_string();
                let value = values(rng);
                let at = rng.below(fields.len() + 1);
                fields.insert(at, (key, value));
            }
            // Duplicate an existing field verbatim or with a new value.
            2 => {
                let i = rng.below(fields.len());
                let mut dup = fields[i].clone();
                if rng.below(2) == 0 {
                    dup.1 = values(rng);
                }
                fields.push(dup);
            }
            // Drop a field.
            _ => {
                if fields.len() > 1 {
                    let i = rng.below(fields.len());
                    fields.remove(i);
                }
            }
        }
    }
    let mut bytes = render(&fields);
    match rng.below(4) {
        // Byte flips, to structural characters or anything at all.
        0 => {
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len());
                const STRUCTURAL: &[u8] = b"{}[]:,\"\\ -09";
                bytes[at] = match rng.below(3) {
                    0 => STRUCTURAL[rng.below(STRUCTURAL.len())],
                    _ => rng.next() as u8,
                };
            }
        }
        // Truncation.
        1 => {
            let len = rng.below(bytes.len());
            bytes.truncate(len);
        }
        _ => {}
    }
    bytes
}

#[test]
fn fuzz_smoke_job_specs_never_panic_and_accepted_specs_are_consistent() {
    let mut rng = Rng(0x5bec_f022);
    let seeds = seeds();
    let (mut parsed, mut accepted, mut planned) = (0, 0, 0);
    for round in 0..ROUNDS {
        let body = mutate(&mut rng, &seeds);
        let shown = String::from_utf8_lossy(&body).to_string();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse_object(&body).map(|obj| JobSpec::from_object(&obj))
        }));
        let Ok(outcome) = outcome else {
            panic!("round {round}: parsing panicked on {shown}");
        };
        let Ok(spec) = outcome else {
            continue;
        };
        parsed += 1;
        let Ok(spec) = spec else {
            continue;
        };
        accepted += 1;

        let canonical = spec.canonical();
        let reparsed = parse_object(canonical.as_bytes())
            .and_then(|obj| JobSpec::from_object(&obj))
            .unwrap_or_else(|e| panic!("round {round}: canonical {canonical} rejected: {e}"));
        assert_eq!(reparsed, spec, "round {round}: {shown}");
        assert_eq!(reparsed.canonical(), canonical, "round {round}: {shown}");

        let cells = spec.cell_count();
        assert!(
            cells <= MAX_JOB_CELLS,
            "round {round}: {cells} cells: {shown}"
        );
        if cells <= PLAN_CHECK_CELLS {
            planned += 1;
            assert_eq!(spec.plan().len() as u64, cells, "round {round}: {shown}");
        }
    }
    // The mutations must leave enough bodies intact for the consistency
    // checks to mean something, and break enough to exercise rejection.
    assert!(accepted >= ROUNDS / 10, "only {accepted} specs accepted");
    assert!(planned >= accepted / 2, "only {planned} plans checked");
    assert!(
        parsed < ROUNDS,
        "every body parsed; the mutations are too tame"
    );
    assert!(accepted < parsed, "every parsed body was accepted");
}
