//! The committed adversarial corpus replays byte-identically.
//!
//! Mirrors the `aapm-experiments --replay-corpus` gate inside the test
//! suite: every fixture under `corpus/` must parse, re-evaluate to its
//! recorded verdict line, and round-trip through the fixture codec. The
//! corpus floor (14 fixtures, a galgel-style cap violation first) is part
//! of the contract — shrinking the corpus is a regression too.

use std::path::PathBuf;

use aapm_fuzz::corpus::{self, Fixture};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn committed_corpus_replays_byte_identically() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus must load");
    assert!(entries.len() >= 14, "corpus floor is 14 fixtures, found {}", entries.len());
    for entry in &entries {
        assert_eq!(
            entry.fixture.replay(),
            entry.fixture.verdict,
            "verdict drift in {}",
            entry.file
        );
    }
}

#[test]
fn corpus_entry_one_is_the_galgel_style_cap_violation() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus must load");
    let first = entries.first().expect("corpus must not be empty");
    assert!(first.file.starts_with("001-"), "entry #1 must sort first, got {}", first.file);
    assert_eq!(first.fixture.scenario.program.name, "galgel-like");
    assert!(
        first.fixture.verdict.contains("cap=FAIL"),
        "entry #1 records the deliberate cap violation, got: {}",
        first.fixture.verdict
    );
}

#[test]
fn committed_fixtures_round_trip_through_the_codec() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus must load");
    for entry in &entries {
        let text = std::fs::read_to_string(corpus_dir().join(&entry.file)).unwrap();
        let parsed = Fixture::from_json(&text).expect("fixture must parse");
        assert_eq!(parsed.to_json(), text, "{} is not in canonical form", entry.file);
    }
}
