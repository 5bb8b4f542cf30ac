//! The committed perf baseline `BENCH_compress.json` at the repo root
//! must stay valid JSON with the fields future PRs diff against, and its
//! counters must uphold the eval-domain acceptance criteria: the
//! compressed domain decoding strictly fewer bitmaps than raw evaluation
//! on every codec, auto folding word-wise (exactly raw's decodes) on
//! every cell, auto never slower than the best fixed domain beyond
//! measurement noise, and the batched sparse decoders keeping EWAH's
//! raw-domain cost within striking distance of WAH's (the gap was ~2.6×
//! before the header loops were batched). CI fails this test whenever a
//! bench run (or a hand edit) corrupts the file or regresses those
//! relationships.

use bix_telemetry::json::{self, Json};

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_compress.json")
}

#[test]
fn bench_compress_baseline_is_valid_and_complete() {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing perf baseline {}: {e}", path.display()));
    let doc =
        json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));

    assert_eq!(
        doc.get("benchmark").and_then(Json::as_str),
        Some("eval_domain"),
        "baseline must come from the eval_domain bench"
    );
    for field in ["rows", "cardinality", "queries"] {
        let v = doc
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("baseline missing numeric field {field}"));
        assert!(v > 0.0, "{field} must be positive, got {v}");
    }

    let codecs = doc
        .get("codecs")
        .and_then(Json::as_array)
        .expect("baseline missing codecs[] measurements");
    let names: Vec<&str> = codecs
        .iter()
        .filter_map(|c| c.get("codec").and_then(Json::as_str))
        .collect();
    for expected in ["bbc", "wah", "ewah", "roaring"] {
        assert!(
            names.contains(&expected),
            "codecs missing {expected}: {names:?}"
        );
    }
    // raw_seconds keyed by (codec, encoding), for the decode-gap check.
    let mut raw_by_key: Vec<(String, String, f64)> = Vec::new();
    for entry in codecs {
        let codec = entry.get("codec").and_then(Json::as_str).unwrap_or("?");
        let encoding = entry
            .get("encoding")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{codec} entry missing encoding"));
        let num = |field: &str| {
            let v = entry
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{codec} entry missing {field}"));
            assert!(v > 0.0, "{codec} {field} must be positive");
            v
        };
        let raw_s = num("raw_seconds");
        let packed_s = num("compressed_seconds");
        let auto_s = num("auto_seconds");
        num("speedup");
        raw_by_key.push((codec.to_string(), encoding.to_string(), raw_s));
        let raw_dec = entry
            .get("raw_decompressions")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{codec} entry missing raw_decompressions"));
        let packed_dec = entry
            .get("compressed_decompressions")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{codec} entry missing compressed_decompressions"));
        let auto_dec = entry
            .get("auto_decompressions")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{codec} entry missing auto_decompressions"));
        assert!(
            packed_dec < raw_dec,
            "{codec}: compressed domain must decompress strictly less \
             ({packed_dec} vs {raw_dec})"
        );
        assert_eq!(
            auto_dec, raw_dec,
            "{codec}/{encoding}: auto must fold word-wise, decoding exactly \
             what raw decodes"
        );
        // Auto must track the better fixed domain; 30% headroom covers
        // shared-runner timing noise on these millisecond-scale medians.
        let best = raw_s.min(packed_s);
        assert!(
            auto_s <= best * 1.30,
            "{codec}: auto ({auto_s}s) must not lose to the best fixed \
             domain ({best}s) beyond noise"
        );
    }

    // The batched header-decode loops must keep EWAH's raw-domain time
    // within 2× of WAH's on every encoding (it was ~2.6× behind when
    // runs were parsed one header at a time), and byte-aligned BBC —
    // which pays per-byte header parsing by design — within 3×.
    let raw_of = |codec: &str, encoding: &str| {
        raw_by_key
            .iter()
            .find(|(c, e, _)| c == codec && e == encoding)
            .map(|&(_, _, s)| s)
            .unwrap_or_else(|| panic!("no {codec}/{encoding} entry"))
    };
    for encoding in ["interval", "equality"] {
        let wah = raw_of("wah", encoding);
        let ewah = raw_of("ewah", encoding);
        let bbc = raw_of("bbc", encoding);
        assert!(
            ewah <= wah * 2.0,
            "{encoding}: ewah raw decode fell behind wah beyond the \
             batched-decoder bound ({ewah}s vs {wah}s)"
        );
        assert!(
            bbc <= wah * 3.0,
            "{encoding}: bbc raw decode fell behind wah beyond the \
             batched-decoder bound ({bbc}s vs {wah}s)"
        );
    }

    let phases = doc
        .get("traced_phases")
        .and_then(Json::as_array)
        .expect("baseline missing traced_phases[] breakdown");
    let phase_names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("phase").and_then(Json::as_str))
        .collect();
    for expected in ["eval", "build", "fold", "node", "rewrite"] {
        assert!(
            phase_names.contains(&expected),
            "traced_phases missing {expected}: {phase_names:?}"
        );
    }
}
