//! The `bix` binary end to end: every file-reading subcommand opens a
//! bare index and a catalog alike (told apart by magic, not by name) and
//! answers through the one planned entry point, checked against the
//! naive `IndexedTable::evaluate` oracle.

use chan_bitmap_index::core::{BitmapIndex, Catalog, Query, TableQuery};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory holding `col.bix` (200 rows, C = 10, equality
/// encoding: one lost bitmap is rebuildable) and `t.bixcat` over the
/// same shape of data with three attributes.
struct Files {
    dir: PathBuf,
}

impl Files {
    fn new(tag: &str) -> Files {
        let dir = std::env::temp_dir().join(format!("bix_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = Files { dir };
        // 200 rows: 25 bytes per raw bitmap with no padding bits, so
        // flipping any stored byte is a real corruption.
        let column: Vec<String> = (0..200u64).map(|i| (i * 7 % 10).to_string()).collect();
        std::fs::write(files.path("col.csv"), column.join("\n")).unwrap();
        let mut table = String::from("region,store,discount\n");
        for i in 0..200u64 {
            table.push_str(&format!("{},{},{}\n", i % 4, (i * 7) % 20, (i * 3) % 10));
        }
        std::fs::write(files.path("t.csv"), table).unwrap();
        files.ok(&[
            "build",
            "--input",
            "col.csv",
            "--out",
            "col.bix",
            "--encoding",
            "E",
        ]);
        files.ok(&[
            "buildcat",
            "--input",
            "t.csv",
            "--out",
            "t.bixcat",
            "--encoding",
            "E",
        ]);
        files
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Runs `bix` in the scratch directory.
    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_bix"))
            .args(args)
            .current_dir(&self.dir)
            .output()
            .expect("spawn bix")
    }

    /// Runs `bix`, asserting success, and returns its stdout.
    fn ok(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(
            out.status.success(),
            "bix {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    }

    /// Runs `bix`, asserting exit code 2, and returns its stderr.
    fn exits_2(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert_eq!(out.status.code(), Some(2), "bix {args:?} should exit 2");
        String::from_utf8(out.stderr).unwrap()
    }

    /// The naive oracle's rows for `expr` over the file `name`.
    fn oracle(&self, name: &str, expr: &str) -> String {
        let mut table = Catalog::open(self.path(name)).unwrap().into_table();
        let q = TableQuery::parse(expr, &table.schema()).unwrap();
        table
            .evaluate(&q)
            .ones()
            .map(|row| format!("{row}\n"))
            .collect()
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Flips the final byte of `path`, which lies in its last bitmap's payload.
fn corrupt_last_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(path, bytes).unwrap();
}

const EXPR: &str = "region in {0, 1} and (discount >= 7 or not store = 12)";

#[test]
fn query_matches_the_oracle_on_both_formats() {
    let f = Files::new("query");
    let want = f.oracle("col.bix", "value in {3, 4, 5, 6, 7}");
    assert!(!want.is_empty());
    assert_eq!(f.ok(&["query", "col.bix", "3..7"]), want);
    assert_eq!(f.ok(&["query", "col.bix", "value in {3,4,5,6,7}"]), want);
    let want_count = format!("{}\n", want.lines().count());
    assert_eq!(f.ok(&["query", "col.bix", "3..7", "--count"]), want_count);

    let want = f.oracle("t.bixcat", EXPR);
    assert!(!want.is_empty());
    assert_eq!(f.ok(&["query", "t.bixcat", EXPR, "--parallel", "2"]), want);
    let want_count = format!("{}\n", want.lines().count());
    assert_eq!(f.ok(&["query", "t.bixcat", EXPR, "--count"]), want_count);

    // A batch mixes both grammars on a bare index, one line per plan.
    std::fs::write(
        f.path("q.txt"),
        "# comment\n=3\n\nvalue = 3 or value = 4\n!0..8\n",
    )
    .unwrap();
    let out = f.ok(&["query", "col.bix", "--batch", "q.txt", "--parallel", "2"]);
    let counts: Vec<&str> = out.lines().map(|l| l.split('\t').nth(1).unwrap()).collect();
    assert_eq!(counts, ["20 rows", "40 rows", "20 rows"], "{out}");
    std::fs::write(f.path("q.txt"), format!("{EXPR}\nregion = 2\n")).unwrap();
    let out = f.ok(&["query", "t.bixcat", "--batch", "q.txt"]);
    assert_eq!(out.lines().count(), 2, "{out}");
    assert!(out.starts_with(&format!("{EXPR}\t{} rows", want.lines().count())));
}

#[test]
fn explain_prints_the_plan_and_the_traced_fold_on_both_formats() {
    let f = Files::new("explain");
    for (file, selection) in [("col.bix", "in:1,7"), ("t.bixcat", EXPR)] {
        let out = f.ok(&["explain", file, selection]);
        for line in ["expression:", "rewrite:", "plan (", "  literal ", "est. "] {
            assert!(out.contains(line), "{file}: no {line:?} in\n{out}");
        }
        assert!(
            out.lines()
                .any(|l| l.starts_with("  node ") && l.contains("domain=")),
            "{file}: no traced node in\n{out}"
        );
    }
}

#[test]
fn verify_and_repair_keep_each_format() {
    let f = Files::new("repair");
    for (file, victim, attr) in [
        ("col.bix", "col.bix", "value"),
        ("t.bixcat", "t.discount.bix", "discount"),
    ] {
        f.ok(&["verify", file]);
        corrupt_last_byte(&f.path(victim));
        let err = f.exits_2(&["verify", file]);
        assert!(
            err.contains(&format!("corrupt: {attr}: component 0 slot")),
            "{file}: {err}"
        );
        assert!(err.contains("checksum"), "{file}: {err}");

        f.ok(&["repair", file]);
        f.ok(&["verify", file]);
    }
    // Each file keeps its own format and answers exactly again.
    let index = BitmapIndex::load(f.path("col.bix")).expect("still a bare index");
    assert_eq!(index.evaluate(&Query::equality(9)).count_ones(), 20);
    Catalog::open(f.path("t.bixcat")).expect("still a catalog");
    assert_eq!(
        f.ok(&["query", "t.bixcat", EXPR]),
        f.oracle("t.bixcat", EXPR)
    );
}

#[test]
fn info_and_stats_read_both_formats_whatever_the_name() {
    let f = Files::new("info");
    let info = f.ok(&["info", "col.bix"]);
    assert!(info.contains("attribute:    value"), "{info}");
    assert!(info.contains("cardinality:  10"), "{info}");
    let info = f.ok(&["info", "t.bixcat"]);
    for attr in ["region", "store", "discount"] {
        assert!(info.contains(&format!("attribute:    {attr}")), "{info}");
    }
    for file in ["col.bix", "t.bixcat"] {
        let stats = f.ok(&["stats", file]);
        for gauge in [
            "bix_index_rows 200",
            "bix_catalog_attrs",
            "bix_index_bitmaps",
        ] {
            assert!(stats.contains(gauge), "{file}: no {gauge} in\n{stats}");
        }
        assert!(f
            .ok(&["stats", file, "--json"])
            .contains("bix_index_raw_bytes"));
    }

    // The format is the magic's, not the name's.
    std::fs::copy(f.path("t.bixcat"), f.path("t.cat")).unwrap();
    assert!(f.ok(&["verify", "t.cat"]).contains("ok (3 attribute(s)"));
    assert_eq!(f.ok(&["query", "t.cat", EXPR]), f.oracle("t.bixcat", EXPR));
}

#[test]
fn flags_may_precede_the_path_and_unknown_flags_are_usage_errors() {
    let f = Files::new("flags");
    let want = f.ok(&["query", "col.bix", "=3"]);
    assert_eq!(
        f.ok(&["query", "--eval-domain", "raw", "col.bix", "=3"]),
        want
    );
    assert_eq!(f.ok(&["query", "--count", "col.bix", "=3"]), "20\n");
    std::fs::write(f.path("q.txt"), "=3\n").unwrap();
    assert_eq!(
        f.ok(&["query", "--batch", "q.txt", "col.bix"])
            .lines()
            .count(),
        1
    );

    let err = f.exits_2(&["query", "--catalog", "t.bixcat", EXPR]);
    assert!(err.contains("unknown flag --catalog"), "{err}");
    for args in [
        &["query", "col.bix", "=3", "--bogus"][..],
        &["explain", "col.bix", "=3", "--count"],
        &["verify", "col.bix", "--json"],
        &["repair", "col.bix", "--trace"],
        &["info", "--json", "col.bix"],
        &["stats", "col.bix", "--count"],
    ] {
        let err = f.exits_2(args);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
    // A single-index predicate names no attribute of a wider table.
    let err = f.exits_2(&["query", "t.bixcat", "=3"]);
    assert!(err.contains("table query"), "{err}");
}
