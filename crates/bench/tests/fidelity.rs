//! The paper-fidelity axis has one golden file: the "Raw output" block of
//! EXPERIMENTS.md. It must equal [`clare_bench::fidelity_report`] byte for
//! byte, so a modelled number that moves fails here instead of leaving the
//! document stale.

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

const REGENERATE: &str = "cargo run -q --release -p clare-bench --bin clare-tables \
| awk 'FNR==NR {b = b $0 \"\\n\"; next} /^```text$/ {print; printf \"%s\", b; skip = 1; next} \
skip && /^```$/ {skip = 0} !skip' - EXPERIMENTS.md > EXPERIMENTS.md.new \
&& mv EXPERIMENTS.md.new EXPERIMENTS.md";

/// The text between the "## Raw output" section's "```text" fence and
/// its closing fence.
fn raw_output_block(doc: &str) -> &str {
    let (_, section) = doc
        .split_once("## Raw output")
        .expect("a \"## Raw output\" section");
    let (_, body) = section.split_once("```text\n").expect("a ```text fence");
    &body[..body.find("\n```").expect("a closing fence") + 1]
}

/// Lines that differ, numbered from the block's first line.
fn line_diff(expected: &str, actual: &str) -> String {
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        let (old, new) = (e.get(i), a.get(i));
        if old != new {
            out.push_str(&format!("line {}:\n", i + 1));
            if let Some(old) = old {
                out.push_str(&format!("  - {old}\n"));
            }
            if let Some(new) = new {
                out.push_str(&format!("  + {new}\n"));
            }
        }
    }
    out
}

#[test]
fn experiments_md_raw_output_is_the_fidelity_report() {
    let golden = raw_output_block(EXPERIMENTS_MD);
    let report = clare_bench::fidelity_report();
    assert!(
        golden == report,
        "EXPERIMENTS.md's raw output block differs from clare-tables \
         (- block, + clare-tables):\n{}\nIf the change is intended, regenerate \
         the block from the repository root with:\n  {REGENERATE}",
        line_diff(golden, &report)
    );
}
