//! The four CRS search modes (§2.2) side by side on one disk-resident
//! relation, including the Fs2Device register-level protocol for a single
//! track.
//!
//! ```text
//! cargo run --release --example search_modes
//! ```

use clare::fs2::{Microprogram, OperationalMode};
use clare::prelude::*;
use clare::term::builder::TermBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 20 000-fact relation: large enough that its clause file spans
    // many disk tracks, which is where mode choice starts to matter.
    let mut builder = KbBuilder::new();
    let mut clauses = Vec::new();
    {
        let mut t = TermBuilder::new(builder.symbols_mut());
        for i in 0..20_000 {
            let k = t.atom(&format!("part{}", i % 4000));
            let w = t.atom(&format!("warehouse{}", i % 23));
            let qty = t.int((i % 500) as i64);
            clauses.push(t.fact("stock", vec![k, w, qty]));
        }
    }
    for c in clauses {
        builder.add_clause("inventory", c);
    }
    let (query, _) = parse_term_with_vars("stock(part1234, W, Q)", builder.symbols_mut())?;
    let kb = builder.finish(KbConfig::default());
    let pred = kb.lookup("stock", 3).expect("predicate exists");
    println!(
        "stock/3: {} clauses over {} disk tracks; index file {:.1} KB vs clause file {:.1} KB\n",
        pred.clauses().len(),
        pred.file().track_count(),
        pred.index().file_bytes() as f64 / 1024.0,
        pred.file().occupied_bytes() as f64 / 1024.0,
    );

    println!("?- stock(part1234, W, Q).\n");
    let opts = CrsOptions::default();
    println!(
        "{:<14} {:>10} {:>8} {:>10} {:>12}",
        "mode", "candidates", "answers", "disk KB", "elapsed"
    );
    for mode in SearchMode::ALL {
        let r = retrieve(&kb, &query, mode, &opts);
        println!(
            "{:<14} {:>10} {:>8} {:>10.0} {:>12}",
            mode.to_string(),
            r.stats.candidates,
            r.stats.unified,
            r.stats.bytes_from_disk as f64 / 1024.0,
            r.stats.elapsed.to_string()
        );
    }
    println!("\nautomatic choice: {}", choose_mode(&kb, &query));

    // Drive the FS2 board directly, the way the CRS does over the VMEbus:
    // microprogram -> query -> search -> read result.
    let mut device = Fs2Device::new();
    device.set_mode(OperationalMode::Microprogramming);
    device.load_program(&Microprogram::standard())?;
    device.set_mode(OperationalMode::SetQuery);
    device.set_query(&encode_query(&query)?)?;
    device.set_mode(OperationalMode::Search);
    let stats = device.search_track(&pred.file().tracks()[0])?;
    device.set_mode(OperationalMode::ReadResult);
    let hits = device.read_results()?;
    println!(
        "\nFs2Device on track 0: {} clauses examined in {}, {} captured, control register: {}",
        stats.clauses,
        stats.match_time,
        hits.len(),
        device.control()
    );
    Ok(())
}
