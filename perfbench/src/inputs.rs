//! Seeded input generation: the same seed gives the same inputs.
//!
//! The `nexmark` connector generates inside the engine from the seed in
//! its `CREATE SOURCE`; the inputs built here are the ones the engine
//! reads from outside — the Bid CSV file of `csv-q2-plain` and the
//! pre-built Bid rows of `paced-q5-gated`.

use std::io::{BufWriter, Write};
use std::path::Path;

use onesql_nexmark::{GeneratorConfig, NexmarkEvent, NexmarkGenerator};

/// What [`write_bid_csv`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidFile {
    /// Bid rows in the file.
    pub rows: u64,
    /// Rows Q2's filter (`auction % 123 = 0`) passes: the expected sink
    /// row count, counted here, outside the engine.
    pub q2_matches: u64,
}

/// Write the first `rows` bids of the NEXMark stream seeded `seed` as
/// headerless CSV `auction,bidder,price,dateTime` (milliseconds), in
/// processing-time order.
pub fn write_bid_csv(path: &Path, seed: u64, rows: u64) -> BidFile {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let mut out = BufWriter::with_capacity(1 << 20, file);
    let mut generator = NexmarkGenerator::new(GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    });
    let mut written = BidFile {
        rows: 0,
        q2_matches: 0,
    };
    while written.rows < rows {
        if let (_, NexmarkEvent::Bid(bid)) = generator.next_event() {
            writeln!(
                out,
                "{},{},{},{}",
                bid.auction,
                bid.bidder,
                bid.price,
                bid.date_time.millis()
            )
            .expect("write bid row");
            written.rows += 1;
            written.q2_matches += u64::from(bid.auction % 123 == 0);
        }
    }
    out.flush().expect("flush bid file");
    written
}
