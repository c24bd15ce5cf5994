//! The NEXMark query suite in the paper's SQL dialect.
//!
//! Queries are adapted to the dialect of this engine (windowing TVFs,
//! explicit event-time columns); Q7 — the paper's running example — is in
//! [`crate::paper::PAPER_Q7_SQL`] against the paper's 3-column schema, and
//! here in its full NEXMark form. Absolute prices/rates follow the original
//! benchmark description where practical.

/// Q0: passthrough. Measures raw engine overhead.
pub const Q0: &str = "SELECT auction, bidder, price, dateTime FROM Bid";

/// Q1: currency conversion (dollars to euros at the benchmark's 0.89 rate,
/// in integer arithmetic).
pub const Q1: &str = "\
SELECT auction, bidder, price * 89 / 100 AS price_eur, dateTime
FROM Bid";

/// Q2: selection — bids on a sample of auctions.
pub const Q2: &str = "\
SELECT auction, price FROM Bid WHERE auction % 123 = 0";

/// Q3: local item search — people from a set of states selling in category
/// 10. (A stream-stream join whose state the engine must bound.)
pub const Q3: &str = "\
SELECT P.name, P.city, P.state, A.id
FROM Auction A JOIN Person P ON A.seller = P.id
WHERE A.category = 10 AND P.state IN ('wa', 'az', 'tn')";

/// Q4-style: average bid price per auction category over tumbling windows
/// (simplified from the original closing-price formulation, which needs
/// auction-expiry semantics).
pub const Q4_AVG_PRICE_BY_CATEGORY: &str = "\
SELECT A.category, wend, AVG(B.price)
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '1' MINUTE) B
JOIN Auction A ON B.auction = A.id
GROUP BY A.category, wend";

/// Q5-style: hot items — bid counts per auction over hopping windows.
pub const Q5_HOT_ITEMS: &str = "\
SELECT auction, wend, COUNT(*) AS bids
FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
         dur => INTERVAL '2' MINUTE, hopsize => INTERVAL '1' MINUTE)
GROUP BY auction, wend";

/// Q7: highest bid per ten-minute window (the paper's running example), on
/// the full NEXMark `Bid` schema.
pub const Q7: &str = "\
SELECT MaxBid.wstart, MaxBid.wend, Bid.dateTime, Bid.price, Bid.auction
FROM Bid,
  (SELECT MAX(T.price) maxPrice, MAX(T.wstart) wstart, T.wend wend
   FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
               dur => INTERVAL '10' MINUTE) T
   GROUP BY T.wend) MaxBid
WHERE Bid.price = MaxBid.maxPrice AND
      Bid.dateTime >= MaxBid.wend - INTERVAL '10' MINUTE AND
      Bid.dateTime < MaxBid.wend";

/// Q8: monitor new users — people who registered and opened an auction in
/// the same ten-second window.
pub const Q8: &str = "\
SELECT P.id, P.name, P.wstart
FROM
  Tumble(data => TABLE(Person), timecol => DESCRIPTOR(dateTime),
         dur => INTERVAL '10' SECOND) P
JOIN
  Tumble(data => TABLE(Auction), timecol => DESCRIPTOR(dateTime),
         dur => INTERVAL '10' SECOND) A
ON P.id = A.seller AND P.wstart = A.wstart AND P.wend = A.wend";

/// All `(name, sql)` pairs, for suite-level tests and benches.
pub fn all() -> Vec<(&'static str, &'static str)> {
    full_stack().iter().map(|s| (s.name, s.sql)).collect()
}

/// How one suite query runs as a *full-stack* SQL script (DDL + INSERT
/// through `Session::execute_script`, partitioned NEXMark source,
/// two-phase file sink).
#[derive(Debug, Clone, Copy)]
pub struct FullStackSpec {
    /// Suite name (`q0` … `q8`).
    pub name: &'static str,
    /// The query text (no `EMIT` clause).
    pub sql: &'static str,
    /// Output column holding the window-end (or window-start) timestamp
    /// for windowed queries; under `EMIT AFTER WATERMARK` no row may
    /// surface before a watermark reaches it.
    pub gate_col: Option<usize>,
}

/// The full suite with its gating classification.
pub fn full_stack() -> Vec<FullStackSpec> {
    let spec = |name, sql, gate_col| FullStackSpec {
        name,
        sql,
        gate_col,
    };
    vec![
        spec("q0", Q0, None),
        spec("q1", Q1, None),
        spec("q2", Q2, None),
        spec("q3", Q3, None),
        spec("q4_avg_by_category", Q4_AVG_PRICE_BY_CATEGORY, Some(1)),
        spec("q5_hot_items", Q5_HOT_ITEMS, Some(1)),
        spec("q7", Q7, Some(1)),
        // wstart (col 2) lower-bounds the window end, so it still gates
        // soundly.
        spec("q8", Q8, Some(2)),
    ]
}

/// Knobs for [`full_stack_script`].
#[derive(Debug, Clone)]
pub struct ScriptConfig {
    /// Driver worker count.
    pub workers: usize,
    /// Fixed driver batch size.
    pub batch: usize,
    /// NEXMark source partitions; 0 declares a plain (non-partitioned)
    /// `CREATE SOURCE` instead.
    pub partitions: usize,
    /// NEXMark generator seed.
    pub seed: u64,
    /// Events the source generates before completing.
    pub events: u64,
    /// Append `AFTER WATERMARK` to the `EMIT STREAM` clause.
    pub gated: bool,
}

impl Default for ScriptConfig {
    fn default() -> ScriptConfig {
        ScriptConfig {
            workers: 2,
            batch: 64,
            partitions: 4,
            seed: 7,
            events: 3_000,
            gated: false,
        }
    }
}

/// Render one suite query as a complete SQL script: knobs, a NEXMark
/// source (partitioned unless `config.partitions` is 0), a (two-phase)
/// CSV file sink at `sink_path`, and the `INSERT` that assembles the
/// pipeline.
pub fn full_stack_script(sql: &str, sink_path: &std::path::Path, config: &ScriptConfig) -> String {
    let batch = config.batch;
    let (partitioned, partitions) = match config.partitions {
        0 => ("", String::new()),
        n => (" PARTITIONED", format!(", partitions = {n}")),
    };
    format!(
        "SET workers = {};
         SET batch_size = {batch};
         SET min_batch = {batch};
         SET max_batch = {batch};
         CREATE{partitioned} SOURCE nex
           WITH (connector = 'nexmark', seed = {}, events = {}{partitions});
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out {} EMIT STREAM{};",
        config.workers,
        config.seed,
        config.events,
        sink_path.display(),
        sql,
        if config.gated { " AFTER WATERMARK" } else { "" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete() {
        let names: Vec<&str> = all().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"q7"));
        assert_eq!(names.len(), 8);
        for (_, sql) in all() {
            assert!(sql.to_uppercase().contains("SELECT"));
        }
    }
}
