//! The routing key each shipped query gets: the `Route:` line `EXPLAIN`
//! prints for every NEXMark suite query and every paper listing. The key
//! is what keeps a W > 1 run's answer the W = 1 answer, so a change here
//! is a change in which queries shard, and how.

use onesql_connect::register_nexmark_streams;
use onesql_core::{Engine, StreamBuilder};
use onesql_nexmark::paper::paper_bid_schema;
use onesql_types::DataType;

/// `name: route` for each query, one a line.
fn routes<'q>(engine: &Engine, queries: impl IntoIterator<Item = (&'q str, &'q str)>) -> String {
    let route = |sql| {
        let explain = engine.explain(sql).unwrap();
        let line = explain.lines().find_map(|l| l.strip_prefix("Route: "));
        line.unwrap_or_else(|| panic!("no Route line in:\n{explain}"))
            .to_string()
    };
    let lines = queries
        .into_iter()
        .map(|(name, sql)| format!("{name}: {}\n", route(sql)));
    lines.collect()
}

#[test]
fn nexmark_queries_route_by_their_derived_keys() {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let category = StreamBuilder::new().column("id", DataType::Int);
    engine.register_table("Category", category, vec![]).unwrap();
    let probes = [
        ("bidder", "SELECT bidder, COUNT(*) FROM Bid GROUP BY bidder"),
        (
            "auction",
            "SELECT auction, COUNT(*) FROM Bid GROUP BY auction",
        ),
        ("count", "SELECT COUNT(*) FROM Bid"),
        (
            "offset",
            "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(dateTime), dur => INTERVAL '10' MINUTE, \
             offset => INTERVAL '1' MINUTE) GROUP BY wend",
        ),
        // Every worker holds a table's rows; only a stream's are split.
        (
            "lookup",
            "SELECT price FROM Bid B LEFT JOIN Category C ON B.price = C.id",
        ),
        (
            "union",
            "SELECT id FROM Category UNION ALL SELECT auction FROM Bid",
        ),
        (
            "padded",
            "SELECT id FROM Category C LEFT JOIN Bid B ON C.id = B.auction",
        ),
    ];
    let suite = onesql_nexmark::queries::all().into_iter().chain(probes);
    assert_eq!(
        routes(&engine, suite),
        "q0: Bid by auction
q1: Bid by auction
q2: Bid by auction
q3: Auction by seller, Person by id
q4_avg_by_category: one worker (GROUP BY category, wend keeps no routing key)
q5_hot_items: Bid by auction
q7: Bid by Tumble(dateTime, 10m)
q8: Person by id, Auction by seller
bidder: Bid by bidder
auction: Bid by auction
count: one worker (a global aggregate has no per-row key)
offset: Bid by Tumble(dateTime, 10m, offset 1m)
lookup: Bid by auction
union: one worker (every worker would emit the table side of a UNION ALL with a stream)
padded: one worker (every worker would pad the table rows a LEFT JOIN with a stream leaves unmatched)
"
    );
}

#[test]
fn paper_listings_route_by_their_derived_keys() {
    let mut engine = Engine::new();
    engine.register_stream_schema("Bid", paper_bid_schema());
    let listings = onesql_checker::paper::listings();
    let listings = listings.iter().map(|l| (l.name, l.sql.as_str()));
    assert_eq!(
        routes(&engine, listings),
        "Listing 3: Bid by Tumble(bidtime, 10m)
Listing 4: Bid by Tumble(bidtime, 10m)
Listing 5: Bid by bidtime
Listing 6: Bid by Tumble(bidtime, 10m)
Listing 7: Bid by bidtime
Listing 8: one worker (GROUP BY wend keeps no routing key)
Listing 9: Bid by Tumble(bidtime, 10m)
Listings 10-12: Bid by Tumble(bidtime, 10m)
Listing 13: Bid by Tumble(bidtime, 10m)
Listing 14: Bid by Tumble(bidtime, 10m)
Tumble SUM/COUNT: Bid by Tumble(bidtime, 10m)
DISTINCT price: Bid by price
"
    );
}

#[test]
fn streams_with_too_many_key_assignments_run_on_one_worker() {
    let mut engine = Engine::new();
    let columns = (0..257).map(|c| format!("c{c}"));
    let wide = columns.fold(StreamBuilder::new(), |b, c| b.column(c, DataType::Int));
    engine.register_stream("L", wide.clone());
    engine.register_stream("R", wide);
    let join = "SELECT L.c1, COUNT(*) FROM L JOIN R ON L.c1 = R.c1 GROUP BY L.c1";
    assert_eq!(
        routes(&engine, [("join", join)]),
        "join: one worker (its streams have over 65536 key assignments to try)\n"
    );
}
