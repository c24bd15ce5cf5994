//! Deterministic NEXMark event generation.
//!
//! Substitutes for the original benchmark's data feed (see DESIGN.md):
//! a seeded PRNG produces the standard 1 person : 3 auctions : 46 bids mix
//! in *processing-time* order, with configurable bounded event-time skew so
//! events arrive out of order in event time — the regime the paper's
//! watermark machinery exists for. The same seed always yields the same
//! workload, making benchmark runs reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use onesql_types::{Duration, Ts};

use crate::model::{Auction, Bid, Person};

/// Proportions of the standard NEXMark mix (out of 50 events).
const PERSON_PROPORTION: u64 = 1;
const AUCTION_PROPORTION: u64 = 3;
const TOTAL_PROPORTION: u64 = 50;

/// Generator tuning knobs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// PRNG seed; equal seeds give equal workloads.
    pub seed: u64,
    /// Processing-time gap between consecutive events.
    pub inter_event_gap: Duration,
    /// Maximum event-time skew: each event's event time lags its processing
    /// time by a uniform amount in `[0, max_skew]`. Zero means in-order.
    pub max_skew: Duration,
    /// How many distinct auctions are "hot" (receive most bids).
    pub hot_auctions: u64,
    /// Average auction lifetime (expires - dateTime).
    pub auction_lifetime: Duration,
    /// First event's processing time.
    pub start: Ts,
    /// First person ID issued. Partitioned sources give each partition a
    /// disjoint block so entity IDs never collide across partitions.
    pub first_person_id: i64,
    /// First auction ID issued (same partitioning story).
    pub first_auction_id: i64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 42,
            inter_event_gap: Duration::from_millis(100),
            max_skew: Duration::from_seconds(5),
            hot_auctions: 16,
            auction_lifetime: Duration::from_minutes(10),
            start: Ts::hm(8, 0),
            first_person_id: 1000,
            first_auction_id: 5000,
        }
    }
}

/// One generated event with both time domains attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NexmarkEvent {
    /// A new person registration.
    Person(Person),
    /// A new auction.
    Auction(Auction),
    /// A bid.
    Bid(Bid),
}

impl NexmarkEvent {
    /// The event time carried inside the event.
    pub fn event_time(&self) -> Ts {
        match self {
            NexmarkEvent::Person(p) => p.date_time,
            NexmarkEvent::Auction(a) => a.date_time,
            NexmarkEvent::Bid(b) => b.date_time,
        }
    }

    /// The stream name this event belongs to.
    pub fn stream(&self) -> &'static str {
        match self {
            NexmarkEvent::Person(_) => "Person",
            NexmarkEvent::Auction(_) => "Auction",
            NexmarkEvent::Bid(_) => "Bid",
        }
    }
}

/// One generated event as the generator draws it, before any string is
/// built: every text field but a person's email (which is
/// `{name}{id}@example.com`) is one of the constant tables below, named by
/// its index. [`NexmarkGenerator::next_event`] is this plus the strings;
/// a source that keeps each constant once builds no string per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Draw {
    /// A person: `name` indexes [`FIRST_NAMES`], `city` both [`CITIES`]
    /// and [`STATES`].
    Person {
        /// Unique person id.
        id: i64,
        /// Index into [`FIRST_NAMES`].
        name: usize,
        /// Index into [`CITIES`] and [`STATES`].
        city: usize,
        /// Event time of registration.
        date_time: Ts,
    },
    /// An auction: `item` indexes [`ITEMS`]; the rest is
    /// [`Auction`]'s fields.
    Auction {
        /// Unique auction id.
        id: i64,
        /// Index into [`ITEMS`].
        item: usize,
        /// Starting bid.
        initial_bid: i64,
        /// Reserve price.
        reserve: i64,
        /// Event time the auction opened.
        date_time: Ts,
        /// Event time the auction closes.
        expires: Ts,
        /// Seller's person id.
        seller: i64,
        /// Category id.
        category: i64,
    },
    /// A bid (no text fields).
    Bid(Bid),
}

impl Draw {
    /// The model event with its strings built.
    pub fn event(self) -> NexmarkEvent {
        match self {
            Draw::Person {
                id,
                name,
                city,
                date_time,
            } => NexmarkEvent::Person(Person {
                id,
                name: FIRST_NAMES[name].to_string(),
                email: format!("{}{id}@example.com", FIRST_NAMES[name]),
                city: CITIES[city].to_string(),
                state: STATES[city].to_string(),
                date_time,
            }),
            Draw::Auction {
                id,
                item,
                initial_bid,
                reserve,
                date_time,
                expires,
                seller,
                category,
            } => NexmarkEvent::Auction(Auction {
                id,
                item_name: ITEMS[item].to_string(),
                initial_bid,
                reserve,
                date_time,
                expires,
                seller,
                category,
            }),
            Draw::Bid(bid) => NexmarkEvent::Bid(bid),
        }
    }
}

/// The generator: an iterator of `(ptime, event)` pairs in processing-time
/// order.
pub struct NexmarkGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    sequence: u64,
    next_person_id: i64,
    next_auction_id: i64,
}

/// The first names a person is drawn with.
pub const FIRST_NAMES: [&str; 8] = [
    "ada", "grace", "alan", "edsger", "barbara", "donald", "tony", "leslie",
];
/// The cities a person is drawn in.
pub const CITIES: [&str; 6] = [
    "seattle",
    "berlin",
    "oakridge",
    "amsterdam",
    "phoenix",
    "kyoto",
];
/// The state of each city in [`CITIES`], at the same index.
pub const STATES: [&str; 6] = ["wa", "be", "tn", "nh", "az", "kp"];
/// The items an auction is drawn for.
pub const ITEMS: [&str; 8] = [
    "teapot", "vase", "stamp", "comic", "guitar", "lens", "clock", "globe",
];

impl NexmarkGenerator {
    /// Create with the given configuration.
    pub fn new(config: GeneratorConfig) -> NexmarkGenerator {
        let rng = StdRng::seed_from_u64(config.seed);
        NexmarkGenerator {
            rng,
            sequence: 0,
            next_person_id: config.first_person_id,
            next_auction_id: config.first_auction_id,
            config,
        }
    }

    /// Create with default configuration and the given seed.
    pub fn seeded(seed: u64) -> NexmarkGenerator {
        NexmarkGenerator::new(GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        })
    }

    /// Generate the next `(ptime, event)`.
    pub fn next_event(&mut self) -> (Ts, NexmarkEvent) {
        let (ptime, draw) = self.next_draw();
        (ptime, draw.event())
    }

    /// Draw the next `(ptime, event)` without building its strings: the
    /// same sequence [`NexmarkGenerator::next_event`] yields.
    pub fn next_draw(&mut self) -> (Ts, Draw) {
        let seq = self.sequence;
        self.sequence += 1;
        let ptime = self.config.start + Duration(self.config.inter_event_gap.millis() * seq as i64);
        let skew = if self.config.max_skew.millis() > 0 {
            Duration(self.rng.gen_range(0..=self.config.max_skew.millis()))
        } else {
            Duration::ZERO
        };
        let event_time = ptime - skew;

        let slot = seq % TOTAL_PROPORTION;
        let draw = if slot < PERSON_PROPORTION {
            self.draw_person(event_time)
        } else if slot < PERSON_PROPORTION + AUCTION_PROPORTION {
            self.draw_auction(event_time)
        } else {
            Draw::Bid(self.make_bid(event_time))
        };
        (ptime, draw)
    }

    /// Generate a batch of `n` events.
    pub fn take(&mut self, n: usize) -> Vec<(Ts, NexmarkEvent)> {
        (0..n).map(|_| self.next_event()).collect()
    }

    fn draw_person(&mut self, date_time: Ts) -> Draw {
        let id = self.next_person_id;
        self.next_person_id += 1;
        let name = self.rng.gen_range(0..FIRST_NAMES.len());
        let city = self.rng.gen_range(0..CITIES.len());
        Draw::Person {
            id,
            name,
            city,
            date_time,
        }
    }

    /// The draws in the order the generator has always made them:
    /// initial bid, item, reserve, seller, category.
    fn draw_auction(&mut self, date_time: Ts) -> Draw {
        let id = self.next_auction_id;
        self.next_auction_id += 1;
        let initial_bid = self.rng.gen_range(1..100i64);
        let item = self.rng.gen_range(0..ITEMS.len());
        let reserve = initial_bid + self.rng.gen_range(1..100i64);
        let seller = self.random_person_id();
        let category = 10 + self.rng.gen_range(0..5i64);
        Draw::Auction {
            id,
            item,
            initial_bid,
            reserve,
            date_time,
            expires: date_time + self.config.auction_lifetime,
            seller,
            category,
        }
    }

    fn make_bid(&mut self, date_time: Ts) -> Bid {
        Bid {
            auction: self.random_auction_id(),
            bidder: self.random_person_id(),
            price: self.rng.gen_range(1..10_000i64),
            date_time,
        }
    }

    fn random_person_id(&mut self) -> i64 {
        let first = self.config.first_person_id;
        if self.next_person_id == first {
            return first; // before any person exists, reference the first
        }
        self.rng
            .gen_range(first..self.next_person_id.max(first + 1))
    }

    fn random_auction_id(&mut self) -> i64 {
        let first = self.config.first_auction_id;
        if self.next_auction_id == first {
            return first;
        }
        // Skew bids towards hot auctions (the most recent ones).
        let hot = self.config.hot_auctions as i64;
        if self.rng.gen_bool(0.8) {
            let lo = (self.next_auction_id - hot).max(first);
            self.rng.gen_range(lo..self.next_auction_id.max(lo + 1))
        } else {
            self.rng
                .gen_range(first..self.next_auction_id.max(first + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = NexmarkGenerator::seeded(7).take(500);
        let b = NexmarkGenerator::seeded(7).take(500);
        assert_eq!(a, b);
        let c = NexmarkGenerator::seeded(8).take(500);
        assert_ne!(a, c);
    }

    #[test]
    fn ptime_monotonic_and_event_time_skewed_within_bound() {
        let config = GeneratorConfig {
            max_skew: Duration::from_seconds(3),
            ..GeneratorConfig::default()
        };
        let events = NexmarkGenerator::new(config.clone()).take(1000);
        let mut last = Ts::MIN;
        for (ptime, event) in &events {
            assert!(*ptime >= last);
            last = *ptime;
            let skew = *ptime - event.event_time();
            assert!(skew >= Duration::ZERO && skew <= config.max_skew);
        }
    }

    #[test]
    fn mix_roughly_matches_proportions() {
        let events = NexmarkGenerator::seeded(1).take(5000);
        let bids = events
            .iter()
            .filter(|(_, e)| matches!(e, NexmarkEvent::Bid(_)))
            .count();
        let people = events
            .iter()
            .filter(|(_, e)| matches!(e, NexmarkEvent::Person(_)))
            .count();
        let auctions = events
            .iter()
            .filter(|(_, e)| matches!(e, NexmarkEvent::Auction(_)))
            .count();
        assert_eq!(people + auctions + bids, 5000);
        assert_eq!(people, 100); // 1/50
        assert_eq!(auctions, 300); // 3/50
        assert_eq!(bids, 4600); // 46/50
    }

    #[test]
    fn referenced_ids_exist_eventually() {
        let events = NexmarkGenerator::seeded(3).take(2000);
        let max_person = events
            .iter()
            .filter_map(|(_, e)| match e {
                NexmarkEvent::Person(p) => Some(p.id),
                _ => None,
            })
            .max()
            .unwrap();
        for (_, e) in &events {
            if let NexmarkEvent::Bid(b) = e {
                assert!(b.bidder >= 1000 && b.bidder <= max_person.max(1000));
            }
        }
    }

    #[test]
    fn streams_named() {
        let mut g = NexmarkGenerator::seeded(1);
        let (_, e) = g.next_event();
        assert!(["Person", "Auction", "Bid"].contains(&e.stream()));
    }

    #[test]
    fn zero_skew_means_in_order() {
        let config = GeneratorConfig {
            max_skew: Duration::ZERO,
            ..GeneratorConfig::default()
        };
        for (ptime, event) in NexmarkGenerator::new(config).take(200) {
            assert_eq!(ptime, event.event_time());
        }
    }
}
