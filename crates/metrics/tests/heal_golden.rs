//! Golden records for the distributed Forgiving Tree heal.
//!
//! Each case runs one `run_stress` campaign at n = 3000 and compares every
//! deterministic field of its record with a constant captured before the
//! heal's hot path was optimised: the campaign shape, the ledger books, the
//! engine's `OperationCost` counters, the fault books with the fault-schedule
//! fingerprint, and the verdicts. Timing fields are not compared.
//!
//! The grid covers arity 8 and 3, the three tree planners and the fault
//! models `none`, `loss+crash` and `dup+delay`, so a change to the heal
//! protocol's messages, rounds, edge changes or fault handling moves at least
//! one pin. `cost_heap_bytes` is pinned as `cost_messages_sent` times the
//! size of one queued message, so a smaller message type changes the byte
//! count without a re-pin.

use ft_core::distributed::FtMsg;
use ft_graph::NodeId;
use ft_metrics::{run_stress, StressConfig, StressRecord};

/// Names of the pinned fields, in the order of [`figures`].
const FIELDS: [&str; 23] = [
    "waves",
    "deletions",
    "rounds",
    "live_remaining",
    "peak_per_node_load",
    "max_per_node_total",
    "sent",
    "delivered",
    "dropped",
    "notices",
    "total_messages",
    "cost_messages_sent",
    "cost_messages_delivered",
    "cost_node_visits",
    "cost_edge_scans",
    "cost_seeks",
    "lost",
    "duplicated",
    "delayed",
    "crashes",
    "fault_fingerprint",
    "converged",
    "connected",
];

/// The deterministic fields of `rec`, in the order of [`FIELDS`].
fn figures(rec: &StressRecord) -> [u64; 23] {
    [
        rec.waves as u64,
        rec.deletions as u64,
        rec.rounds,
        rec.live_remaining as u64,
        rec.peak_per_node_load as u64,
        rec.max_per_node_total,
        rec.sent,
        rec.delivered,
        rec.dropped,
        rec.notices,
        rec.total_messages,
        rec.cost.messages_sent,
        rec.cost.messages_delivered,
        rec.cost.node_visits,
        rec.cost.edge_scans,
        rec.cost.seeks,
        rec.lost,
        rec.duplicated,
        rec.delayed,
        rec.crashes,
        rec.fault_fingerprint,
        u64::from(rec.converged),
        u64::from(rec.connected),
    ]
}

fn config(arity: usize, planner: &str, faults: &str) -> StressConfig {
    StressConfig {
        nodes: 3000,
        deletions: 1000,
        wave_size: 50,
        arity,
        planner: planner.into(),
        seed: 7,
        threads: 1,
        cadence: "per-deletion".into(),
        faults: faults.into(),
    }
}

/// `(arity, planner, faults, figures)` captured on the heal before its
/// hot-path rewrite. One row per case; the figures follow [`FIELDS`].
#[rustfmt::skip]
const GOLDEN: &[(usize, &str, &str, [u64; 23])] = &[
    (8, "random", "none", [20, 1000, 2223, 2000, 7, 38, 7276, 5265, 2011, 1951, 7216, 7276, 5265, 6046, 2281, 5095, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (8, "random", "loss+crash", [20, 1000, 2191, 2000, 7, 37, 7145, 4927, 1885, 1949, 6876, 7145, 4927, 5814, 2243, 4865, 333, 0, 0, 492, 0x9c5faec6d31092b8, 1, 0]),
    (8, "random", "dup+delay", [20, 1000, 4010, 2000, 10, 40, 7276, 5542, 2096, 1951, 7493, 7276, 5542, 6419, 2282, 5468, 0, 362, 1707, 0, 0x4a142b4d84424f9d, 1, 0]),
    (8, "targeted", "none", [20, 1000, 3001, 2000, 8, 106, 24234, 17561, 6673, 6490, 24051, 24234, 17561, 18062, 12538, 12572, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (8, "targeted", "loss+crash", [20, 1000, 2917, 2000, 7, 104, 22250, 15155, 6078, 6449, 21604, 22250, 15155, 16318, 11310, 10869, 1017, 0, 0, 514, 0x62dbf6292c607856, 1, 0]),
    (8, "targeted", "dup+delay", [20, 1000, 6777, 2000, 9, 113, 24175, 18394, 7016, 6488, 24882, 24175, 18394, 20175, 12476, 14687, 0, 1235, 5813, 0, 0xd66e5f7b0d393a3b, 1, 1]),
    (8, "heavy-tail", "none", [20, 1000, 2962, 2000, 8, 77, 19925, 14339, 5586, 5224, 19563, 19925, 14339, 14491, 9796, 10267, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (8, "heavy-tail", "loss+crash", [20, 1000, 2868, 2000, 7, 74, 19008, 12993, 5085, 5156, 18149, 19008, 12993, 13555, 9403, 9399, 930, 0, 0, 500, 0x26114f763a87f083, 1, 0]),
    (8, "heavy-tail", "dup+delay", [20, 1000, 5923, 2000, 9, 77, 19757, 14956, 5837, 5193, 20149, 19757, 14956, 16039, 9739, 11846, 0, 1036, 4550, 0, 0xd0f0ef1213bdb1c7, 1, 0]),
    (3, "random", "none", [20, 1000, 2472, 2000, 7, 36, 7628, 5430, 2198, 2041, 7471, 7628, 5430, 6290, 2204, 5249, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (3, "random", "loss+crash", [20, 1000, 2422, 2000, 7, 31, 7348, 4924, 2040, 2033, 6957, 7348, 4924, 5917, 2119, 4884, 384, 0, 0, 475, 0x3c2a5004f42fbd66, 1, 0]),
    (3, "random", "dup+delay", [20, 1000, 4449, 2000, 8, 38, 7622, 5661, 2297, 2040, 7701, 7622, 5661, 6653, 2208, 5613, 0, 336, 1849, 0, 0x4675b5db275db2d1, 1, 0]),
    (3, "targeted", "none", [20, 1000, 3000, 2000, 7, 74, 22162, 15990, 6172, 5840, 21830, 22162, 15990, 17694, 10574, 12854, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (3, "targeted", "loss+crash", [20, 1000, 3000, 2000, 7, 71, 20887, 14207, 5562, 5615, 19822, 20887, 14207, 16160, 9844, 11545, 1118, 0, 0, 487, 0x7b8ac16b48222199, 1, 0]),
    (3, "targeted", "dup+delay", [20, 1000, 6841, 2000, 10, 75, 21971, 16536, 6485, 5800, 22336, 21971, 16536, 18806, 10461, 14006, 0, 1050, 5234, 0, 0x42d20e3a632a4c7f, 1, 1]),
    (3, "heavy-tail", "none", [20, 1000, 2943, 2000, 7, 66, 14155, 10443, 3712, 3414, 13857, 14155, 10443, 11146, 5380, 8732, 0, 0, 0, 0, 0xcbf29ce484222325, 1, 1]),
    (3, "heavy-tail", "loss+crash", [20, 1000, 2849, 2000, 7, 51, 13224, 9160, 3424, 3357, 12517, 13224, 9160, 10214, 5059, 7857, 640, 0, 0, 499, 0x86880606ac5705b4, 1, 0]),
    (3, "heavy-tail", "dup+delay", [20, 1000, 5793, 2000, 9, 50, 14160, 10952, 3905, 3419, 14371, 14160, 10952, 12025, 5396, 9606, 0, 697, 3363, 0, 0x1cec1ab22b37a993, 1, 0]),
];

#[test]
fn heal_records_match_the_golden_figures() {
    let queued = std::mem::size_of::<(NodeId, NodeId, FtMsg)>() as u64;
    for (arity, planner, faults, want) in GOLDEN {
        let rec = run_stress(&config(*arity, planner, faults));
        let case = format!("arity {arity}, {planner}, faults {faults}");
        assert!(rec.balanced, "{case}: books out of balance");
        for ((name, got), want) in FIELDS.iter().zip(figures(&rec)).zip(want) {
            assert_eq!(got, *want, "{case}: {name}");
        }
        assert_eq!(
            rec.cost.heap_bytes,
            rec.cost.messages_sent * queued,
            "{case}: cost_heap_bytes"
        );
    }
}
