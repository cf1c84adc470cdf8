//! Golden digests: the frozen `state_digest`, total rounds and total words
//! of the streams the deleted `layout_diff` suites replayed, plus the
//! canonical n=256 / seed-42 workload.
//!
//! Every constant below was captured on the last commit that still carried
//! the map state layout, with each stream run through both layouts and the
//! two results asserted equal before printing. The machine programs store
//! their shards in one layout now, so what used to be a map-vs-SoA
//! differential is a comparison against these numbers: a change to the
//! arenas, the executor or any host-side bookkeeping must not move a
//! digest, a round or a word.
//!
//! The `MULTICAST_*` constants came the same way from commit 9e4e563, the
//! last one that could still address a structural multicast to every
//! machine instead of the affected components' owners: each stream of
//! `crates/connectivity/tests/multicast.rs` was run under both routings,
//! every machine's vertex states and directory shard were asserted equal
//! after every update, and multicast's totals were printed beside
//! broadcast's. Broadcast merely over-addressed, so a digest that moves
//! here means the one remaining routing changed what it computes.
//!
//! [`SEEDS`] are the twelve seeds the vendored proptest stub drew for the
//! old suites' `seed in 0u64..1u64 << 48` strategy (the stub seeds each
//! case from its index, so those "random" cases were twelve fixed streams).

use dmpc::connectivity::{DmpcConnectivity, DmpcMst};
use dmpc::core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc::graph::streams::{self, Update, WeightedUpdate};
use dmpc::graph::{DynamicGraph, Edge, Op};
use dmpc::matching::DmpcMaximalMatching;
use dmpc::mpc::{BatchMetrics, ChaosCaps, ChaosPlan, ExecOptions, Machine, UpdateMetrics};
use dmpc::service::{CloseReason, ServiceAlgorithm, ServiceLoop, ServiceReport, UnweightedService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `(state_digest, total rounds, total words)` of one replayed stream.
type Golden = (u64, usize, usize);

const SEEDS: [u64; 12] = [
    234597756721153,
    153152714335365,
    181932419664687,
    160280752013312,
    253008646047155,
    132255152237029,
    45929508794765,
    67757782854041,
    132502916048122,
    174617057260514,
    168876165101714,
    264001919763962,
];
const CONN_CHURN: [Golden; 12] = [
    (11682335530790371392, 950, 27366),
    (11579482097330672618, 918, 24457),
    (13134980905492143192, 901, 22204),
    (17206131028503576305, 919, 24828),
    (17253125552632408177, 914, 23669),
    (9231797293424773156, 913, 23713),
    (16105116716010119189, 891, 21628),
    (10391046566120076751, 998, 31032),
    (9369296190974752376, 993, 30555),
    (1886232050524571618, 922, 25577),
    (1045569091870911378, 945, 27140),
    (15249148177454199436, 891, 22175),
];
const CONN_SPLIT_MERGE: [Golden; 12] = [
    (8650621781260063336, 538, 3093),
    (5143802160652075316, 617, 3843),
    (16592887565474033304, 569, 3558),
    (11134359225080817249, 602, 4021),
    (7244869479079707628, 604, 3839),
    (1502282327451577841, 562, 3506),
    (15553708796474269775, 589, 3681),
    (15141323810826137755, 619, 3955),
    (3075372463685179653, 638, 4259),
    (13208872102427344184, 551, 3176),
    (7094125647404981190, 551, 3379),
    (148690265390187696, 634, 4266),
];
const CONN_CHAOS: [Golden; 12] = [
    (16665466216549563488, 215, 5465),
    (14707213243365643787, 214, 5166),
    (12040571919635920593, 192, 5279),
    (9861051708880391160, 188, 4469),
    (6437492800917352112, 206, 5111),
    (2854396464480472369, 201, 4876),
    (17152155544954235153, 202, 4515),
    (2721428494344454984, 213, 5593),
    (17779762868461958345, 212, 5483),
    (4436915453782261844, 201, 4992),
    (16398562237348216041, 218, 5012),
    (710715404255671838, 208, 5820),
];
/// Rounds and words restated, digests unchanged, when each MST swap's
/// demote and link became one multicast (per swap: two rounds fewer, and
/// one 15-word multicast where two 16-word ones, a `StartLink` and an
/// `InsQuery` went) and the path-max query dropped its unread edge and
/// weight (10 words to 7). They were (1151, 46660), (1111, 42081) and
/// (1154, 50735).
const MST_CHURN: [Golden; 3] = [
    (14544705878201844831, 1056, 33941),
    (18237013094924977716, 1037, 31969),
    (14650486467542310681, 1058, 38648),
];
/// Words restated, digests and rounds unchanged, when a matching history
/// suffix began to travel as one base seq and 3 words per entry instead of
/// 4 per entry. They were 13080, 14352, 13468, 14065, 13786, 14144, 13923,
/// 14206, 16148, 17559, 14048 and 14316.
const MATCHING_CHURN: [Golden; 12] = [
    (9254978072679190316, 1237, 12369),
    (16216692628826645731, 1264, 13408),
    (17730010750657279895, 1228, 12729),
    (16114423002451183209, 1260, 13176),
    (10322587675348631036, 1261, 12965),
    (17017936401448202855, 1238, 13260),
    (7072271099357131445, 1244, 13080),
    (9267320779896999606, 1260, 13295),
    (9253967884657389105, 1294, 14874),
    (5971694981033842957, 1324, 16000),
    (7792958545096058698, 1249, 13175),
    (7233702763339730709, 1246, 13405),
];
/// Rounds and words restated, digests unchanged, at the same change as
/// [`MATCHING_CHURN`]: the history words fell, so the batch drain meets its
/// send-budget yield later and some `BatchResume` rounds went too. The
/// recovery rounds and words inside each total are unchanged (a revive
/// ships snapshot text, not history). They were (293, 6555), (346, 7718),
/// (311, 6718), (292, 7038), (341, 8047), (302, 7148), (363, 9110),
/// (352, 7813), (293, 6732), (297, 7080), (268, 5826) and (348, 8455).
const MATCHING_CHAOS: [Golden; 12] = [
    (11172244405843047413, 290, 5928),
    (7818268789370473326, 345, 6966),
    (5154045274725126741, 308, 6171),
    (16675725140088889430, 289, 6249),
    (7958541594725537949, 336, 7096),
    (252994191692494316, 298, 6370),
    (1121307953940840151, 358, 8022),
    (16256772573078736439, 348, 7016),
    (9512027543251243423, 289, 6133),
    (8224853675882601523, 294, 6325),
    (9625235500472503002, 266, 5294),
    (6287172435453472395, 345, 7460),
];
/// Connectivity per-op, connectivity k=64, matching per-op, matching k=64.
/// The two matching cells were restated at the same change as
/// [`MATCHING_CHAOS`], digests unchanged; they were (9695, 157380) and
/// (2943, 153331).
const CANONICAL: [Golden; 4] = [
    (4698958597914877354, 6056, 415084),
    (843140439326563735, 3003, 424711),
    (7168948537315448783, 9695, 139491),
    (17695691996732485748, 2914, 135647),
];

/// One stream under owner-set multicast, `(state_digest, rounds, words,
/// sum of machines_touched)`, and under the all-machine broadcast that ran
/// the same protocol, `(rounds, words, sum of machines_touched)`.
type Routed = ((u64, usize, usize, usize), (usize, usize, usize));

/// The sixteen cases the vendored proptest stub draws for `multicast.rs`'s
/// `vec((0u32..24, 0u32..24, any::<bool>()), 1..120)`, by case index.
const MULTICAST_PROPTEST: [Routed; 16] = [
    ((9870439846019109572, 44, 649, 40), (44, 2313, 144)),
    ((4339578917939402452, 128, 2796, 153), (128, 4828, 280)),
    ((8229174652267030521, 3, 28, 2), (3, 188, 12)),
    ((16170603462219536947, 96, 2410, 126), (96, 4490, 256)),
    ((12524623682809466405, 195, 4861, 243), (195, 7008, 375)),
    ((5937357798705230869, 40, 443, 27), (40, 1931, 120)),
    ((18296051875694062937, 166, 3568, 205), (166, 5989, 351)),
    ((7700859791668671804, 145, 4065, 205), (145, 5841, 316)),
    ((8092786891551070422, 111, 2222, 130), (111, 4694, 282)),
    ((3880863758111023701, 133, 2523, 149), (133, 5173, 314)),
    ((6419062039055956656, 194, 3318, 221), (194, 5835, 373)),
    ((16590721222396896734, 122, 2005, 121), (122, 4734, 290)),
    ((14590219624670749293, 178, 5207, 245), (178, 7351, 379)),
    ((7976292415559082939, 42, 678, 42), (43, 2310, 144)),
    ((10266379423775391842, 239, 5977, 286), (240, 8265, 429)),
    ((14881646200199703367, 75, 1472, 84), (75, 3392, 204)),
];
/// The [`MST_CHURN`] streams (multicast's rounds and words restated with
/// them; broadcast's columns are the frozen run's).
const MULTICAST_MST: [Routed; 3] = [
    (
        (14544705878201844831, 1056, 33941, 1493),
        (1153, 49214, 1653),
    ),
    (
        (18237013094924977716, 1037, 31969, 1485),
        (1111, 44728, 1645),
    ),
    (
        (14650486467542310681, 1058, 38648, 1505),
        (1157, 53673, 1689),
    ),
];
/// Canonical churn (n = 256, 512 mixed updates, seed 42) at P = 16.
const MULTICAST_CANONICAL_P16: Routed = (
    (17164679207077951000, 3884, 125300, 5521),
    (3893, 155903, 7429),
);
/// Clustered churn, n = 128, at P = 32.
const MULTICAST_CLUSTERED_P32: Routed = (
    (12723173749733691690, 1255, 15349, 874),
    (1272, 154938, 8082),
);
/// Clustered churn, n = 256, at P = 4, 16 and 64.
const MULTICAST_P_SWEEP: [Routed; 3] = [
    ((10757535703899456080, 640, 0, 640), (1530, 34239, 2485)),
    (
        (10757535703899456080, 2400, 15842, 1184),
        (2509, 177038, 9873),
    ),
    (
        (10757535703899456080, 3001, 54169, 2856),
        (3015, 731258, 39403),
    ),
];

/// Running model-cost totals; every absorbed run must be violation-free.
#[derive(Default)]
struct Tally {
    rounds: usize,
    words: usize,
    touched: usize,
}

impl Tally {
    fn update(&mut self, m: &UpdateMetrics) {
        assert!(m.clean(), "model violations: {:?}", m.violations);
        self.rounds += m.rounds;
        self.words += m.total_words;
        self.touched += m.machines_touched;
    }

    fn golden(&self, digest: u64) -> Golden {
        (digest, self.rounds, self.words)
    }
}

fn conn(n: usize, m_max: usize) -> DmpcConnectivity {
    DmpcConnectivity::new(DmpcParams::new(n, m_max))
}

fn matching(n: usize, m_max: usize) -> DmpcMaximalMatching {
    DmpcMaximalMatching::new(DmpcParams::new(n, m_max))
}

fn replay<A: DynamicGraphAlgorithm<Update = Update> + ElasticAlgorithm>(
    mut alg: A,
    ups: &[Update],
) -> Golden {
    let mut t = Tally::default();
    for &u in ups {
        t.update(&alg.apply(u));
    }
    t.golden(alg.state_digest())
}

fn replay_batched<A: DynamicGraphAlgorithm<Update = Update> + ElasticAlgorithm>(
    mut alg: A,
    ups: &[Update],
    k: usize,
) -> Golden {
    let mut bm = BatchMetrics::default();
    for batch in ups.chunks(k) {
        bm.merge(&alg.apply_batch(batch));
    }
    assert!(bm.clean(), "{} model violations", bm.violations);
    (alg.state_digest(), bm.rounds, bm.total_words)
}

/// Drives `batches` as write-only windows through the service loop under
/// `plan`, checkpointing after every `every` windows (0: never).
fn churn<A, F>(make: F, batches: &[Vec<Update>], plan: &ChaosPlan, every: usize) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    let mut a = make();
    let mut lp = ServiceLoop::new(&mut a, &make, plan);
    for (i, batch) in batches.iter().enumerate() {
        let ops = batch.iter().map(|&u| Op::Write(u)).collect();
        lp.window(ops, CloseReason::Size, 0, 0);
        if every > 0 && (i + 1) % every == 0 {
            lp.checkpoint();
        }
    }
    lp.finish()
}

/// Workload plus recovery cost of a chaos run, and its final digest.
fn chaos_golden(r: &ServiceReport) -> Golden {
    assert_eq!(r.writes.violations, 0);
    assert_eq!(r.recovery.violations, 0);
    (
        r.final_digest,
        r.writes.rounds + r.recovery.rounds,
        r.writes.total_words + r.recovery.total_words,
    )
}

fn check(name: &str, seeds: &[u64], want: &[Golden], run: impl Fn(u64) -> Golden) {
    assert_eq!(seeds.len(), want.len());
    for (&seed, &want) in seeds.iter().zip(want) {
        assert_eq!(run(seed), want, "{name}: golden moved at seed {seed}");
    }
}

/// Mixed per-op churn on connectivity.
#[test]
fn connectivity_churn_streams() {
    check("conn churn", &SEEDS, &CONN_CHURN, |seed| {
        let n = 48;
        replay(
            conn(n, 4 * n),
            &streams::churn_stream(n, 80, 160, 0.55, seed),
        )
    });
}

/// Clustered churn with two shard splits and a merge mid-stream; the
/// migrations' own rounds and words are part of the totals.
#[test]
fn connectivity_across_split_merge() {
    check("conn split/merge", &SEEDS, &CONN_SPLIT_MERGE, |seed| {
        let n = 64;
        let mut alg = conn(n, 4 * n);
        let ups = streams::clustered_churn_stream(n, 8, 10, 120, 0.6, seed);
        let (pre, post) = ups.split_at(ups.len() / 2);
        let mut t = Tally::default();
        for &u in pre {
            t.update(&alg.apply(u));
        }
        for victim in [0u32, 3] {
            t.update(&alg.driver_mut().split_shard(victim).expect("splittable"));
        }
        t.update(&alg.driver_mut().merge_shard(0).expect("mergeable"));
        for &u in post {
            t.update(&alg.apply(u));
        }
        t.golden(alg.state_digest())
    });
}

/// Kill + checkpoint/replay revive and split/merge chaos on connectivity.
#[test]
fn connectivity_under_chaos() {
    check("conn chaos", &SEEDS, &CONN_CHAOS, |seed| {
        let n = 40;
        let batches = streams::chaos_churn_batches(n, 5, 4, 90, 9, seed);
        let plan = ChaosPlan::generate(seed, batches.len(), 5, 6, ChaosCaps::default());
        let make = || UnweightedService::new(conn(n, 4 * n));
        chaos_golden(&churn(make, &batches, &plan, 3))
    });
}

/// MST mode: weighted churn with path-max swap cuts.
#[test]
fn mst_churn_streams() {
    check("mst churn", &[0, 1, 2], &MST_CHURN, |seed| {
        let n = 32;
        let mut alg = DmpcMst::new(DmpcParams::new(n, 160), 0.1);
        let ups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, seed), 100, seed);
        let mut t = Tally::default();
        for &u in &ups {
            t.update(&match u {
                WeightedUpdate::Insert(e, w) => alg.insert(e, w),
                WeightedUpdate::Delete(e) => alg.delete(e),
            });
        }
        t.golden(ElasticAlgorithm::state_digest(&alg))
    });
}

/// Replays `ups` one at a time and holds the totals against the frozen
/// multicast run — which never cost more than broadcast's in any column.
fn check_routed<A>(name: &str, mut alg: A, ups: &[A::Update], (want, bc): Routed)
where
    A: DynamicGraphAlgorithm + ElasticAlgorithm,
{
    let mut t = Tally::default();
    for &u in ups {
        t.update(&alg.apply(u));
    }
    let got = (alg.state_digest(), t.rounds, t.words, t.touched);
    assert_eq!(got, want, "{name}: golden moved");
    assert!(got.1 <= bc.0 && got.2 <= bc.1 && got.3 <= bc.2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streams of `multicast.rs`'s differential proptest.
    #[test]
    fn multicast_proptest_streams(
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 1..120)
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let mut g = DynamicGraph::new(24);
        // Self-loops, duplicate inserts and deletes of absent edges drop out.
        let valid = |&(a, b, ins): &(u32, u32, bool)| {
            let e = (a != b).then(|| Edge::new(a, b))?;
            match ins {
                true => g.insert(e).ok().map(|_| Update::Insert(e)),
                false => g.delete(e).ok().map(|_| Update::Delete(e)),
            }
        };
        let ups: Vec<Update> = ops.iter().filter_map(valid).collect();
        check_routed(&format!("case {case}"), conn(24, 140), &ups, MULTICAST_PROPTEST[case]);
    }
}

/// MST mode, canonical churn at a forced P = 16, and clustered churn at
/// P = 32 and across the P sweep, where each machine is given the memory
/// its share of the graph needs when P is forced below the model's count.
#[test]
fn multicast_streams() {
    for (seed, want) in MULTICAST_MST.into_iter().enumerate() {
        let ups = streams::with_weights(
            &streams::churn_stream(32, 50, 120, 0.5, seed as u64),
            100,
            seed as u64,
        );
        let alg = DmpcMst::new(DmpcParams::new(32, 160), 0.1);
        check_routed(&format!("mst seed {seed}"), alg, &ups, want);
    }
    let at = |params, p| DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
    let n = 256;
    let ups = streams::churn_stream(n, 2 * n, 512, 0.5, 42);
    let alg = at(DmpcParams::new(n, 3 * n), 16);
    check_routed("canonical P=16", alg, &ups, MULTICAST_CANONICAL_P16);
    let ups = streams::clustered_churn_stream(128, 8, 12, 200, 0.5, 9);
    let alg = at(DmpcParams::new(128, 384), 32);
    check_routed("clustered P=32", alg, &ups, MULTICAST_CLUSTERED_P32);
    let ups = streams::clustered_churn_stream(n, 8, n / 16, 512, 0.5, 42);
    for (p, want) in [4, 16, 64].into_iter().zip(MULTICAST_P_SWEEP) {
        let base = DmpcParams::new(n, 3 * n);
        let params = base.with_multiplier(32 * base.storage_machines().div_ceil(p).max(1));
        check_routed(&format!("sweep P={p}"), at(params, p), &ups, want);
    }
}

/// Resident words (summed over machines) and checkpoint-text digest of MST
/// mode after the canonical stream. The text digest was captured on the
/// last commit whose structural sweep stored every member vertex's tour
/// back one vertex at a time (resident 7,430 then). 7,404 with the kernels
/// on 64-bit columns; 5,491 with 32-bit tour and annotation columns and a
/// tree count per adjacency segment; the words now are those of the
/// adjacency arena alone, its tree prefixes standing for the tour-index
/// arena (and its segment table) that used to copy them.
const MST_CANONICAL_RESIDENT: (usize, u64) = (4484, 1577733762557580182);

/// The arenas may reclaim holes at other moments than they used to — never
/// hold more for it, and never a different vertex state.
#[test]
fn mst_canonical_resident_words_do_not_grow() {
    let n = 256;
    let ups = streams::with_weights(&streams::churn_stream(n, 2 * n, 1024, 0.5, 42), 100, 42);
    let mut alg = DmpcMst::new(DmpcParams::new(n, 3 * n), 0.1);
    for &u in &ups {
        let m = match u {
            WeightedUpdate::Insert(e, w) => alg.insert(e, w),
            WeightedUpdate::Delete(e) => alg.delete(e),
        };
        assert!(m.clean());
    }
    let resident: usize = alg.driver().machines().map(|m| m.memory_words()).sum();
    let text = dmpc::mpc::chaos::fnv1a(alg.checkpoint().concat().as_bytes());
    let (ceiling, want_text) = MST_CANONICAL_RESIDENT;
    assert_eq!(
        text, want_text,
        "checkpoint text moved (resident {resident})"
    );
    assert!(resident <= ceiling, "resident {resident} words > {ceiling}");
}

/// Resident words of maximal matching after the canonical stream in batches
/// of 64 (the storage, history and overflow arenas, summed over machines):
/// the 3,427 arena words of before the neighbour index, plus one `u32` per
/// live storage entry for the index (550 words) and one word per machine
/// for the coordinator's sync table (73), both metered since. The count
/// table beside the sync table is metered too; history entries dropped
/// their seq word to pay for it, and the total stayed at 4,038.
const MATCHING_CANONICAL_RESIDENT: usize = 4050;

/// The matching twin of the ceiling above: arena slack may not creep in.
#[test]
fn matching_canonical_resident_words_do_not_grow() {
    let n = 256;
    let ups = streams::churn_stream(n, 2 * n, 1024, 0.5, 42);
    let resident = batched(matching(n, 3 * n), &ups, 64).resident_words();
    assert!(
        resident <= MATCHING_CANONICAL_RESIDENT,
        "resident {resident} words > {MATCHING_CANONICAL_RESIDENT}"
    );
}

/// Mixed per-op churn on maximal matching.
#[test]
fn matching_churn_streams() {
    check("matching churn", &SEEDS, &MATCHING_CHURN, |seed| {
        let n = 40;
        replay(
            matching(n, 160),
            &streams::churn_stream(n, 60, 140, 0.55, seed),
        )
    });
}

/// Kills with checkpoint + suffix-replay revives on matching (no shard
/// migration, and the coordinator, machine 0, is protected).
#[test]
fn matching_under_chaos() {
    check("matching chaos", &SEEDS, &MATCHING_CHAOS, |seed| {
        let n = 32;
        let batches = streams::chaos_churn_batches(n, 4, 4, 70, 8, seed);
        let make = || UnweightedService::new(matching(n, 160));
        let caps = ChaosCaps {
            kill_revive: true,
            split_merge: false,
            protect: 1,
        };
        let plan = ChaosPlan::generate(seed, batches.len(), make().n_shards(), 4, caps);
        chaos_golden(&churn(make, &batches, &plan, 3))
    });
}

/// The canonical bench workload (n = 256, `m_max = 3n`, 2n build-up inserts
/// then 1024 mixed updates, seed 42), per-op and in batches of 64.
#[test]
fn canonical_n256_seed42() {
    let n = 256;
    let ups = streams::churn_stream(n, 2 * n, 1024, 0.5, 42);
    let got = [
        replay(conn(n, 3 * n), &ups),
        replay_batched(conn(n, 3 * n), &ups, 64),
        replay(matching(n, 3 * n), &ups),
        replay_batched(matching(n, 3 * n), &ups, 64),
    ];
    assert_eq!(got, CANONICAL);
}

/// FNV-1a of the concatenated `checkpoint()` texts (machine order) of:
/// connectivity in batches of 1 and of 64, matching likewise, on the
/// canonical workload; MST churn seed 0; matching after a star that leaves vertex 0
/// heavy (so the overflow role and the coordinator's `ovf`/`susp` tables
/// hold lines). The state digests above skip connectivity's machine header
/// and `dir` lines and never see matching's text byte for byte; these pin
/// every byte a snapshot writer emits. Captured on the last commit whose
/// writers went through `fmt`.
const SNAPSHOT_BYTES: [u64; 6] = [
    1906135689035367783,
    15087467110995317282,
    4404946788099165665,
    6318501889151849008,
    7461093199260908899,
    1309688183613463811,
];

/// Digest of the full checkpoint text, after checking that restoring the
/// checkpoint machine by machine reproduces it byte for byte.
fn checkpoint_bytes<A: ElasticAlgorithm>(alg: &mut A) -> u64 {
    let before = alg.checkpoint();
    for (m, snap) in before.iter().enumerate() {
        alg.restore_machine(m as u32, snap);
    }
    assert_eq!(alg.checkpoint(), before, "restore_machine moved the text");
    dmpc::mpc::chaos::fnv1a(before.concat().as_bytes())
}

fn batched<A: DynamicGraphAlgorithm<Update = Update>>(mut alg: A, ups: &[Update], k: usize) -> A {
    for batch in ups.chunks(k) {
        assert!(alg.apply_batch(batch).clean());
    }
    alg
}

/// Snapshot text, byte for byte, of the canonical runs, one MST stream and
/// a matching instance with a heavy vertex; plus the checkpoint → restore →
/// checkpoint round trip on each (and the full-cluster `restore` where the
/// algorithm supports it).
#[test]
fn snapshot_bytes_and_restore_round_trip() {
    let n = 256;
    let ups = streams::churn_stream(n, 2 * n, 1024, 0.5, 42);
    let mut got = Vec::new();
    for k in [1, 64] {
        let mut alg = batched(conn(n, 3 * n), &ups, k);
        let snaps = alg.checkpoint();
        alg.restore(&snaps);
        assert_eq!(alg.checkpoint(), snaps, "restore moved the text");
        got.push(checkpoint_bytes(&mut alg));
    }
    for k in [1, 64] {
        got.push(checkpoint_bytes(&mut batched(matching(n, 3 * n), &ups, k)));
    }

    let mut mst = DmpcMst::new(DmpcParams::new(32, 160), 0.1);
    for &u in &streams::with_weights(&streams::churn_stream(32, 50, 120, 0.5, 0), 100, 0) {
        let m = match u {
            WeightedUpdate::Insert(e, w) => mst.insert(e, w),
            WeightedUpdate::Delete(e) => mst.delete(e),
        };
        assert!(m.clean());
    }
    let snaps = mst.checkpoint();
    mst.restore(&snaps);
    assert_eq!(mst.checkpoint(), snaps, "restore moved the text");
    got.push(checkpoint_bytes(&mut mst));

    let mut star = streams::churn_stream(n, 2 * n, 1024, 0.55, 12);
    let g = streams::replay(n, &star);
    star.extend(
        (1..=80)
            .map(|v| dmpc::graph::Edge::new(0, v))
            .filter(|&e| !g.has_edge(e))
            .map(Update::Insert),
    );
    let mut heavy = batched(matching(n, 3 * n), &star, 64);
    let text = heavy.checkpoint().concat();
    for key in [
        "\noedge ",
        "\nassigned 0\n",
        "\novf 0 ",
        "\nsusp 0 ",
        "\nhist ",
    ] {
        assert!(text.contains(key), "heavy instance lacks a {key:?} line");
    }
    got.push(checkpoint_bytes(&mut heavy));

    assert_eq!(got, SNAPSHOT_BYTES);
}
