//! Seeded request generation. Every request is a pure function of the
//! workload seed and its position, so a run replays exactly the same
//! sequence for the same `--seed`.

use qmldb_math::Rng64;
use qmldb_serve::{Request, WorkloadSpec};

/// Stream tags keep the request families of one seed independent.
const HOT_SET: u64 = 0x484f_5400;
const HOT_ORDER: u64 = 0x4f52_4400;
const COLD: u64 = 0x434f_4c44;
const MIXED_SET: u64 = 0x4d48_4f54;
const MIXED_COLD: u64 = 0x4d43_4f4c;

/// Distinct requests in the `hot_tcp` working set (fits the default
/// 256-entry cache).
pub const HOT_SET_LEN: usize = 64;
/// Distinct requests in the `mixed_tcp` hot session's working set.
pub const MIXED_SET_LEN: usize = 16;

/// Join ordering over a connected graph of `n_rels` relations
/// (`n_rels²` variables): a random spanning tree plus a few extra edges.
pub fn join_order(rng: &mut Rng64, n_rels: usize) -> WorkloadSpec {
    let cardinalities = (0..n_rels)
        .map(|_| 10f64.powf(rng.uniform_range(1.0, 5.0)).round())
        .collect();
    let mut edges = Vec::new();
    for b in 1..n_rels {
        edges.push((rng.index(b), b, rng.uniform_range(0.001, 0.2)));
    }
    for a in 0..n_rels {
        for b in (a + 2)..n_rels {
            if rng.chance(0.15) && !edges.iter().any(|&(x, y, _)| (x, y) == (a, b)) {
                edges.push((a, b, rng.uniform_range(0.001, 0.2)));
            }
        }
    }
    WorkloadSpec::JoinOrder {
        cardinalities,
        edges,
    }
}

/// Multiple-query optimization, `queries × plans` variables; each query
/// pair shares work with probability `sharing`.
pub fn mqo(rng: &mut Rng64, queries: usize, plans: usize, sharing: f64) -> WorkloadSpec {
    let plan_costs: Vec<Vec<f64>> = (0..queries)
        .map(|_| {
            let base = rng.uniform_range(20.0, 120.0);
            (0..plans)
                .map(|_| base * rng.uniform_range(0.8, 1.5))
                .collect()
        })
        .collect();
    let mut savings = Vec::new();
    for q1 in 0..queries {
        for q2 in (q1 + 1)..queries {
            if rng.chance(sharing) {
                let (p1, p2) = (rng.index(plans), rng.index(plans));
                let cap = plan_costs[q1][p1].min(plan_costs[q2][p2]);
                savings.push(((q1, p1), (q2, p2), rng.uniform_range(0.1, 0.6) * cap));
            }
        }
    }
    WorkloadSpec::Mqo {
        plan_costs,
        savings,
    }
}

/// Index selection over `candidates` candidates under a 40% storage
/// budget (variables = candidates + budget slack bits).
pub fn index_selection(rng: &mut Rng64, candidates: usize) -> WorkloadSpec {
    let sizes: Vec<f64> = (0..candidates)
        .map(|_| rng.uniform_range(10.0, 60.0).round())
        .collect();
    let benefits: Vec<f64> = sizes
        .iter()
        .map(|s| (s * rng.uniform_range(0.5, 2.5)).round())
        .collect();
    let mut interactions = Vec::new();
    for i in 0..candidates {
        for j in (i + 1)..candidates {
            if rng.chance(0.2) {
                interactions.push((i, j, (benefits[i].min(benefits[j]) * 0.3).round()));
            }
        }
    }
    let budget = (sizes.iter().sum::<f64>() * 0.4).round();
    WorkloadSpec::IndexSelection {
        sizes,
        benefits,
        interactions,
        budget,
    }
}

/// Transaction scheduling, `n_tx × n_slots` variables; each pair of
/// transactions conflicts with probability `density`.
pub fn tx_schedule(rng: &mut Rng64, n_tx: usize, n_slots: usize, density: f64) -> WorkloadSpec {
    let mut conflicts = Vec::new();
    for i in 0..n_tx {
        for j in (i + 1)..n_tx {
            if rng.chance(density) {
                conflicts.push((i, j, rng.uniform_range(0.5, 4.0)));
            }
        }
    }
    WorkloadSpec::TxSchedule {
        n_tx,
        n_slots,
        conflicts,
        balance_weight: 0.25,
    }
}

fn request(workload: WorkloadSpec, rng: &mut Rng64) -> Request {
    Request {
        workload,
        // Seeds travel as JSON numbers, exact below 2^53.
        seed: rng.next_u64() >> 12,
        deadline_ms: None,
    }
}

/// One request of each family in turn, sized by `class` in `0..4`
/// (larger class → more variables, up to 64).
fn any_family(rng: &mut Rng64, i: usize, class: usize) -> WorkloadSpec {
    match i % 4 {
        0 => join_order(rng, 5 + class),               // 25–64 vars
        1 => mqo(rng, 4 + class, 4, 0.5),              // 16–28 vars
        2 => index_selection(rng, 8 + 2 * class),      // 8–14 candidates + slack
        _ => tx_schedule(rng, 6 + 2 * class, 3, 0.35), // 18–36 vars
    }
}

/// The `hot_tcp` working set: 64 distinct requests, 16 per family, with
/// the four size classes equally represented (so 4 join orders have 8
/// relations, i.e. 64 variables).
pub fn hot_set(seed: u64) -> Vec<Request> {
    (0..HOT_SET_LEN)
        .map(|i| {
            let mut rng = Rng64::for_stream(seed ^ HOT_SET, i as u64);
            let w = any_family(&mut rng, i, (i / 4) % 4);
            request(w, &mut rng)
        })
        .collect()
}

/// A seeded permutation of `0..len`: the order the hot loop cycles in.
pub fn order(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng64::for_stream(seed ^ HOT_ORDER, len as u64);
    let mut idx: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut idx);
    idx
}

/// Request `i` of the never-repeating `cold_tcp` stream. Family and
/// size class cycle with period 16, so every seed sends the same mix of
/// sizes and only the instance data differ.
pub fn cold_request(seed: u64, i: usize) -> Request {
    let mut rng = Rng64::for_stream(seed ^ COLD, i as u64);
    let w = any_family(&mut rng, i, (i / 4) % 4);
    request(w, &mut rng)
}

/// The `mixed_tcp` hot session's working set: models above 26
/// variables, where `Portfolio::full()` runs only its classical members,
/// so the preload stays cheap.
pub fn mixed_set(seed: u64) -> Vec<Request> {
    (0..MIXED_SET_LEN)
        .map(|i| {
            let mut rng = Rng64::for_stream(seed ^ MIXED_SET, i as u64);
            let class = (i / 4) % 3;
            let w = match i % 4 {
                0 => join_order(&mut rng, 6 + class),            // 36–64 vars
                1 => mqo(&mut rng, 7 + class, 4, 0.5),           // 28–36 vars
                2 => index_selection(&mut rng, 20),              // 20 candidates + slack
                _ => tx_schedule(&mut rng, 10 + class, 3, 0.35), // 30–36 vars
            };
            request(w, &mut rng)
        })
        .collect()
}

/// Request `i` of the `mixed_tcp` cold session: a unique 12-variable
/// model, small enough for the exact, QAOA and Grover members. Every
/// pair of queries or transactions interacts, so all cold models have
/// the same number of couplings and every cold solve holds the service
/// lock about as long.
pub fn mixed_cold_request(seed: u64, i: usize) -> Request {
    let mut rng = Rng64::for_stream(seed ^ MIXED_COLD, i as u64);
    let w = match i % 2 {
        0 => mqo(&mut rng, 4, 3, 1.0),
        _ => tx_schedule(&mut rng, 4, 3, 1.0),
    };
    request(w, &mut rng)
}
