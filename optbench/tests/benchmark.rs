//! The benchmark's own tests: a seed fully determines the requests, the
//! tail helper picks the right percentile, and the reply checker rejects
//! wrong replies.

use optbench::check::Checker;
use optbench::gen;
use optbench::problem::Problem;
use optbench::stats::tail;
use qmldb_math::json::Json;
use qmldb_serve::wire::reply_json;
use qmldb_serve::{Reply, Request, Service, ServiceConfig, WorkloadSpec};

#[test]
fn request_generator_is_a_pure_function_of_the_seed() {
    assert_eq!(gen::hot_set(7), gen::hot_set(7));
    assert_eq!(gen::mixed_set(7), gen::mixed_set(7));
    assert_eq!(gen::order(7, 64), gen::order(7, 64));
    for i in 0..40 {
        assert_eq!(gen::cold_request(7, i), gen::cold_request(7, i));
        assert_eq!(gen::mixed_cold_request(7, i), gen::mixed_cold_request(7, i));
    }
    assert_ne!(gen::hot_set(7), gen::hot_set(8));
    assert_ne!(gen::cold_request(7, 3), gen::cold_request(8, 3));
    // Every working-set request is distinct, and so is the cold stream.
    let set = gen::hot_set(7);
    for (i, a) in set.iter().enumerate() {
        assert!(set[i + 1..].iter().all(|b| a != b));
    }
    let mut order = gen::order(7, 64);
    order.sort_unstable();
    assert_eq!(order, (0..64).collect::<Vec<_>>());
    // The largest hot request is an 8-relation (64-variable) join order.
    let largest = set
        .iter()
        .map(|r| Problem::build(&r.workload).n_vars())
        .max();
    assert_eq!(largest, Some(64));
    // Cold models of mixed_tcp stay within the gate-model members' cap.
    for i in 0..16 {
        assert!(Problem::build(&gen::mixed_cold_request(7, i).workload).n_vars() <= 14);
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let (pct, value) = tail(&xs).expect("enough samples");
    assert_eq!((pct, value), (90.0, 90.0));
    assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);

    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((99.0, 990.0)));

    let xs: Vec<f64> = (1..=11).map(f64::from).collect();
    let (_, value) = tail(&xs).expect("eleven samples leave ten beyond the smallest");
    assert_eq!(value, 1.0);
    assert_eq!(tail(&xs[..10]), None);
}

fn index_request() -> Request {
    Request {
        workload: WorkloadSpec::IndexSelection {
            sizes: vec![40.0, 25.0, 30.0, 20.0],
            benefits: vec![90.0, 60.0, 45.0, 30.0],
            interactions: vec![(0, 1, 20.0)],
            budget: 70.0,
        },
        seed: 3,
        deadline_ms: None,
    }
}

/// A served reply to `request` as the client sees it on the wire.
fn served(request: &Request) -> Json {
    let mut service = Service::new(ServiceConfig::default());
    let reply = service.submit(request);
    assert!(matches!(reply, Reply::Done(_)));
    Json::parse(&reply_json(&reply).compact()).expect("valid wire JSON")
}

#[test]
fn checker_accepts_a_served_reply_and_its_cached_copy() {
    let request = index_request();
    let problem = Problem::build(&request.workload);
    let signature = problem.signature();
    let reply = served(&request);
    let mut checker = Checker::default();
    let checked = checker
        .check(&request, &problem, signature, &reply)
        .expect("a served reply passes");
    assert!(!checked.cached);

    let mut hit = reply.clone();
    hit.set("cached", Json::Bool(true));
    assert!(checker.check(&request, &problem, signature, &hit).is_ok());
    hit.set("solver", Json::Str("someone-else".into()));
    assert!(checker.check(&request, &problem, signature, &hit).is_err());
}

#[test]
fn checker_rejects_a_flipped_objective_bit() {
    let request = index_request();
    let problem = Problem::build(&request.workload);
    let mut reply = served(&request);
    let objective = reply.get("objective").and_then(Json::as_num).unwrap();
    reply.set(
        "objective",
        Json::Num(f64::from_bits(objective.to_bits() ^ 1)),
    );
    let err = Checker::default()
        .check(&request, &problem, problem.signature(), &reply)
        .unwrap_err();
    assert!(err.contains("objective"), "{err}");
}

#[test]
fn checker_rejects_an_infeasible_solution() {
    let request = index_request();
    let problem = Problem::build(&request.workload);
    // Every index at once overflows the 70-page budget.
    let mut reply = served(&request);
    reply.set("solution", Json::Arr(vec![Json::Bool(true); 4]));
    let err = Checker::default()
        .check(&request, &problem, problem.signature(), &reply)
        .unwrap_err();
    assert!(err.contains("infeasible"), "{err}");
}

#[test]
fn checker_rejects_a_wrong_signature() {
    let request = index_request();
    let problem = Problem::build(&request.workload);
    let reply = served(&request);
    let err = Checker::default()
        .check(&request, &problem, problem.signature() ^ 1, &reply)
        .unwrap_err();
    assert!(err.contains("signature"), "{err}");
}
