//! The peer-to-peer architecture of Figure 1: DGD without a trusted server.
//!
//! Every agent EIG-broadcasts its gradient (`f < n/3` required), so honest
//! agents agree on the full gradient multiset and run the gradient filter
//! locally, staying in lockstep — even when the Byzantine agent equivocates,
//! sending different values to different peers.
//!
//! The same `Scenario` value runs on the in-process backend (the reference)
//! and on both peer-to-peer modes — the whole point of the scenario API.
//!
//! Run with: `cargo run --release --example peer_to_peer`

use approx_bft::dgd::RunOptions;
use approx_bft::problems::RegressionProblem;
use approx_bft::scenario::{Backend, InProcess, PeerToPeer, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = RegressionProblem::paper_instance(); // n = 6, f = 1: 3f < n holds
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;

    // One spec for all three executions.
    let scenario = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack(0, "gradient-reverse")
        .filter("cge")
        .options(RunOptions::paper_defaults_with_iterations(x_h.clone(), 200))
        .build()?;

    // Server-based reference run (in-process driver).
    let server = InProcess.run(&scenario)?;

    // Peer-to-peer run with a consistently lying Byzantine agent.
    let consistent = PeerToPeer { equivocate: false }.run(&scenario)?;

    // Peer-to-peer run with an *equivocating* Byzantine agent: it sends v to
    // half the network and −v to the other half. EIG agreement still forces
    // a consistent view.
    let equivocating = PeerToPeer { equivocate: true }.run(&scenario)?;

    println!(
        "server-based        : dist = {:.5}",
        server.final_distance()
    );
    println!(
        "p2p (consistent lie): dist = {:.5}  broadcasts = {}  messages = {}",
        consistent.final_distance(),
        consistent.metrics.eig_broadcasts,
        consistent.metrics.eig_messages
    );
    println!(
        "p2p (equivocating)  : dist = {:.5}  broadcasts = {}  messages = {}",
        equivocating.final_distance(),
        equivocating.metrics.eig_broadcasts,
        equivocating.metrics.eig_messages
    );
    let matches = consistent
        .final_estimate
        .approx_eq(&server.final_estimate, 0.0);
    println!("\nconsistent-lie p2p matches the server run exactly: {matches}");
    if !matches {
        return Err("a consistently lying agent must leave p2p bit-identical to the server".into());
    }
    Ok(())
}
