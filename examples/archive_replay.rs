//! The longitudinal archive, live: monthly world revisions replayed
//! into an epoch-indexed time-travel service.
//!
//! A `PeeringService` starts from the measurement-free epoch-0 base
//! with a `SnapshotArchive` attached; each observation month of the
//! evolving world (`monthly_deltas`) is applied as one epoch, and
//! every epoch stays queryable forever. The example then time-travels:
//! point verdicts as of past epochs, a per-IXP remote-share trend
//! line, per-ASN verdict churn, and the dirty-shard log of what each
//! month actually cost.
//!
//! ```text
//! cargo run --release --example archive_replay [seed] [months]
//! ```
//!
//! Exits non-zero if any invariant fails — CI's determinism matrix runs
//! this example at several `OPEER_THREADS` values. The invariants:
//! every archived epoch is still byte-addressable after the replay, the
//! epoch sequence is strictly monotonic, and the final archived state
//! is byte-identical to a one-shot pipeline over the accumulated input.

use opeer::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let months: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(4);

    let world = WorldConfig::small(seed).generate();
    let par = ParallelConfig::from_env();
    let cfg = PipelineConfig::default();

    // Epoch 0: registry + VPs + prefix2as, no measurements yet.
    let service = PeeringService::build(InferenceInput::assemble_base(&world, seed), &cfg, &par);
    let archive = SnapshotArchive::attach(&service);
    println!(
        "epoch 0 archived: {} IXPs observed (measurement-free base)",
        archive.latest().ixp_count()
    );

    // One epoch per observation month of the evolving world.
    for delta in monthly_deltas(&world, seed, 0..=months - 1) {
        let revised = delta.registry.is_some();
        let epoch = archive.apply(delta);
        let snap = archive.at(epoch).expect("just archived");
        println!(
            "epoch {epoch} archived: {} inferences, remote share {:>5.1}%, registry revision: {revised}",
            snap.result().inferences.len(),
            snap.remote_share() * 100.0
        );
    }
    assert_eq!(
        archive.len(),
        months as usize + 1,
        "one epoch per month + base"
    );

    // Time travel: the same interface, asked at every archived epoch.
    let latest = archive.latest();
    let probe = latest.result().inferences[0].clone();
    println!(
        "\ninterface {} @ IXP {} through time:",
        probe.addr, probe.ixp
    );
    for epoch in
        archive.first_epoch().expect("non-empty")..=archive.latest_epoch().expect("non-empty")
    {
        let answer = archive
            .at(epoch)
            .and_then(|snapshot| Ok(snapshot.verdict(probe.ixp, probe.addr)?));
        match answer {
            Ok(answer) => println!("  epoch {epoch}: {:?}", answer.verdict),
            Err(err) => println!("  epoch {epoch}: {err}"),
        }
    }

    // Longitudinal aggregations over the whole history.
    let trend = archive.trend(probe.ixp).expect("IXP observed");
    println!("\nremote-share trend for {}:", trend.name);
    for p in &trend.points {
        let bar = "#".repeat((p.remote_share * 40.0) as usize);
        println!(
            "  epoch {:<2} {:>4} ifaces  {:>5.1}% {bar}",
            p.epoch,
            p.interfaces,
            p.remote_share * 100.0
        );
    }

    let churn = archive.churn(probe.asn).expect("member known");
    println!(
        "\nASN {} churn across {} epoch transitions: {} verdict flips, {} appeared, {} disappeared",
        churn.asn.value(),
        churn.per_epoch.len(),
        churn.flips,
        churn.appeared,
        churn.disappeared
    );

    println!("\nwhat each month cost (dirty shard units):");
    let log = archive.dirty_log();
    for w in log.windows(2) {
        assert!(w[0].epoch < w[1].epoch, "epoch sequence must be monotonic");
    }
    for rec in &log {
        println!("  epoch {:<2} dirty={}", rec.epoch, rec.dirty.total());
    }
    println!(
        "~{} bytes retained across {} epochs (shared partitions counted once)",
        archive.retained_bytes(),
        archive.len()
    );

    // The invariant that makes time travel trustworthy: the newest
    // archived state equals a one-shot pipeline over everything applied.
    let one_shot = {
        let input = service.input();
        run_pipeline(&input, &cfg)
    };
    assert_eq!(
        *archive.latest().result(),
        one_shot,
        "final archived snapshot diverged from the one-shot pipeline"
    );
    println!(
        "\nfinal epoch {} byte-identical to one-shot ({} inferences)",
        archive.latest().epoch(),
        one_shot.inferences.len()
    );
}
