//! Thread-safety of the shared verifiable data registry: vehicle, cloud,
//! and charging-station actors hammer one registry concurrently.

use std::collections::HashSet;
use std::sync::Arc;

use autosec_sim::SimRng;
use autosec_ssi::prelude::*;

#[test]
fn concurrent_publish_resolve_and_verify() {
    let registry = Arc::new(Registry::new());
    let mut rng = SimRng::seed(777);
    let mut anchor = Wallet::create(&mut rng, "anchor", &registry);
    registry.add_trust_anchor(anchor.did().clone(), "root");

    // Pre-issue credentials for 4 holders.
    let mut holders: Vec<Wallet> = (0..4)
        .map(|i| Wallet::create(&mut rng, &format!("holder-{i}"), &registry))
        .collect();
    let creds: Vec<VerifiableCredential> = holders
        .iter()
        .map(|h| {
            anchor
                .issue(h.did().clone(), serde_json::json!({"n": h.name()}), None)
                .expect("issue")
        })
        .collect();

    let written: Vec<Did> = std::thread::scope(|scope| {
        // Writers: register new DIDs concurrently.
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let mut rng = SimRng::seed(1000 + t);
                    (0..3)
                        .map(|i| {
                            let name = format!("writer-{t}-{i}");
                            Wallet::create_with_height(&mut rng, &name, &registry, 2)
                                .did()
                                .clone()
                        })
                        .collect::<Vec<Did>>()
                })
            })
            .collect();
        // Readers: verify the pre-issued credentials concurrently.
        for cred in &creds {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                for _ in 0..50 {
                    cred.verify(&registry).expect("stays valid under writes");
                    assert!(registry.trust_path_ok(cred));
                }
            });
        }
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer"))
            .collect()
    });

    // No concurrent publication was lost: all 4*3 distinct writer DIDs
    // resolve.
    assert_eq!(written.iter().collect::<HashSet<_>>().len(), 12);
    for did in &written {
        registry.resolve(did).expect("writer DID published");
    }
    // Presentations still work after the storm.
    let vp = VerifiablePresentation::create(&mut holders[0], vec![creds[0].clone()], b"c")
        .expect("create");
    assert!(vp.verify(&registry, b"c", 0).is_ok());
}

#[test]
fn presentation_challenge_prevents_cross_verifier_replay() {
    // A presentation captured at verifier A cannot be replayed at
    // verifier B, who issues its own challenge.
    let registry = Registry::new();
    let mut rng = SimRng::seed(778);
    let mut anchor = Wallet::create(&mut rng, "anchor", &registry);
    registry.add_trust_anchor(anchor.did().clone(), "root");
    let mut holder = Wallet::create(&mut rng, "vehicle", &registry);
    let cred = anchor
        .issue(holder.did().clone(), serde_json::json!({}), None)
        .expect("issue");

    let vp_for_a =
        VerifiablePresentation::create(&mut holder, vec![cred], b"challenge-A").expect("create");
    assert!(vp_for_a.verify(&registry, b"challenge-A", 0).is_ok());
    // Verifier B's challenge differs: replay rejected.
    assert_eq!(
        vp_for_a.verify(&registry, b"challenge-B", 0).unwrap_err(),
        SsiError::ChallengeMismatch
    );
}
