//! Randomized invariant tests on cross-crate properties.
//!
//! Formerly proptest-based; now driven by deterministic [`SimRng`]
//! streams (the hermetic build has no proptest), with one forked
//! substream per case so failures reproduce exactly.

use std::collections::BTreeSet;
use std::time::Duration;

use autosec::crypto::{AesGcm, Cmac, HmacSha256, MerkleTree, Sha256};
use autosec::fleet::{FleetConfig, FleetEngine};
use autosec::ivn::can::{CanFrame, CanId, CanXlFrame, SDT_ETHERNET};
use autosec::secproto::canal::{CanalReceiver, CanalSender};
use autosec::secproto::cansec::{CansecRx, CansecTx};
use autosec::secproto::macsec::{MacsecFrame, MacsecMode, MacsecRx, MacsecTx};
use autosec::secproto::secoc::{SecOcAuthenticator, SecOcConfig, SecOcPdu};
use autosec::sim::SimRng;
use autosec::ssi::did::{Did, DidDocument};
use autosec_runner::{ArtifactStore, ExperimentRecord, ResumeState, RunManifest, Table};
use rand::{Rng, RngCore};

const CASES: u64 = 48;

fn bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn arr<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

/// Truncates `src` or flips one of its bits, chosen by `rng`.
fn truncate_or_flip(rng: &mut SimRng, src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    if rng.gen_bool(0.5) {
        out.truncate(rng.gen_range(0usize..src.len()));
    } else {
        let bit = rng.gen_range(0usize..src.len() * 8);
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// CANAL segmentation/reassembly is the identity for any SDU.
#[test]
fn canal_round_trips_any_sdu() {
    let root = SimRng::seed(0xCA_7A1);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let sdu = {
            let len = rng.gen_range(1usize..3000);
            bytes(&mut rng, len)
        };
        let mtu = rng.gen_range(16usize..512);
        let mut tx = CanalSender::new(0x40, 1, mtu);
        let mut rx = CanalReceiver::new();
        let mut out = None;
        for f in tx.segment(&sdu) {
            out = rx.push(&f).expect("lossless in-order stream");
        }
        assert_eq!(out.expect("final fragment closes the SDU"), sdu);
    }
}

/// AES-GCM round-trips any payload/AAD pair, and a single bit flip
/// anywhere in the sealed output breaks authentication.
#[test]
fn gcm_round_trip_and_bitflip() {
    let root = SimRng::seed(0x6C_0001);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let key: [u8; 16] = arr(&mut rng);
        let nonce: [u8; 12] = arr(&mut rng);
        let aad = {
            let len = rng.gen_range(0usize..64);
            bytes(&mut rng, len)
        };
        let pt = {
            let len = rng.gen_range(0usize..256);
            bytes(&mut rng, len)
        };
        let aead = AesGcm::new(&key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        assert_eq!(aead.open(&nonce, &aad, &sealed).expect("authentic"), pt);

        let mut bad = sealed.clone();
        let idx = rng.gen_range(0usize..bad.len());
        bad[idx] ^= 1 << rng.gen_range(0u8..8);
        assert!(aead.open(&nonce, &aad, &bad).is_err());
    }
}

/// MACsec protect/verify round-trips in both modes.
#[test]
fn macsec_round_trip() {
    let root = SimRng::seed(0x3A_C5EC);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let sak: [u8; 16] = arr(&mut rng);
        let sci = rng.next_u64();
        let payload = {
            let len = rng.gen_range(0usize..512);
            bytes(&mut rng, len)
        };
        let mode = if rng.chance(0.5) {
            MacsecMode::AuthenticatedEncryption
        } else {
            MacsecMode::IntegrityOnly
        };
        let mut tx = MacsecTx::new(sak, sci, mode);
        let mut rx = MacsecRx::new(sak, sci);
        let frame = tx.protect(&payload).expect("fresh pn");
        assert_eq!(rx.verify(&frame).expect("authentic"), payload);
    }
}

/// SECOC freshness resynchronization tolerates any loss pattern up to
/// the wraparound window.
#[test]
fn secoc_survives_bounded_loss() {
    let root = SimRng::seed(0x5EC0C);
    for case in 0..16 {
        let mut rng = root.fork_idx(case);
        let cfg = SecOcConfig::default();
        let mut tx = SecOcAuthenticator::new_sender(cfg, [7u8; 16], 1);
        let mut rx = SecOcAuthenticator::new_receiver(cfg, [7u8; 16], 1);
        for _ in 0..rng.gen_range(1usize..40) {
            // Drop up to 99 PDUs (bounded << 256 so resync always works).
            let loss = rng.gen_range(0usize..100);
            for _ in 0..loss {
                let _ = tx.protect(b"lost").expect("fresh counter");
            }
            let pdu = tx.protect(b"delivered").expect("fresh counter");
            assert!(rx.verify(&pdu).is_ok());
        }
    }
}

/// Merkle proofs verify for every leaf of any tree, and fail for any
/// other leaf value.
#[test]
fn merkle_membership() {
    let root = SimRng::seed(0x3E_4C1E);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let n_leaves = rng.gen_range(1usize..64);
        let leaves: Vec<Vec<u8>> = (0..n_leaves)
            .map(|_| {
                let len = rng.gen_range(0usize..32);
                bytes(&mut rng, len)
            })
            .collect();
        let refs: Vec<&[u8]> = leaves.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_leaves(&refs);
        let i = rng.gen_range(0usize..leaves.len());
        let proof = tree.prove(i).expect("in range");
        assert!(proof.verify(&tree.root(), &leaves[i]));
        assert!(!proof.verify(&tree.root(), b"\xffdefinitely-not-a-leaf\xff"));
    }
}

/// Classic CAN frame wire length stays within the theoretical bounds:
/// unstuffed minimum and worst-case stuffing maximum.
#[test]
fn can_frame_length_bounds() {
    let root = SimRng::seed(0xCAF0);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let id = rng.gen_range(0u16..0x800);
        let data = {
            let len = rng.gen_range(0usize..9);
            bytes(&mut rng, len)
        };
        let frame =
            CanFrame::new(CanId::standard(id).expect("11-bit id"), &data).expect("payload <= 8");
        let n = data.len();
        let unstuffed = 47 + 8 * n;
        // Worst case adds one stuff bit per 4 bits of the stuffable
        // region (34 + 8n bits).
        let max = unstuffed + (34 + 8 * n - 1) / 4;
        let bits = frame.wire_bits();
        assert!(bits >= unstuffed, "{bits} < {unstuffed}");
        assert!(bits <= max, "{bits} > {max}");
    }
}

/// HMAC and CMAC: tags are deterministic and key-separated.
#[test]
fn mac_determinism_and_key_separation() {
    let root = SimRng::seed(0x3AC);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let k1: [u8; 16] = arr(&mut rng);
        let mut k2: [u8; 16] = arr(&mut rng);
        if k1 == k2 {
            k2[0] ^= 1;
        }
        let msg = {
            let len = rng.gen_range(0usize..128);
            bytes(&mut rng, len)
        };
        assert_eq!(HmacSha256::mac(&k1, &msg), HmacSha256::mac(&k1, &msg));
        assert_ne!(HmacSha256::mac(&k1, &msg), HmacSha256::mac(&k2, &msg));
        let c1 = Cmac::new(&k1);
        let c2 = Cmac::new(&k2);
        assert_eq!(c1.mac(&msg), c1.mac(&msg));
        assert_ne!(c1.mac(&msg), c2.mac(&msg));
    }
}

/// SHA-256 streaming equals one-shot for any split.
#[test]
fn sha256_streaming_any_split() {
    let root = SimRng::seed(0x5A_256);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let data = {
            let len = rng.gen_range(0usize..512);
            bytes(&mut rng, len)
        };
        let s = rng.gen_range(0usize..data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..s]);
        h.update(&data[s..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

/// The vendored JSON parser, which reads manifests and worker handoffs
/// back from disk, returns `Ok` or `Err` — never panics or overflows
/// the stack — on truncations and single-bit flips of real documents.
#[test]
fn json_parser_survives_truncation_and_bitflips() {
    let fleet = FleetEngine::new(FleetConfig {
        vehicles: 200,
        ticks: 10,
        calibration_trials: 2,
        ..FleetConfig::default()
    })
    .run()
    .canonical_json()
    .to_string();
    let doc = DidDocument {
        id: Did::from_public_key(&[7u8; 32]),
        name: "brake-ecu \"zone 2\" – Bremssteuergerät".into(),
        public_key: [7u8; 32],
        version: 3,
        service: Some("revocations".into()),
    }
    .to_json()
    .to_string();
    let sources = [fleet.as_bytes(), doc.as_bytes()];
    for src in sources {
        let text = std::str::from_utf8(src).expect("rendered JSON is UTF-8");
        assert!(serde_json::from_str(text).is_ok());
    }
    let root = SimRng::seed(0x750_F022);
    let mut parsed = 0;
    for case in 0..2_000u64 {
        let mut rng = root.fork_idx(case);
        let input = truncate_or_flip(&mut rng, sources[(case % 2) as usize]);
        // `from_str` takes `&str`; a flip that breaks UTF-8 never
        // reaches the parser.
        if let Ok(text) = std::str::from_utf8(&input) {
            let _ = serde_json::from_str(text);
            parsed += 1;
        }
    }
    assert!(parsed > 1_500, "only {parsed} of 2000 cases were UTF-8");
}

/// `ResumeState` reads a manifest back from disk for `--resume`. A
/// truncated or bit-flipped manifest must never panic the loader, and
/// no state loaded from it may reuse more than the original run's `ok`
/// artifacts — the only ones on disk.
#[test]
fn resume_state_survives_mutated_manifests() {
    let dir = std::env::temp_dir().join("autosec-properties-resume-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::create(&dir).expect("create dir");
    let ok = |slug: &str, id: &str| {
        let mut table = Table::new(id, "demo", &["a"]);
        table.push_row(vec!["1".into()]);
        ExperimentRecord::ok(slug, id, Duration::from_millis(3), table)
    };
    let manifest = RunManifest {
        seed: 42,
        jobs: 2,
        trials_scale: 0.5,
        filter: Some("E1,tag:phy".into()),
        records: vec![
            ok("e1-depth", "E1"),
            ExperimentRecord::failed("e2-lrp", "E2", Duration::ZERO, "boom".into()),
            ok("e3-tech", "E3"),
            ExperimentRecord::timed_out(
                "e4-slow",
                "E4",
                Duration::from_secs(2),
                Duration::from_secs(1),
            ),
        ],
    };
    let path = store.write_run(&manifest).expect("write");
    let original = ResumeState::load(&dir).expect("the real manifest loads");
    let ok_slugs: BTreeSet<String> = ["e1-depth", "e3-tech"].map(String::from).into();
    assert!(original.compatible_with(42, 0.5, &["tag:phy", "E1"]));
    assert_eq!(original.reusable(&dir), ok_slugs);
    assert_eq!(original.failed, ["e2-lrp", "e4-slow"]);

    let src = std::fs::read(&path).expect("read manifest");
    let mutated = dir.join("mutated.json");
    let root = SimRng::seed(0x2E_5E3E);
    let mut loaded = 0;
    for case in 0..2_000u64 {
        let mut rng = root.fork_idx(case);
        std::fs::write(&mutated, truncate_or_flip(&mut rng, &src)).expect("write");
        let Some(state) = ResumeState::load_manifest(&mutated) else {
            continue;
        };
        loaded += 1;
        if state.compatible_with(state.seed, state.trials_scale, &["E1", "tag:phy"]) {
            let reused = state.reusable(&dir);
            assert!(reused.is_subset(&ok_slugs), "case {case}: {reused:?}");
        }
    }
    assert!(loaded > 100, "only {loaded} of 2000 mutations loaded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The secure-transport receivers take frames off a bus an attacker
/// can write to. Random frames and bit-flipped genuine ones must get
/// `Ok` or `Err` from every decoder, never a panic.
#[test]
fn frame_decoders_survive_hostile_frames() {
    let key = [9u8; 16];
    let secoc_cfg = SecOcConfig::default();
    let mut macsec_tx = MacsecTx::new(key, 1, MacsecMode::AuthenticatedEncryption);
    let mut cansec_tx = CansecTx::new(key, 1, false);
    let mut secoc_tx = SecOcAuthenticator::new_sender(secoc_cfg, key, 0x100);
    let mut canal = CanalReceiver::new();
    let mut macsec = MacsecRx::new(key, 1).with_replay_window(8);
    let mut cansec = CansecRx::new(key, 1);
    let mut secoc = SecOcAuthenticator::new_receiver(secoc_cfg, key, 0x100);

    let root = SimRng::seed(0xF4_A3E5);
    for case in 0..2_000u64 {
        let mut rng = root.fork_idx(case);
        let genuine = rng.gen_bool(0.5);
        let payload = {
            let len = rng.gen_range(1usize..96);
            bytes(&mut rng, len)
        };

        // CANAL reassembly over random XL frames, or over a genuine
        // segmentation with one segment truncated or bit-flipped.
        let frames = if genuine {
            let mtu = rng.gen_range(16usize..64);
            let mut frames = CanalSender::new(0x40, 1, mtu).segment(&payload);
            let i = rng.gen_range(0..frames.len());
            let f = &frames[i];
            let data = truncate_or_flip(&mut rng, f.data());
            if !data.is_empty() {
                frames[i] = CanXlFrame::new(0x40, f.sdt(), f.vcid(), 0, &data).expect("valid");
            }
            frames
        } else {
            let sdt = if rng.gen_bool(0.9) {
                SDT_ETHERNET
            } else {
                rng.gen()
            };
            let frame = CanXlFrame::new(rng.gen_range(0..0x800), sdt, rng.gen(), 0, &payload);
            vec![frame.expect("valid")]
        };
        for f in &frames {
            let _ = canal.push(f);
        }

        // MACsec: a mutated genuine frame, or random SCI/PN/mode/data.
        let frame = if genuine {
            let mut f = macsec_tx.protect(&payload).expect("fresh pn");
            f.secure_data = truncate_or_flip(&mut rng, &f.secure_data);
            f
        } else {
            MacsecFrame {
                sci: if rng.gen_bool(0.9) { 1 } else { rng.next_u64() },
                pn: rng.next_u64() as u32,
                mode: if rng.gen_bool(0.5) {
                    MacsecMode::AuthenticatedEncryption
                } else {
                    MacsecMode::IntegrityOnly
                },
                secure_data: payload.clone(),
            }
        };
        let _ = macsec.verify(&frame);

        // CANsec: a mutated genuine frame, or a random XL payload.
        let data = if genuine {
            let f = cansec_tx.protect(0x40, 0, &payload).expect("fits XL");
            truncate_or_flip(&mut rng, f.data())
        } else {
            payload.clone()
        };
        if let Ok(frame) = CanXlFrame::new(0x40, 0x04, rng.gen(), 0, &data) {
            let _ = cansec.verify(&frame);
        }

        // SECOC: a mutated genuine PDU, or random fields — including
        // freshness values at both ends of the u64 range.
        let pdu = if genuine {
            let mut pdu = secoc_tx.protect(&payload).expect("fresh counter");
            pdu.truncated_mac = truncate_or_flip(&mut rng, &pdu.truncated_mac);
            pdu
        } else {
            let edge = rng.gen_range(0u64..512);
            SecOcPdu {
                data_id: if rng.gen_bool(0.9) {
                    0x100
                } else {
                    rng.next_u64() as u16
                },
                truncated_freshness: match rng.gen_range(0..3) {
                    0 => edge,
                    1 => u64::MAX - edge,
                    _ => rng.next_u64(),
                },
                truncated_mac: {
                    let len = rng.gen_range(0usize..6);
                    bytes(&mut rng, len)
                },
                payload,
            }
        };
        let _ = secoc.verify(&pdu);
    }
}
