//! AES-GCM test vectors (NIST SP 800-38D / Wycheproof-style cases)
//! run against EVERY `AesGcm` backend this CPU can run (hardware
//! AES-NI + PCLMULQDQ and bitsliced, each built explicitly) and the
//! reference oracle (`AesGcmRef`), plus seed-deterministic
//! differential tests across all of them: random lengths, an
//! exhaustive length sweep over the aggregation edges, and every
//! single-bit flip of ciphertext, AAD, tag and nonce. A dispatch test
//! pins `AesGcm::new` to the hardware backend wherever the CPU
//! reports the instructions, so on such a machine live traffic runs
//! the code these tests check.

use mbtls_crypto::gcm::{AesGcm, AesGcmRef, GcmBackend, TAG_LEN};
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::CryptoError;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// One known-answer vector: seal(key, nonce, aad, pt) = ct || tag.
struct Vector {
    name: &'static str,
    key: &'static str,
    nonce: &'static str,
    aad: &'static str,
    pt: &'static str,
    ct: &'static str,
    tag: &'static str,
}

/// NIST GCM spec vectors (Appendix B of the GCM submission, the same
/// cases SP 800-38D references) plus Wycheproof-style shapes: empty
/// everything, empty plaintext with AAD, AAD-only, long (>4 block)
/// AAD exercising the aggregated path, and partial final blocks.
const VECTORS: &[Vector] = &[
    Vector {
        name: "aes128/empty-pt/empty-aad",
        key: "00000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "",
        ct: "",
        tag: "58e2fccefa7e3061367f1d57a4e7455a",
    },
    Vector {
        name: "aes128/one-zero-block",
        key: "00000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "00000000000000000000000000000000",
        ct: "0388dace60b6a392f328c2b971b2fe78",
        tag: "ab6e47d42cec13bdf53a67b21257bddf",
    },
    Vector {
        name: "aes128/four-blocks",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
              1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
    },
    Vector {
        name: "aes128/aad-and-partial-block",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        tag: "5bc94fbc3221a5db94fae95ae7121a47",
    },
    // Wycheproof-style: empty plaintext but non-empty AAD (tag is
    // pure GHASH over AAD).
    Vector {
        name: "aes128/empty-pt/with-aad",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "",
        ct: "",
        tag: "346434fd51d5cd0c5887ec63e39b907a",
    },
    // Wycheproof-style: long AAD (76 bytes, 4 full blocks + partial)
    // so the aggregated 4-block absorb runs with an AAD remainder.
    Vector {
        name: "aes128/long-aad",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2feedfacedeadbeeffeedface\
              deadbeefabaddad2feedfacedeadbeeffeedfacedeadbeefabaddad2feedface\
              deadbeeffeedfacedeadbeef",
        pt: "d9313225f88406e5a55909c5aff5269a",
        ct: "42831ec2217774244b7221b784d0d49c",
        tag: "cab66ea31f022dfcdaca4252b19781d9",
    },
    Vector {
        name: "aes256/empty-pt/empty-aad",
        key: "0000000000000000000000000000000000000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "",
        ct: "",
        tag: "530f8afbc74536b9a963b4f1c4cb738b",
    },
    Vector {
        name: "aes256/aad-and-partial-block",
        key: "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        ct: "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        tag: "76fc6ece0f4e1768cddf8853bb2d551b",
    },
];

fn strip_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Every `AesGcm` backend this CPU can run, built for `key`.
fn backends(key: &[u8]) -> Vec<AesGcm> {
    let all: Vec<AesGcm> = GcmBackend::ALL
        .iter()
        .filter_map(|&b| AesGcm::with_backend(b, key).unwrap())
        .collect();
    assert!(
        all.iter().any(|g| g.backend() == GcmBackend::Bitsliced),
        "the bitsliced fallback runs everywhere"
    );
    all
}

/// Run one vector through a seal/open pair (shared between the
/// implementations via closures so none gets special-cased).
fn check_vector<S, O>(v: &Vector, label: &str, seal: S, open: O)
where
    S: Fn(&[u8; 12], &[u8], &[u8]) -> Vec<u8>,
    O: Fn(&[u8; 12], &[u8], &[u8]) -> Result<Vec<u8>, CryptoError>,
{
    let nonce: [u8; 12] = unhex(&strip_ws(v.nonce)).try_into().unwrap();
    let aad = unhex(&strip_ws(v.aad));
    let pt = unhex(&strip_ws(v.pt));
    let mut expected = unhex(&strip_ws(v.ct));
    expected.extend_from_slice(&unhex(&strip_ws(v.tag)));

    let sealed = seal(&nonce, &aad, &pt);
    assert_eq!(sealed, expected, "{} [{label}]: seal mismatch", v.name);
    assert_eq!(
        open(&nonce, &aad, &sealed).unwrap(),
        pt,
        "{} [{label}]: open mismatch",
        v.name
    );

    // Truncated-tag rejection: GCM implementations must not accept a
    // prefix of the tag (Wycheproof's tag-truncation class). Check
    // every truncation point, including an entirely missing tag.
    for cut in 1..=TAG_LEN {
        let truncated = &sealed[..sealed.len() - cut];
        assert_eq!(
            open(&nonce, &aad, truncated),
            Err(CryptoError::BadTag),
            "{} [{label}]: accepted tag truncated by {cut}",
            v.name
        );
    }
}

#[test]
fn nist_vectors_fast_path() {
    for v in VECTORS {
        let key = unhex(&strip_ws(v.key));
        for gcm in backends(&key) {
            check_vector(
                v,
                &format!("{:?}", gcm.backend()),
                |n, a, p| gcm.seal(n, a, p).unwrap(),
                |n, a, s| gcm.open(n, a, s),
            );
            // The tag-only check accepts exactly what open accepts.
            let nonce: [u8; 12] = unhex(&strip_ws(v.nonce)).try_into().unwrap();
            let aad = unhex(&strip_ws(v.aad));
            let ct = unhex(&strip_ws(v.ct));
            let tag = unhex(&strip_ws(v.tag));
            gcm.verify_tag(&nonce, &aad, &ct, &tag).unwrap();
        }
    }
}

#[test]
fn nist_vectors_reference_path() {
    for v in VECTORS {
        let key = unhex(&strip_ws(v.key));
        let gcm = AesGcmRef::new(&key).unwrap();
        check_vector(
            v,
            "reference",
            |n, a, p| gcm.seal(n, a, p).unwrap(),
            |n, a, s| gcm.open(n, a, s),
        );
    }
}

/// Differential hammer: random keys, nonces, AAD and plaintext
/// lengths under a fixed seed, every backend against the reference.
/// The reference shares no cipher or GHASH code with either backend,
/// so agreement here is strong evidence all of them are computing GCM
/// (and the run is bit-reproducible: any failure reports the
/// iteration for replay).
#[test]
fn differential_fast_vs_reference() {
    let mut rng = CryptoRng::from_seed(0x6CB1_D1FF);
    for iter in 0..200 {
        let key_len = if rng.gen_range(2) == 0 { 16 } else { 32 };
        let mut key = vec![0u8; key_len];
        rng.fill(&mut key);
        let slow = AesGcmRef::new(&key).unwrap();

        let nonce: [u8; 12] = {
            let mut n = [0u8; 12];
            rng.fill(&mut n);
            n
        };
        // Lengths biased toward block/aggregation boundaries.
        let pt_len = match rng.gen_range(4) {
            0 => rng.gen_range(8) as usize * 16 + 64, // around the 128-byte groups
            1 => rng.gen_range(17) as usize,          // sub-block
            _ => rng.gen_range(600) as usize,
        };
        let aad_len = rng.gen_range(300) as usize;
        let mut pt = vec![0u8; pt_len];
        let mut aad = vec![0u8; aad_len];
        rng.fill(&mut pt);
        rng.fill(&mut aad);
        let sealed_slow = slow.seal(&nonce, &aad, &pt).unwrap();
        // A random single-bit flip, rejected by everyone.
        let mut bad = sealed_slow.clone();
        let pos = rng.gen_range(bad.len() as u64) as usize;
        bad[pos] ^= 1 << rng.gen_range(8);
        assert_eq!(slow.open(&nonce, &aad, &bad), Err(CryptoError::BadTag));

        for fast in backends(&key) {
            let which = fast.backend();
            let sealed_fast = fast.seal(&nonce, &aad, &pt).unwrap();
            assert_eq!(
                sealed_fast, sealed_slow,
                "iter {iter} {which:?}: seal divergence (pt {pt_len}, aad {aad_len})"
            );
            // Cross-open: each implementation must accept the other's output.
            assert_eq!(fast.open(&nonce, &aad, &sealed_slow).unwrap(), pt);
            assert_eq!(slow.open(&nonce, &aad, &sealed_fast).unwrap(), pt);
            assert_eq!(
                fast.open(&nonce, &aad, &bad),
                Err(CryptoError::BadTag),
                "iter {iter} {which:?}: accepted a flipped bit"
            );
        }
    }
}

/// AAD lengths around the block and 8-block group edges.
const SWEEP_AAD_LENS: [usize; 10] = [0, 1, 13, 15, 16, 17, 127, 128, 129, 300];

/// Every plaintext length 0..=1040 (the 8-block loop runs 0..8 times,
/// followed by every tail length) against every AAD length above:
/// seal, open and `verify_tag` on each backend agree with the
/// reference, for both key sizes.
#[test]
fn length_sweep_every_backend_matches_reference() {
    let mut rng = CryptoRng::from_seed(0x5EE9_1040);
    let setups: Vec<(AesGcmRef, Vec<AesGcm>)> = [16usize, 32]
        .iter()
        .map(|&len| {
            let mut key = vec![0u8; len];
            rng.fill(&mut key);
            (AesGcmRef::new(&key).unwrap(), backends(&key))
        })
        .collect();
    let mut pt = vec![0u8; 1040];
    let mut aad = vec![0u8; 300];
    rng.fill(&mut pt);
    rng.fill(&mut aad);
    let mut nonce = [0u8; 12];
    rng.fill(&mut nonce);

    for pt_len in 0..=1040usize {
        let (oracle, gcms) = &setups[pt_len % 2];
        nonce[..4].copy_from_slice(&(pt_len as u32).to_be_bytes());
        for aad_len in SWEEP_AAD_LENS {
            let (pt, aad) = (&pt[..pt_len], &aad[..aad_len]);
            let expected = oracle.seal(&nonce, aad, pt).unwrap();
            let (ct, tag) = expected.split_at(pt_len);
            for gcm in gcms {
                let which = gcm.backend();
                assert_eq!(
                    gcm.seal(&nonce, aad, pt).unwrap(),
                    expected,
                    "{which:?}: seal, pt {pt_len} aad {aad_len}"
                );
                assert_eq!(
                    gcm.open(&nonce, aad, &expected).unwrap(),
                    pt,
                    "{which:?}: open, pt {pt_len} aad {aad_len}"
                );
                assert_eq!(
                    gcm.verify_tag(&nonce, aad, ct, tag),
                    Ok(()),
                    "{which:?}: verify_tag, pt {pt_len} aad {aad_len}"
                );
            }
        }
    }
}

/// Every single-bit flip of ciphertext, AAD, tag and nonce is
/// rejected by `open` and `verify_tag` on each backend and by the
/// reference's `open`, at shapes that hit empty inputs, partial
/// blocks, whole 8-block groups and group remainders.
#[test]
fn every_single_bit_flip_is_rejected() {
    let mut rng = CryptoRng::from_seed(0xF11_9B17);
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let oracle = AesGcmRef::new(&key).unwrap();
    let gcms = backends(&key);
    let shapes = [
        (0usize, 0usize),
        (0, 17),
        (1, 0),
        (15, 13),
        (17, 1),
        (128, 16),
        (145, 129),
    ];
    for (pt_len, aad_len) in shapes {
        let mut nonce = [0u8; 12];
        let mut pt = vec![0u8; pt_len];
        let mut aad = vec![0u8; aad_len];
        rng.fill(&mut nonce);
        rng.fill(&mut pt);
        rng.fill(&mut aad);
        let sealed = oracle.seal(&nonce, &aad, &pt).unwrap();
        let (ct, tag) = sealed.split_at(pt_len);

        let rejected_by_all = |nonce: &[u8; 12], aad: &[u8], ct: &[u8], tag: &[u8], what: &str| {
            let mut joined = ct.to_vec();
            joined.extend_from_slice(tag);
            assert_eq!(
                oracle.open(nonce, aad, &joined),
                Err(CryptoError::BadTag),
                "reference accepted {what} (pt {pt_len}, aad {aad_len})"
            );
            for gcm in &gcms {
                let which = gcm.backend();
                assert_eq!(
                    gcm.open(nonce, aad, &joined),
                    Err(CryptoError::BadTag),
                    "{which:?}: open accepted {what} (pt {pt_len}, aad {aad_len})"
                );
                assert_eq!(
                    gcm.verify_tag(nonce, aad, ct, tag),
                    Err(CryptoError::BadTag),
                    "{which:?}: verify_tag accepted {what} (pt {pt_len}, aad {aad_len})"
                );
            }
        };

        for bit in 0..ct.len() * 8 {
            let mut bad = ct.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            rejected_by_all(&nonce, &aad, &bad, tag, &format!("ciphertext bit {bit}"));
        }
        for bit in 0..aad.len() * 8 {
            let mut bad = aad.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            rejected_by_all(&nonce, &bad, ct, tag, &format!("AAD bit {bit}"));
        }
        for bit in 0..TAG_LEN * 8 {
            let mut bad = tag.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            rejected_by_all(&nonce, &aad, ct, &bad, &format!("tag bit {bit}"));
        }
        for bit in 0..96 {
            let mut bad = nonce;
            bad[bit / 8] ^= 1 << (bit % 8);
            rejected_by_all(&bad, &aad, ct, tag, &format!("nonce bit {bit}"));
        }
    }
}

/// What the CPU reports, asked independently of the crate's own
/// detection.
fn cpu_has_gcm_instructions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `AesGcm::new` — the constructor the record layer, the middlebox
/// data plane, session tickets and SGX sealing all use — must pick
/// the hardware backend whenever the CPU reports the instructions.
/// Without this, the tests above could compare the bitsliced path
/// with itself and pass while the hardware code never ran.
#[test]
fn new_dispatches_to_hardware_when_cpu_supports_it() {
    let hw = cpu_has_gcm_instructions();
    let expected = if hw {
        GcmBackend::Hardware
    } else {
        GcmBackend::Bitsliced
    };
    for key_len in [16usize, 32] {
        let gcm = AesGcm::new(&vec![0x11u8; key_len]).unwrap();
        assert_eq!(gcm.backend(), expected, "AES-{}", key_len * 8);
    }
    assert_eq!(
        AesGcm::with_backend(GcmBackend::Hardware, &[0u8; 16])
            .unwrap()
            .is_some(),
        hw
    );
    assert_eq!(backends(&[0u8; 16]).len(), if hw { 2 } else { 1 });
}
