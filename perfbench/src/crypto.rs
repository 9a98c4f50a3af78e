//! Timed calls to the crypto crate's public functions (traced run
//! only): the primitives the handshake and record paths are built
//! from, each checked for a correct result.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mbtls_crypto::ed25519::{verify_batch, BatchItem, SigningKey};
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::kdf::tls12_prf;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::sha2::Sha384;
use mbtls_crypto::x25519::SecretKey;

use crate::stats::median;

/// The record size the AEAD rates are measured at (a full TLS
/// record).
pub const RECORD_LEN: usize = 16 * 1024;

/// Median seconds per call of `op`, timed in batches of `batch`
/// calls until `budget` is spent (at least three batches).
fn per_call(budget: Duration, batch: u32, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(batch));
    }
    median(&mut samples)
}

/// One crypto metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Time every primitive, spending about `budget` in total. Errors
/// if any primitive returns a wrong result.
pub fn measure(seed: u64, budget: Duration) -> Result<Vec<Metric>, String> {
    let slice = budget / 8;
    let mut rng = CryptoRng::from_seed(seed);
    let mut out = Vec::new();

    let a = SecretKey::generate(&mut rng);
    let b = SecretKey::generate(&mut rng);
    let (a_pub, b_pub) = (a.public_key(), b.public_key());
    let shared = a
        .diffie_hellman(&b_pub)
        .map_err(|e| format!("x25519: {e:?}"))?;
    if b.diffie_hellman(&a_pub).ok() != Some(shared) {
        return Err("x25519: the two sides disagree".into());
    }
    let s = per_call(slice, 16, || {
        black_box(a.diffie_hellman(black_box(&b_pub)).ok());
    });
    out.push(("crypto.x25519_us", s * 1e6, "us"));

    let keys: Vec<SigningKey> = (0..16).map(|_| SigningKey::generate(&mut rng)).collect();
    let msgs: Vec<[u8; 64]> = (0..16u8).map(|i| [i; 64]).collect();
    let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
    let s = per_call(slice, 16, || {
        black_box(keys[0].sign(black_box(&msgs[0])));
    });
    out.push(("crypto.ed25519_sign_us", s * 1e6, "us"));

    let vk = keys[0].verifying_key();
    if vk.verify(&msgs[0], &sigs[0]).is_err() || vk.verify(&msgs[1], &sigs[0]).is_ok() {
        return Err("ed25519: single verify gave a wrong verdict".into());
    }
    let s = per_call(slice, 16, || {
        black_box(vk.verify(black_box(&msgs[0]), black_box(&sigs[0])).is_ok());
    });
    out.push(("crypto.ed25519_verify_us", s * 1e6, "us"));

    let items: Vec<BatchItem<'_>> = keys
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((k, m), sig)| BatchItem {
            pubkey: k.verifying_key(),
            msg: m,
            sig: *sig,
        })
        .collect();
    if !verify_batch(&items).all_valid() {
        return Err("ed25519: batch verify rejected valid signatures".into());
    }
    let s = per_call(slice, 2, || {
        black_box(verify_batch(black_box(&items)).all_valid());
    });
    out.push(("crypto.ed25519_batch16_us_per_sig", s * 1e6 / 16.0, "us"));

    let secret = [0x42u8; 48];
    let prf_seed = [0x17u8; 64];
    if tls12_prf::<Sha384>(&secret, b"master secret", &prf_seed, 48).len() != 48 {
        return Err("prf: wrong output length".into());
    }
    let s = per_call(slice, 64, || {
        black_box(tls12_prf::<Sha384>(
            &secret,
            b"master secret",
            black_box(&prf_seed),
            48,
        ));
    });
    out.push(("crypto.prf_us", s * 1e6, "us"));

    let key: [u8; 32] = rng.gen_array();
    let gcm = AesGcm::new(&key).map_err(|e| format!("aes-gcm: {e:?}"))?;
    let nonce = [7u8; 12];
    let aad = [0x17u8; 13];
    let plain: Vec<u8> = (0..RECORD_LEN).map(|i| i as u8).collect();
    let mut sealed = plain.clone();
    let tag = gcm
        .seal_in_place(&nonce, &aad, &mut sealed)
        .map_err(|e| format!("seal: {e:?}"))?;
    let mut opened = sealed.clone();
    gcm.open_in_place(&nonce, &aad, &mut opened, &tag)
        .map_err(|e| format!("open: {e:?}"))?;
    if opened != plain || gcm.verify_tag(&nonce, &aad, &sealed, &tag).is_err() {
        return Err("aes-gcm: round trip or tag check failed".into());
    }
    let mut buf = plain.clone();
    let s = per_call(slice, 4, || {
        black_box(gcm.seal_in_place(&nonce, &aad, black_box(&mut buf)).ok());
    });
    out.push((
        "crypto.aes_gcm_seal_mb_s",
        RECORD_LEN as f64 / s / 1e6,
        "MB/s",
    ));
    let s = per_call(slice, 4, || {
        buf.copy_from_slice(&sealed);
        black_box(
            gcm.open_in_place(&nonce, &aad, black_box(&mut buf), &tag)
                .ok(),
        );
    });
    out.push((
        "crypto.aes_gcm_open_mb_s",
        RECORD_LEN as f64 / s / 1e6,
        "MB/s",
    ));
    let s = per_call(slice, 4, || {
        black_box(
            gcm.verify_tag(&nonce, &aad, black_box(&sealed), &tag)
                .is_ok(),
        );
    });
    out.push((
        "crypto.gcm_verify_tag_mb_s",
        RECORD_LEN as f64 / s / 1e6,
        "MB/s",
    ));
    Ok(out)
}
