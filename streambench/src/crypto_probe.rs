//! Host speed of the record cipher on 16 KiB TLS records.
//!
//! Before timing anything the probe checks the cipher: a sealed record
//! must open back to its plaintext, a tampered one must not, and
//! `RecordCipher::seal_record` must agree with `AesGcm128::seal_in_place`
//! under the nonce derived from the stream offset.

use dcn_crypto::{derive_nonce, AesGcm128, RecordCipher, RECORD_PAYLOAD_MAX};
use std::hint::black_box;
use std::time::Instant;

/// Records per timed batch (1 MiB).
const BATCH_RECORDS: usize = 64;
/// Timed batches per direction; the median batch is reported.
const BATCHES: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct CryptoRates {
    pub seal_ns_per_byte: f64,
    pub open_ns_per_byte: f64,
}

fn session(seed: u64) -> ([u8; 16], u32, Vec<u8>) {
    let mut key = [0u8; 16];
    dcn_simcore::prf_bytes(seed, 0x6B65_7931, &mut key);
    let mut data = vec![0u8; RECORD_PAYLOAD_MAX * BATCH_RECORDS];
    dcn_simcore::prf_bytes(seed, 0x6461_7461, &mut data);
    (key, seed as u32 ^ 0x5A17, data)
}

/// Check the cipher's round trip and its agreement with raw AES-GCM.
///
/// # Errors
/// Describes the first record that failed.
pub fn check(seed: u64) -> Result<(), String> {
    let (key, salt, data) = session(seed);
    let rc = RecordCipher::new(&key, salt);
    let gcm = AesGcm128::new(&key);
    for (i, len) in [
        (0u64, RECORD_PAYLOAD_MAX),
        (5, RECORD_PAYLOAD_MAX),
        (9, 1000),
    ] {
        let off = i * RECORD_PAYLOAD_MAX as u64;
        let plain = &data[..len];
        let mut sealed = plain.to_vec();
        let tag = rc.seal_record(off, &mut sealed);
        let mut raw = plain.to_vec();
        let raw_tag = gcm.seal_in_place(&derive_nonce(salt, off), &off.to_be_bytes(), &mut raw);
        if sealed != raw || tag != raw_tag {
            return Err(format!(
                "record {i}: seal_record disagrees with seal_in_place"
            ));
        }
        if sealed == plain {
            return Err(format!("record {i}: seal_record left the plaintext"));
        }
        let mut opened = sealed.clone();
        if !rc.open_record(off, &mut opened, &tag) || opened != plain {
            return Err(format!("record {i}: open(seal(x)) != x"));
        }
        let mut tampered = sealed;
        tampered[len / 2] ^= 1;
        if rc.open_record(off, &mut tampered, &tag) {
            return Err(format!("record {i}: a tampered record opened"));
        }
    }
    Ok(())
}

/// Time `seal_record` and `open_record`, after `check` passed.
///
/// # Errors
/// The check's error, or a tag failure while timing.
pub fn measure(seed: u64) -> Result<CryptoRates, String> {
    check(seed)?;
    let (key, salt, data) = session(seed);
    let rc = RecordCipher::new(&key, salt);
    let bytes = data.len() as f64;
    let mut buf = data;
    let mut tags = Vec::with_capacity(BATCH_RECORDS);
    let mut seal = Vec::with_capacity(BATCHES);
    let mut open = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        tags.clear();
        let t = Instant::now();
        for (i, rec) in buf.chunks_mut(RECORD_PAYLOAD_MAX).enumerate() {
            tags.push(rc.seal_record(black_box((i * RECORD_PAYLOAD_MAX) as u64), rec));
        }
        seal.push(t.elapsed().as_nanos() as f64 / bytes);
        let t = Instant::now();
        for (i, rec) in buf.chunks_mut(RECORD_PAYLOAD_MAX).enumerate() {
            if !rc.open_record(black_box((i * RECORD_PAYLOAD_MAX) as u64), rec, &tags[i]) {
                return Err(format!("timed record {i} failed to open"));
            }
        }
        open.push(t.elapsed().as_nanos() as f64 / bytes);
        black_box(&buf);
    }
    Ok(CryptoRates {
        seal_ns_per_byte: crate::median(&mut seal),
        open_ns_per_byte: crate::median(&mut open),
    })
}
