//! The key-value WAL record both KV engines log: one put or delete per
//! record, `tag ∥ klen ∥ key ∥ [vlen ∥ value]`. MiniRocks writes it to its
//! WAL and MiniRedis to its AOF.

use crate::DbError;

/// Encodes a put (`Some(value)`, tag 1) or a delete (`None`, tag 2).
pub(crate) fn encode_kv(key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + key.len() + value.map_or(0, <[u8]>::len));
    out.push(if value.is_some() { 1 } else { 2 });
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// Decodes one [`encode_kv`] record into `(key, Some(value) | None)`.
pub(crate) fn decode_kv(bytes: &[u8]) -> Result<(Vec<u8>, Option<Vec<u8>>), DbError> {
    let corrupt = |reason: &str| DbError::CorruptRecord {
        reason: reason.to_string(),
    };
    let tag = *bytes.first().ok_or_else(|| corrupt("empty"))?;
    let klen = u32::from_le_bytes(
        bytes
            .get(1..5)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| corrupt("short klen"))?,
    ) as usize;
    let key = bytes
        .get(5..5 + klen)
        .ok_or_else(|| corrupt("short key"))?
        .to_vec();
    match tag {
        1 => {
            let voff = 5 + klen;
            let vlen = u32::from_le_bytes(
                bytes
                    .get(voff..voff + 4)
                    .and_then(|s| s.try_into().ok())
                    .ok_or_else(|| corrupt("short vlen"))?,
            ) as usize;
            let value = bytes
                .get(voff + 4..voff + 4 + vlen)
                .ok_or_else(|| corrupt("short value"))?
                .to_vec();
            Ok((key, Some(value)))
        }
        2 => Ok((key, None)),
        other => Err(corrupt(&format!("unknown kv tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_encoding_round_trips() {
        for (k, v) in [
            (b"key".to_vec(), Some(vec![1u8; 100])),
            (b"tomb".to_vec(), None),
            (vec![], Some(vec![])),
        ] {
            let bytes = encode_kv(&k, v.as_deref());
            let (dk, dv) = decode_kv(&bytes).unwrap();
            assert_eq!(dk, k);
            assert_eq!(dv, v);
        }
    }
}
