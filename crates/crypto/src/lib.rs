//! # bft-crypto
//!
//! The cryptographic substrate for the BFT protocol suite (dimension **E3**
//! of the paper's design space: *authentication*).
//!
//! BFT protocols authenticate messages with one of three mechanisms, each
//! implemented here:
//!
//! * **MACs / authenticators** — an [`hmac`] (HMAC-SHA-256) per receiver.
//!   Cheap, but repudiable: a receiver cannot prove to a third party who
//!   authored a message, which is why MAC-based PBFT needs the extra
//!   `view-change-ack` round (design choice 11).
//! * **Digital signatures** — [`sign::Signer`]. Non-repudiable: any replica
//!   can verify any signature, so a signed message can be forwarded as
//!   evidence.
//! * **Threshold signatures** — [`threshold`]. A quorum's worth of signature
//!   *shares* combines into a single constant-size certificate, the
//!   ingredient that makes linear-communication protocols (SBFT, HotStuff —
//!   design choice 1) possible.
//!
//! ## The simulation substitution (documented in DESIGN.md)
//!
//! The workspace runs protocols inside a deterministic single-process
//! simulator, so real public-key cryptography would add nothing but CPU
//! time: the "adversary" is our own fault-injection code, which simply does
//! not get other replicas' secret keys. Signatures are therefore implemented
//! as HMAC tags under a per-signer secret, with verification going through a
//! public [`sign::KeyStore`] registry — this preserves exactly the properties
//! protocols rely on (unforgeability without the secret, non-repudiation via
//! the registry, distinctness of signers) while staying fast and
//! deterministic. The *relative cost* of MACs vs. signatures vs. threshold
//! combination — the quantity the paper's E3 dimension reasons about — is
//! modeled explicitly by [`cost::CryptoCostModel`] and charged to virtual
//! time by the simulator.
//!
//! SHA-256 and HMAC-SHA-256 are nevertheless real, from-scratch,
//! test-vector-verified implementations: state digests and request digests
//! must behave like proper cryptographic hashes for checkpoint comparison
//! and duplicate detection to be meaningful.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod hash;
pub mod hmac;
pub mod sign;
pub mod threshold;

pub use cost::{CostTable, CryptoCostModel, CryptoOp};
pub use hash::{sha256, Hasher};
pub use hmac::{hmac_sha256, Mac, MacKey};
pub use sign::{KeyStore, SecretKey, Signature, Signer};
pub use threshold::{ThresholdScheme, ThresholdSig, ThresholdSigner};

use bft_types::Digest;

/// Hash any `serde`-serializable value into a [`Digest`].
///
/// Used to derive request digests, batch digests, and message digests. The
/// value is serialized with a stable, compact, deterministic encoding and
/// hashed with SHA-256.
pub fn digest_of<T: serde::Serialize>(value: &T) -> Digest {
    let bytes = stable_bytes(value);
    Digest(sha256(&bytes))
}

/// Deterministic byte encoding for hashing. We avoid pulling in a binary
/// serde format by writing a tiny self-describing encoder: field order is
/// struct order, which serde guarantees stable for a fixed type.
pub fn stable_bytes<T: serde::Serialize>(value: &T) -> Vec<u8> {
    let mut enc = enc::ByteEncoder::default();
    value
        .serialize(&mut enc)
        .expect("stable encoding cannot fail");
    enc.out
}

mod enc {
    //! Minimal deterministic serde serializer producing length-prefixed
    //! bytes. Every value is tagged so that adjacent fields cannot alias.

    use serde::ser::{self, Serialize};

    #[derive(Default)]
    pub struct ByteEncoder {
        pub out: Vec<u8>,
    }

    #[derive(Debug)]
    pub struct NoErr;

    impl std::fmt::Display for NoErr {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("stable encoder error")
        }
    }
    impl std::error::Error for NoErr {}
    impl ser::Error for NoErr {
        fn custom<T: std::fmt::Display>(_msg: T) -> Self {
            NoErr
        }
    }

    type R = Result<(), NoErr>;

    impl ByteEncoder {
        fn tag(&mut self, t: u8) {
            self.out.push(t);
        }
        fn raw_u64(&mut self, v: u64) {
            self.out.extend_from_slice(&v.to_le_bytes());
        }
    }

    impl ser::Serializer for &mut ByteEncoder {
        type Ok = ();
        type Error = NoErr;
        type SerializeSeq = Self;
        type SerializeTuple = Self;
        type SerializeTupleStruct = Self;
        type SerializeTupleVariant = Self;
        type SerializeMap = Self;
        type SerializeStruct = Self;
        type SerializeStructVariant = Self;

        fn serialize_bool(self, v: bool) -> R {
            self.tag(1);
            self.out.push(v as u8);
            Ok(())
        }
        fn serialize_i8(self, v: i8) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i16(self, v: i16) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i32(self, v: i32) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i64(self, v: i64) -> R {
            self.tag(2);
            self.raw_u64(v as u64);
            Ok(())
        }
        fn serialize_u8(self, v: u8) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_u16(self, v: u16) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_u32(self, v: u32) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_u64(self, v: u64) -> R {
            self.tag(3);
            self.raw_u64(v);
            Ok(())
        }
        fn serialize_f32(self, v: f32) -> R {
            self.serialize_f64(v as f64)
        }
        fn serialize_f64(self, v: f64) -> R {
            self.tag(4);
            self.raw_u64(v.to_bits());
            Ok(())
        }
        fn serialize_char(self, v: char) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_str(self, v: &str) -> R {
            self.serialize_bytes(v.as_bytes())
        }
        fn serialize_bytes(self, v: &[u8]) -> R {
            self.tag(5);
            self.raw_u64(v.len() as u64);
            self.out.extend_from_slice(v);
            Ok(())
        }
        fn serialize_none(self) -> R {
            self.tag(6);
            Ok(())
        }
        fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> R {
            self.tag(7);
            value.serialize(self)
        }
        fn serialize_unit(self) -> R {
            self.tag(8);
            Ok(())
        }
        fn serialize_unit_struct(self, _name: &'static str) -> R {
            self.serialize_unit()
        }
        fn serialize_unit_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
        ) -> R {
            self.tag(9);
            self.raw_u64(variant_index as u64);
            Ok(())
        }
        fn serialize_newtype_struct<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            value: &T,
        ) -> R {
            value.serialize(self)
        }
        fn serialize_newtype_variant<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            value: &T,
        ) -> R {
            self.tag(10);
            self.raw_u64(variant_index as u64);
            value.serialize(self)
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<Self, NoErr> {
            self.tag(11);
            self.raw_u64(len.unwrap_or(0) as u64);
            Ok(self)
        }
        fn serialize_tuple(self, _len: usize) -> Result<Self, NoErr> {
            self.tag(12);
            Ok(self)
        }
        fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, NoErr> {
            self.tag(12);
            Ok(self)
        }
        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, NoErr> {
            self.tag(13);
            self.raw_u64(variant_index as u64);
            Ok(self)
        }
        fn serialize_map(self, len: Option<usize>) -> Result<Self, NoErr> {
            self.tag(14);
            self.raw_u64(len.unwrap_or(0) as u64);
            Ok(self)
        }
        fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, NoErr> {
            self.tag(15);
            Ok(self)
        }
        fn serialize_struct_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, NoErr> {
            self.tag(16);
            self.raw_u64(variant_index as u64);
            Ok(self)
        }
    }

    macro_rules! impl_compound {
        ($trait:ident, $method:ident) => {
            impl<'a> ser::$trait for &'a mut ByteEncoder {
                type Ok = ();
                type Error = NoErr;
                fn $method<T: ?Sized + Serialize>(&mut self, value: &T) -> R {
                    value.serialize(&mut **self)
                }
                fn end(self) -> R {
                    Ok(())
                }
            }
        };
    }
    impl_compound!(SerializeSeq, serialize_element);
    impl_compound!(SerializeTuple, serialize_element);
    impl_compound!(SerializeTupleStruct, serialize_field);
    impl_compound!(SerializeTupleVariant, serialize_field);

    impl ser::SerializeMap for &mut ByteEncoder {
        type Ok = ();
        type Error = NoErr;
        fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> R {
            key.serialize(&mut **self)
        }
        fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }

    impl ser::SerializeStruct for &mut ByteEncoder {
        type Ok = ();
        type Error = NoErr;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, _key: &'static str, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }

    impl ser::SerializeStructVariant for &mut ByteEncoder {
        type Ok = ();
        type Error = NoErr;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, _key: &'static str, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Demo {
        a: u64,
        b: Vec<u8>,
        c: Option<bool>,
    }

    #[test]
    fn digest_is_deterministic() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        assert_eq!(d1, d2);
    }

    #[test]
    fn digest_distinguishes_values() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(false),
        });
        let d3 = digest_of(&Demo {
            a: 2,
            b: vec![1, 2],
            c: Some(true),
        });
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn digest_distinguishes_none_from_some() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![],
            c: None,
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![],
            c: Some(false),
        });
        assert_ne!(d1, d2);
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        #[derive(Serialize)]
        struct P(Vec<u8>, Vec<u8>);
        let d1 = digest_of(&P(vec![1, 2], vec![3]));
        let d2 = digest_of(&P(vec![1], vec![2, 3]));
        assert_ne!(d1, d2);
    }
}
