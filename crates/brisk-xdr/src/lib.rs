//! # brisk-xdr — External Data Representation codec
//!
//! BRISK's transfer protocol is "based on XDR, which makes BRISK amenable to
//! a heterogeneous environment" (§3.1). The paper does not use XDR "in the
//! typical way, with rpcgen and static typing": each dynamically-typed
//! record travels with a *compressed* meta-information header instead.
//!
//! This crate implements, from scratch:
//!
//! * the XDR primitive encodings of RFC 1832 that BRISK needs —
//!   `int`, `unsigned int`, `hyper`, `unsigned hyper`, `float`, `double`,
//!   `bool`, fixed and variable-length `opaque`, and `string` — all
//!   big-endian and padded to 4-byte alignment ([`encode::XdrEncoder`],
//!   [`decode::XdrDecoder`]);
//! * the mapping from BRISK's dynamically-typed [`brisk_core::Value`]s onto
//!   those primitives ([`values`]);
//! * the EXS's one-pass transcoder from the native ring form of a record
//!   to its XDR body ([`transcode`]).
//!
//! Framing of whole messages (batches, clock-sync messages, …) lives one
//! layer up in `brisk-proto`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod transcode;
pub mod values;
pub mod view;

pub use decode::{DecodeError, XdrDecoder};
pub use encode::XdrEncoder;
pub use transcode::{patch_send_stamp, transcode_record, Scoop, Transcoded};
pub use view::{decode_record_view, decode_value_ref, RecordView, ValueRef};

/// Round `n` up to the next multiple of 4 (XDR alignment unit).
#[inline]
pub const fn pad4(n: usize) -> usize {
    (n + 3) & !3
}

#[cfg(test)]
mod tests {
    use super::pad4;

    #[test]
    fn pad4_rounds_up() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
        assert_eq!(pad4(8), 8);
    }
}
