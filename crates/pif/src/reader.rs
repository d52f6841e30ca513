//! Checked reads off the front of untrusted bytes.

use crate::error::PifError;

/// Big-endian reads that advance a byte slice past what they return. A
/// read that would run off the end fails with [`PifError::Malformed`] and
/// leaves the slice as it was, so no input can make a decoder panic.
pub(crate) trait Reader<'a> {
    /// The next `n` bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PifError>;

    /// The next `N` bytes, by value.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PifError>;

    fn u8(&mut self) -> Result<u8, PifError> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, PifError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, PifError> {
        self.array().map(u32::from_be_bytes)
    }

    fn i64(&mut self) -> Result<i64, PifError> {
        self.array().map(i64::from_be_bytes)
    }
}

fn truncated() -> PifError {
    PifError::malformed("truncated PIF data")
}

impl<'a> Reader<'a> for &'a [u8] {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PifError> {
        let (head, rest) = self.split_at_checked(n).ok_or_else(truncated)?;
        *self = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PifError> {
        let (head, rest) = self.split_first_chunk().ok_or_else(truncated)?;
        *self = rest;
        Ok(*head)
    }
}
