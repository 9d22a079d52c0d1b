//! Canonical IPv4 CIDR prefixes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix in canonical form (host bits cleared).
///
/// Prefixes order first by network address, then by length, which yields the
/// familiar "covering prefix before covered prefix" ordering used in RIB
/// dumps.
///
/// ```
/// use opeer_net::Ipv4Prefix;
/// use std::net::Ipv4Addr;
///
/// let p: Ipv4Prefix = "80.249.208.0/21".parse().unwrap(); // AMS-IX peering LAN
/// assert!(p.contains(Ipv4Addr::new(80, 249, 209, 17)));
/// assert!(!p.contains(Ipv4Addr::new(80, 249, 216, 1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Ipv4Prefix {
    network: Ipv4Addr,
    len: u8,
}

// `len` is the mask length, not a container size — `is_empty` would be
// meaningless (a prefix always covers ≥ 1 address).
#[allow(clippy::len_without_is_empty)]
impl Ipv4Prefix {
    /// `0.0.0.0/0`, the default route.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix {
        network: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// Creates a prefix, clearing any set host bits.
    ///
    /// Returns `None` if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Option<Self> {
        if len > 32 {
            return None;
        }
        let bits = u32::from(addr) & mask(len);
        Some(Ipv4Prefix {
            network: Ipv4Addr::from(bits),
            len,
        })
    }

    /// Creates a host prefix (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix {
            network: addr,
            len: 32,
        }
    }

    /// The network address (host bits are always zero).
    pub const fn network(&self) -> Ipv4Addr {
        self.network
    }

    /// Prefix length in bits (`0..=32`).
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default route.
    pub const fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The netmask as an address, e.g. `255.255.248.0` for a `/21`.
    pub fn netmask(&self) -> Ipv4Addr {
        Ipv4Addr::from(mask(self.len))
    }

    /// Number of addresses covered by the prefix (2^(32-len)).
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The broadcast (highest) address of the prefix.
    pub fn broadcast(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.network) | !mask(self.len))
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == u32::from(self.network)
    }

    /// Whether `other` is fully covered by this prefix (equal counts).
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Splits the prefix into its two halves, or `None` for a `/32`.
    pub fn split(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let low = Ipv4Prefix {
            network: self.network,
            len: child_len,
        };
        let high_bits = u32::from(self.network) | (1 << (32 - child_len as u32));
        let high = Ipv4Prefix {
            network: Ipv4Addr::from(high_bits),
            len: child_len,
        };
        Some((low, high))
    }

    /// The `n`-th address within the prefix, if in range.
    ///
    /// `addr_at(0)` is the network address. Peering-LAN IP assignment in
    /// `opeer-topology` uses this to hand out member interface addresses.
    pub fn addr_at(&self, n: u64) -> Option<Ipv4Addr> {
        if n >= self.num_addresses() {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.network) + n as u32))
    }

    /// Bit `i` (0 = most significant) of the network address. Used by the
    /// radix trie.
    pub(crate) fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        u32::from(self.network) & (1 << (31 - i as u32)) != 0
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

/// Error returned when parsing an [`Ipv4Prefix`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 prefix: {:?}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    /// Parses `"a.b.c.d/len"`. A bare address is treated as a `/32`.
    /// Host bits below the mask are cleared (canonicalisation), matching the
    /// tolerant behaviour needed for registry data that contains
    /// non-canonical rows.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixParseError(s.to_string());
        match s.split_once('/') {
            Some((addr, len)) => {
                let addr: Ipv4Addr = addr.parse().map_err(|_| err())?;
                let len: u8 = len.parse().map_err(|_| err())?;
                Ipv4Prefix::new(addr, len).ok_or_else(err)
            }
            None => {
                let addr: Ipv4Addr = s.parse().map_err(|_| err())?;
                Ok(Ipv4Prefix::host(addr))
            }
        }
    }
}

impl TryFrom<String> for Ipv4Prefix {
    type Error = PrefixParseError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

impl From<Ipv4Prefix> for String {
    fn from(p: Ipv4Prefix) -> String {
        p.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        let pre = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(pre.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "80.249.208.0/21", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_bare_address_is_host_route() {
        assert_eq!(
            p("192.0.2.1"),
            Ipv4Prefix::host(Ipv4Addr::new(192, 0, 2, 1))
        );
    }

    #[test]
    fn parse_rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn netmask_and_broadcast() {
        let pre = p("80.249.208.0/21");
        assert_eq!(pre.netmask(), Ipv4Addr::new(255, 255, 248, 0));
        assert_eq!(pre.broadcast(), Ipv4Addr::new(80, 249, 215, 255));
        assert_eq!(pre.num_addresses(), 2048);
    }

    #[test]
    fn containment() {
        let lan = p("80.249.208.0/21");
        assert!(lan.contains(Ipv4Addr::new(80, 249, 208, 0)));
        assert!(lan.contains(Ipv4Addr::new(80, 249, 215, 255)));
        assert!(!lan.contains(Ipv4Addr::new(80, 249, 216, 0)));
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(1, 1, 1, 1)));
    }

    #[test]
    fn covers_and_overlaps() {
        let a = p("10.0.0.0/8");
        let b = p("10.32.0.0/11");
        let c = p("11.0.0.0/8");
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.covers(&a));
    }

    #[test]
    fn split_halves() {
        let (lo, hi) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert!(p("1.2.3.4/32").split().is_none());
    }

    #[test]
    fn addr_at_bounds() {
        let lan = p("192.0.2.0/29");
        assert_eq!(lan.addr_at(0), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(lan.addr_at(7), Some(Ipv4Addr::new(192, 0, 2, 7)));
        assert_eq!(lan.addr_at(8), None);
    }

    #[test]
    fn ordering_network_then_len() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn serde_as_string() {
        // The serde impls delegate to the String conversions; exercise those.
        let pre = p("80.249.208.0/21");
        let s: String = pre.into();
        assert_eq!(s, "80.249.208.0/21");
        let back: Ipv4Prefix = Ipv4Prefix::try_from(s).unwrap();
        assert_eq!(back, pre);
    }
}
