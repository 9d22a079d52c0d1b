//! IP-to-AS mapping in the style of the CAIDA Routeviews `prefix2as` dataset.
//!
//! The paper performs IP-to-AS mapping on every traceroute hop (§5.2 step 5,
//! citing the Routeviews prefix2as dataset \[34\]). This module provides the
//! same abstraction: a longest-prefix-match table from prefixes to origin
//! ASes, including multi-origin (MOAS) prefixes that are announced by more
//! than one AS.

use crate::asn::Asn;
use crate::prefix::Ipv4Prefix;
use crate::trie::PrefixTrie;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The set of origin ASes announcing one prefix.
///
/// Almost always a single AS; kept sorted and deduplicated so MOAS sets
/// compare structurally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OriginSet {
    origins: Vec<Asn>,
}

impl OriginSet {
    /// Creates a set with one origin.
    pub fn single(asn: Asn) -> Self {
        OriginSet { origins: vec![asn] }
    }

    /// Creates a set from multiple origins (sorted, deduplicated).
    pub fn multi(mut origins: Vec<Asn>) -> Self {
        origins.sort();
        origins.dedup();
        OriginSet { origins }
    }

    /// The origin ASes, sorted ascending.
    pub fn origins(&self) -> &[Asn] {
        &self.origins
    }

    /// Whether this is a multi-origin (MOAS) prefix.
    pub fn is_moas(&self) -> bool {
        self.origins.len() > 1
    }

    /// Whether `asn` is among the origins.
    pub fn contains(&self, asn: Asn) -> bool {
        self.origins.binary_search(&asn).is_ok()
    }

    /// The unique origin if the set is not MOAS.
    pub fn unique(&self) -> Option<Asn> {
        match self.origins.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    fn add(&mut self, asn: Asn) {
        if let Err(pos) = self.origins.binary_search(&asn) {
            self.origins.insert(pos, asn);
        }
    }
}

/// Longest-prefix-match IP-to-AS mapping.
///
/// ```
/// use opeer_net::{Asn, IpToAsMap};
/// use std::net::Ipv4Addr;
///
/// let mut map = IpToAsMap::new();
/// map.insert("203.0.113.0/24".parse().unwrap(), Asn::new(64496));
/// map.insert("203.0.113.0/24".parse().unwrap(), Asn::new(64497)); // MOAS
///
/// let set = map.lookup(Ipv4Addr::new(203, 0, 113, 9)).unwrap();
/// assert!(set.is_moas());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpToAsMap {
    trie: PrefixTrie<OriginSet>,
}

impl IpToAsMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        IpToAsMap {
            trie: PrefixTrie::new(),
        }
    }

    /// Number of distinct prefixes in the map.
    pub fn num_prefixes(&self) -> usize {
        self.trie.len()
    }

    /// Registers `asn` as an origin of `prefix`. Repeated insertion of
    /// different ASes for the same prefix builds a MOAS set.
    pub fn insert(&mut self, prefix: Ipv4Prefix, asn: Asn) {
        match self.trie.get_mut(&prefix) {
            Some(set) => set.add(asn),
            None => {
                self.trie.insert(prefix, OriginSet::single(asn));
            }
        }
    }

    /// Longest-prefix-match lookup of an address to its origin set.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&OriginSet> {
        self.trie.longest_match(addr).map(|(_, v)| v)
    }

    /// Convenience: the unique origin AS of `addr`, if the covering prefix
    /// is not MOAS. This mirrors how the paper's heuristics treat IP-to-AS
    /// mapping (MOAS hops are ambiguous and skipped).
    pub fn unique_origin(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.lookup(addr).and_then(OriginSet::unique)
    }

    /// Iterates over all `(prefix, origin set)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &OriginSet)> {
        self.trie.iter()
    }

    /// Parses one line of the Routeviews `prefix2as` text format:
    /// `address<TAB>length<TAB>origin[,origin...]` (MOAS origins are
    /// comma- or underscore-separated in the published dataset).
    ///
    /// Returns `None` for malformed lines, which callers are expected to
    /// count-and-skip (the real dataset contains occasional junk).
    pub fn parse_prefix2as_line(line: &str) -> Option<(Ipv4Prefix, Vec<Asn>)> {
        let mut fields = line.split_whitespace();
        let addr: Ipv4Addr = fields.next()?.parse().ok()?;
        let len: u8 = fields.next()?.parse().ok()?;
        let prefix = Ipv4Prefix::new(addr, len)?;
        let origins: Vec<Asn> = fields
            .next()?
            .split([',', '_'])
            .filter_map(|s| s.parse().ok())
            .collect();
        if origins.is_empty() {
            return None;
        }
        Some((prefix, origins))
    }

    /// Loads a whole `prefix2as` document, returning the map and the number
    /// of skipped malformed lines.
    pub fn from_prefix2as(text: &str) -> (Self, usize) {
        let mut map = IpToAsMap::new();
        let mut skipped = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match Self::parse_prefix2as_line(line) {
                Some((prefix, origins)) => {
                    for asn in origins {
                        map.insert(prefix, asn);
                    }
                }
                None => skipped += 1,
            }
        }
        (map, skipped)
    }

    /// Serialises the map in the `prefix2as` text format (sorted by the trie
    /// iteration order, MOAS origins comma-separated).
    pub fn to_prefix2as(&self) -> String {
        let mut out = String::new();
        for (prefix, set) in self.iter() {
            let origins: Vec<String> = set
                .origins()
                .iter()
                .map(|a| a.value().to_string())
                .collect();
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                prefix.network(),
                prefix.len(),
                origins.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_longest_match() {
        let mut m = IpToAsMap::new();
        m.insert(p("10.0.0.0/8"), Asn::new(100));
        m.insert(p("10.1.0.0/16"), Asn::new(200));
        assert_eq!(
            m.unique_origin("10.1.2.3".parse().unwrap()),
            Some(Asn::new(200))
        );
        assert_eq!(
            m.unique_origin("10.2.2.3".parse().unwrap()),
            Some(Asn::new(100))
        );
        assert_eq!(m.unique_origin("11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn moas_accumulates_and_blocks_unique() {
        let mut m = IpToAsMap::new();
        m.insert(p("203.0.113.0/24"), Asn::new(1));
        m.insert(p("203.0.113.0/24"), Asn::new(2));
        m.insert(p("203.0.113.0/24"), Asn::new(1)); // duplicate ignored
        let set = m.lookup("203.0.113.1".parse().unwrap()).unwrap();
        assert!(set.is_moas());
        assert_eq!(set.origins(), &[Asn::new(1), Asn::new(2)]);
        assert!(set.contains(Asn::new(2)));
        assert_eq!(m.unique_origin("203.0.113.1".parse().unwrap()), None);
    }

    #[test]
    fn prefix2as_roundtrip() {
        let mut m = IpToAsMap::new();
        m.insert(p("10.0.0.0/8"), Asn::new(100));
        m.insert(p("203.0.113.0/24"), Asn::new(1));
        m.insert(p("203.0.113.0/24"), Asn::new(2));
        let text = m.to_prefix2as();
        let (back, skipped) = IpToAsMap::from_prefix2as(&text);
        assert_eq!(skipped, 0);
        assert_eq!(back.num_prefixes(), 2);
        assert!(back
            .lookup("203.0.113.5".parse().unwrap())
            .unwrap()
            .is_moas());
    }

    #[test]
    fn prefix2as_parses_underscore_moas_and_skips_junk() {
        let text = "# comment\n\
                    10.0.0.0\t8\t100\n\
                    203.0.113.0\t24\t64496_64497\n\
                    garbage line here\n\
                    300.0.0.0\t8\t1\n";
        let (m, skipped) = IpToAsMap::from_prefix2as(text);
        assert_eq!(skipped, 2);
        assert_eq!(m.num_prefixes(), 2);
        let set = m.lookup("203.0.113.9".parse().unwrap()).unwrap();
        assert_eq!(set.origins(), &[Asn::new(64496), Asn::new(64497)]);
    }
}
