"""Low-level networking primitives.

This subpackage provides the IPv4 address and prefix types used
throughout the library, and a prefix table (one dict per prefix
length) implementing longest-prefix match, the lookup primitive behind
IP-to-AS mapping and the announced prefix of a traceroute destination.
"""

from repro.net.ip import IPAddress, Prefix
from repro.net.trie import PrefixTrie

__all__ = ["IPAddress", "Prefix", "PrefixTrie"]
