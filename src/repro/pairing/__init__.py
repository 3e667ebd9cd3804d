"""Dynamic page pairing (extension): OS-level reclamation of failed pages.

The paper's §1.1/§4 discuss the OS tier above in-chip recovery: once a
page contains an unrecoverable block it is normally retired, but the
Dynamic Pairing scheme (Ipek et al., ASPLOS 2010) reclaims capacity by
pairing two failed pages whose failed blocks sit at *different* offsets —
together they serve as one good page.  The paper's argument is that strong
in-chip recovery (Aegis) delays the point where pairing is needed at all;
this package quantifies that interplay.
"""

from repro.pairing.pairing import FailedPage, compatible, pair_failed_pages
from repro.pairing.sim import PairingStudy, pairing_study

__all__ = [
    "FailedPage",
    "PairingStudy",
    "compatible",
    "pair_failed_pages",
    "pairing_study",
]
