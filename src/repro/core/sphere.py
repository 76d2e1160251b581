"""Sphere-of-replication audit (Section 3.4 / Reinhardt & Mukherjee).

Enumerates every architectural structure of the modelled processor with
its protection mechanism, and verifies the coverage argument of the
paper: everything is either (a) inside the sphere of replication —
R-redundant in storage and computation between decode and commit — or
(b) outside the sphere and protected by information redundancy (ECC /
parity), or (c) covered by an explicit architectural check (the
committed next-PC continuity check covering the PC register and BTB).
"""

from __future__ import annotations

from dataclasses import dataclass

PROTECTION_REPLICATION = "replication"
PROTECTION_ECC = "ecc"
PROTECTION_CHECK = "architectural-check"
PROTECTION_NONE = "unprotected"


@dataclass(frozen=True)
class StructureCoverage:
    """One hardware structure and how it is protected."""

    name: str
    domain: str          # "speculative" | "committed" | "frontend" | "hint"
    protection: str
    note: str


#: The paper's coverage inventory for the fault-tolerant configuration.
FT_COVERAGE = (
    StructureCoverage("reorder buffer / rename registers", "speculative",
                      PROTECTION_REPLICATION,
                      "R copies in aligned entries; cross-checked at "
                      "commit"),
    StructureCoverage("functional units", "speculative",
                      PROTECTION_REPLICATION,
                      "each copy executes independently"),
    StructureCoverage("load/store queue", "speculative",
                      PROTECTION_REPLICATION,
                      "addresses and store data computed per copy and "
                      "cross-checked; but a load's one cache access "
                      "takes copy 0's address and forwarding hands copy "
                      "0's store data to every copy, so under majority "
                      "election a copy-0 strike there reaches all copies "
                      "of the consumer and commits (R = 2 rewinds)"),
    StructureCoverage("issue/wakeup logic", "speculative",
                      PROTECTION_REPLICATION,
                      "an upset manifests as a wrong value in one copy"),
    StructureCoverage("committed register file", "committed",
                      PROTECTION_ECC, "Hamming SECDED (repro.ecc)"),
    StructureCoverage("rename map table", "committed", PROTECTION_ECC,
                      "single table regardless of R; Section 3.2"),
    StructureCoverage("caches / main memory / TLB", "committed",
                      PROTECTION_ECC, "standard array ECC"),
    StructureCoverage("committed next-PC register", "committed",
                      PROTECTION_ECC,
                      "anchors PC-continuity checking and rewind"),
    StructureCoverage("fetch queue", "frontend", PROTECTION_ECC,
                      "RAM-like structure; Section 3.4"),
    StructureCoverage("PC register", "frontend", PROTECTION_CHECK,
                      "errors surface as PC-continuity violations at "
                      "retirement"),
    StructureCoverage("branch target buffer", "hint", PROTECTION_CHECK,
                      "a corrupted target is just a misprediction"),
    StructureCoverage("branch predictor tables", "hint", PROTECTION_NONE,
                      "performance hints; cannot affect correctness"),
    StructureCoverage("return address stack", "hint", PROTECTION_NONE,
                      "performance hint; cannot affect correctness"),
)

#: Structures whose corruption is fatal when protection is off (R = 1).
UNPROTECTED_COVERAGE = tuple(
    StructureCoverage(item.name, item.domain,
                      PROTECTION_NONE if item.protection
                      == PROTECTION_REPLICATION else item.protection,
                      item.note)
    for item in FT_COVERAGE)


def audit(coverage=FT_COVERAGE):
    """Return (covered, uncovered) structure lists.

    A structure counts as covered unless it is ``unprotected`` *and* can
    affect architectural correctness (i.e. not a pure hint).
    """
    covered, uncovered = [], []
    for item in coverage:
        if item.protection == PROTECTION_NONE and item.domain != "hint":
            uncovered.append(item)
        else:
            covered.append(item)
    return covered, uncovered


def coverage_table(coverage=FT_COVERAGE):
    """Human-readable audit table."""
    width = max(len(item.name) for item in coverage)
    lines = ["%-*s  %-11s  %-20s  %s" % (width, "structure", "domain",
                                         "protection", "note")]
    for item in coverage:
        lines.append("%-*s  %-11s  %-20s  %s"
                     % (width, item.name, item.domain, item.protection,
                        item.note))
    return "\n".join(lines)
