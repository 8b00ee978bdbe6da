"""Family specs shared by the cross-checks of several test modules.

Disjoint cliques and the C7 blow-ups are the sharp families of the
main theorem; the Petersen graph and its complement add a vertex-
transitive graph that is not a blow-up.
"""

STRUCTURED_SPECS = (
    [f"disjoint_cliques:r={r},p={p}" for r in range(1, 7) for p in (1, 2, 3)]
    + [f"c7_blowup:q={q}" for q in (1, 2, 3, 4)]
    + ["petersen", "petersen_complement"])

# the three graphs `wellcov analyze` is timed on: one bound by the
# oracle; C7[K_4] on 28 vertices in 7 twin classes, whose 154 edges the
# criticality route reads as 14 deletions, one per pair of twin
# classes, each an alpha + 1 target search; and 8K3, the
# Moon-Moser extremal case, whose 3^8 facets and 17,496 ridges, and as
# many 7-cliques of the complement, split into eight triangles
ANALYZE_SPECS = ("petersen_complement", "c7_blowup:q=4", "disjoint_cliques:r=8,p=3")
