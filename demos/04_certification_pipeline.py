#!/usr/bin/env python3
"""End-to-end certification: local hypotheses to a global conclusion.

Optimality of the block-lexicographic order on a many-factor product
follows mechanically once (1) every factor partition is isoperimetric,
(2) the leading factors' partitions are non-decreasing, (3) the block
permutations form a regular domination collection, and (4) the two-factor
block-lex order is optimal for every factor pair.  The certifier checks
each hypothesis with evidence, emits a certificate only when all pass,
and cross-checks the order at every size against the sandwich bound,
running an independent downset oracle only where the bound is missed; an
order that oracle beats gets the certificate revoked.
"""

import json

import blocklex as bx

pet = bx.petersen()
factors = [pet, bx.clique(2), bx.clique(2)]

cert = bx.certify(factors, "standard")
print("status:", cert.status)
for h in cert.hypotheses:
    extra = ""
    if "profile_strategy" in h.detail:
        extra = f" via {h.detail['profile_strategy']}"
    print(f"  [{'ok' if h.verified else 'FAIL'}] {h.name}{extra}")

check = cert.crosschecks[-1]
print(f"crosscheck: {check['sizes']} sizes by {check['oracle']},",
      f"unchecked {check['unchecked']}, agreement {check['agreement']}")
assert check["sizes"] == bx.cartesian_product(factors).n + 1 and not check["unchecked"]
print("conclusion:", cert.conclusion)
print()

# Negative control: an irregular middle-factor partition kills the
# regular-domination-collection hypothesis, so no conclusion is emitted.
bad = bx.certify([bx.clique(2), bx.disjoint_union([bx.clique(5), bx.clique(4)]),
                  bx.clique(2)], "standard")
print("irregular middle factor:", bad.status, "->", bad.failing)
assert bad.conclusion is None and bad.exit_code() == 2
print()

# A deliberately wrong order loses to the oracle and gets the certificate
# revoked, with the counterexample preserved.
g = bx.cartesian_product(factors)
dc = bx.standard_collection(factors)
dc.validate(g, check_block_optimality=False)
wrong = bx.lex_order(g, [bx.TotalOrder.identity(f.n) for f in g.factors])
cert2 = bx.certify(factors, "standard")
cert2 = bx.crosscheck(cert2, factors, dc, order_override=wrong)
print("wrong order revoked:", cert2.revoked)
print("counterexample:", json.dumps(cert2.counterexample)[:100], "...")
print()

# The explorer searches conjectured families without ever asserting them.
with bx.Budget(120):
    rep = bx.explore_conjecture("path_clique", {"max_vertices": 12})
print("path x clique exploration:", rep.statuses)
