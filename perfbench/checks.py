"""Output checks for every op, computed without incgrade.

`Checker.check(op, code, stdout)` returns None when the op's exit code is
one it may return and its JSON report agrees with `oracle`, and a short
reason otherwise. Reference answers are cached per input, so an op that
repeats in later passes costs only a comparison.
"""

import itertools
import json
import math
from fractions import Fraction

import oracle


class Checker:
    def __init__(self):
        self._memo = {}

    def _cached(self, key, compute):
        key = json.dumps(key, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, op, code, stdout):
        if code not in op["codes"]:
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
            if report["command"] != op["kind"]:
                return "report names another command"
            ok = getattr(self, "_" + op["kind"].replace("-", "_"))(
                op, op["check"], report["results"], code)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {exc!r}"
        return None if ok else "result disagrees with the reference"

    # ---------------------------------------------------------- helpers

    def _leq(self, poset):
        return self._cached(["leq", poset], lambda: oracle.closure(
            len(poset["labels"]), poset["covers"]))

    def _orbits(self, poset, spec):
        return self._cached(["orbits", poset, spec], lambda: oracle.grading_orbits(
            self._leq(poset), oracle.group(spec)))

    def _slice_rows(self, poset, spec, theta, multidegree):
        return self._cached(
            ["rows", poset, spec, theta, multidegree],
            lambda: oracle.evaluation_rows(self._leq(poset), oracle.group(spec),
                                           theta, multidegree))

    def _slice_dimension(self, c, multidegree):
        rows = self._slice_rows(c["poset"], c["group"], c["theta"], multidegree)
        return oracle.slice_dimension(rows, len(multidegree))

    # ----------------------------------------------------- poset commands

    def _validate(self, op, c, res, code):
        leq = self._leq(c["poset"])
        return (res["valid"] is True
                and res["elements"] == c["poset"]["labels"]
                and res["covers"] == [list(p) for p in oracle.cover_pairs(leq)]
                and res["components"] == len(oracle.components(leq)))

    def _chains(self, op, c, res, code):
        labels = c["poset"]["labels"]
        want = [[labels[i] for i in chain]
                for chain in oracle.maximal_chains(self._leq(c["poset"]))]
        return res["chains"] == want

    def _aut(self, op, c, res, code):
        auts = oracle.automorphisms(self._leq(c["poset"]))
        return (res["order"] == len(auts)
                and res["automorphisms"] == [list(a) for a in auts])

    def _chain_transitive(self, op, c, res, code):
        leq = self._leq(c["poset"])
        chains = oracle.maximal_chains(leq)
        auts = oracle.automorphisms(leq)

        def maps(sigma, i, j):
            return tuple(sigma[x] for x in chains[i]) == chains[j]

        reachable = all(any(maps(s, i, j) for s in auts)
                        for i in range(len(chains)) for j in range(len(chains)))
        if res["transitive"] is not reachable:
            return False
        if not reachable:
            i, j = res["unreachable"]
            return not any(maps(s, i, j) for s in auts)
        seen = set()
        for w in res["witnesses"]:
            sigma = tuple(w["sigma"])
            if sigma not in auts or not maps(sigma, w["from"], w["to"]):
                return False
            seen.add((w["from"], w["to"]))
        return len(seen) == len(chains) ** 2

    def _mobius(self, op, c, res, code):
        mu = {(x, y): Fraction(v) for x, y, v in res["entries"]}
        return oracle.mobius_ok(self._leq(c["poset"]), mu)

    def _decompose(self, op, c, res, code):
        if res["sigma"] != c["sigma"]:
            return False
        leq = self._leq(c["poset"])
        r = {(x, y): Fraction(v) for x, y, v in res["r"]}
        s = {(x, y): Fraction(v) for x, y, v in res["s"]}
        if set(s) != set(oracle.comparable_pairs(leq)):
            return False
        rebuilt = oracle.automorphism_images(leq, r, s, res["sigma"])
        given = {(item["pair"][0], item["pair"][1]):
                 {(u, v): Fraction(w) for u, v, w in item["image"]}
                 for item in c["morphism"]}
        return rebuilt == given

    # --------------------------------------------------- grading commands

    def _grade(self, op, c, res, code):
        grp = oracle.group(c["group"])
        comps = oracle.component_pairs(self._leq(c["poset"]), grp, c["theta"])
        realized = [g for g in range(grp.order) if comps[g]]
        return (res["support"] == [grp.names[g] for g in realized]
                and res["components"] == {grp.names[g]: [list(p) for p in comps[g]]
                                          for g in realized})

    def _count(self, op, c, res, code):
        leq = self._leq(c["poset"])
        want = oracle.group(c["group"]).order ** (len(leq) - len(oracle.components(leq)))
        return res["count"] == want and res["verified"] is ("--verify" in op["argv"])

    def _classify(self, op, c, res, code):
        grp = oracle.group(c["group"])
        root_of, classes = self._orbits(c["poset"], c["group"])
        roots = {root_of(tuple(grp.index(name) for name in rep))
                 for rep in res["representatives"]}
        return (res["classes"] == classes
                and len(res["representatives"]) == classes
                and len(roots) == classes)

    def _equiv(self, op, c, res, code):
        grp = oracle.group(c["group"])
        leq = self._leq(c["poset"])
        want = oracle.are_equivalent(leq, grp, c["theta"], c["mu"])
        if res["equivalent"] is not want:
            return False
        if not want:
            return res["witness"] is None
        shifts = [grp.index(name) for name in res["witness"]["shifts"]]
        return oracle.equivalence_witness_ok(leq, grp, c["theta"], c["mu"],
                                             shifts, res["witness"]["sigma"])

    def _transitivity_check(self, op, c, res, code):
        leq = self._leq(c["poset"])
        _, classes = self._orbits(c["poset"], c["group"])
        separated = not res["unseparated"]
        return (res["classes"] == classes
                and res["pairs_checked"] == classes * (classes - 1) // 2
                and res["degree"] == oracle.longest_chain(leq)
                and res["separated"] is separated
                and code == (0 if separated else 1))

    # ------------------------------------------------ identity commands

    def _monomials(self, op, c, res, code):
        grp = oracle.group(c["group"])
        words = oracle.monomial_identities(self._leq(c["poset"]), grp,
                                           c["theta"], c["max_degree"])
        return (res["max_degree"] == c["max_degree"]
                and res["identities"] == [[grp.names[g] for g in w] for w in words])

    def _slice(self, op, c, res, code):
        grp = oracle.group(c["group"])
        md = c["multidegree"]
        rows = self._slice_rows(c["poset"], c["group"], c["theta"], md)
        dim = oracle.slice_dimension(rows, len(md))
        basis = [[Fraction(v) for v in row] for row in res["basis"]]
        return (res["multidegree"] == [grp.names[g] for g in md]
                and res["dimension"] == dim == len(basis)
                and all(len(row) == math.factorial(len(md)) for row in basis)
                and oracle.rank(basis) == dim
                and all(sum(v for v, hit in zip(vec, row) if hit) == 0
                        for vec in basis for row in rows))

    def _verify_reduction(self, op, c, res, code):
        grp = oracle.group(c["group"])
        if "multidegree" in c:
            degrees = [c["multidegree"]]
        else:
            comps = oracle.component_pairs(self._leq(c["poset"]), grp, c["theta"])
            alphabet = sorted({g for g in comps if comps[g]} | {grp.identity})
            degrees = [list(md) for m in range(1, c["max_degree"] + 1)
                       for md in itertools.product(alphabet, repeat=m)]
        chains = len(oracle.maximal_chains(self._leq(c["poset"])))
        checks = res["checks"]
        return (res["all_equal"] is True
                and res["theta"] == [grp.names[g] for g in c["theta"]]
                and [ch["multidegree"] for ch in checks]
                == [[grp.names[g] for g in md] for md in degrees]
                and all(ch["equal"] is True
                        and ch["whole_dimension"] == ch["intersection_dimension"]
                        == self._slice_dimension(c, md)
                        and len(ch["chain_dimensions"]) == chains
                        for ch, md in zip(checks, degrees)))

    def _compare_identities(self, op, c, res, code):
        # mu is drawn from theta's equivalence class, and equivalent
        # gradings satisfy the same graded identities.
        return (res["equal"] is True and res["first_difference"] is None
                and res["max_degree"] == c["max_degree"])
