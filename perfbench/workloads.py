"""Seeded inputs and op lists for the four benchmark workloads.

`build(workload, seed, workdir)` writes the poset and morphism JSON files
into `workdir` and returns the op list: one dict per incgrade subcommand
with its arguments (paths relative to `workdir`), the exit codes it may
return, and what the output check needs. The same seed gives the same
files and the same list, byte for byte.

How the seed is used differs by workload, so that every seed gives about
the same amount of work (see README.md, "Workloads"):

- classify and small draw random posets from the seed directly; their
  per-op cost barely depends on the draw.
- slices draws its posets and gradings once from a fixed pool seed,
  because slice cost swings tenfold between random posets of one size.
  The pool also fixes the multidegrees. The run seed draws how each
  entry is presented: element order, labels, an equivalent grading
  (automorphism and per-component shift) and the one used for `mu`.
- algebra uses fixed shapes (chains, Boolean lattices) plus random dense
  posets and random automorphisms drawn from the seed.
"""

import json
import os
import random

from fractions import Fraction

import oracle

WORKLOADS = ("classify", "slices", "algebra", "small")

# Fixture posets bundled with incgrade, read as input data.
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "incgrade", "fixtures")


# ------------------------------------------------------------ shapes

def antichain(n):
    return n, []


def disjoint_chains(*lengths):
    covers, base = [], 0
    for length in lengths:
        covers += [(base + i, base + i + 1) for i in range(length - 1)]
        base += length
    return base, covers


def chain(n):
    return disjoint_chains(n)


def boolean_lattice(k):
    n = 1 << k
    return n, [(a, a | (1 << b)) for a in range(n) for b in range(k)
               if not a >> b & 1]


def bipartite(a, b):
    """a minimal elements each below all b maximal elements."""
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def random_order(rng, n, p, connected=False, pairs=None):
    """Covers of a random order: each pair i < j of a random linear
    extension is related with probability p, then closed. Draws again
    until the order is connected, if asked, and its number of comparable
    pairs lies in the range `pairs`, if given."""
    while True:
        relation = [(i, j) for i in range(n) for j in range(i + 1, n)
                    if rng.random() < p]
        leq = oracle.closure(n, relation)
        if connected and len(oracle.components(leq)) != 1:
            continue
        if pairs and len(oracle.comparable_pairs(leq)) not in pairs:
            continue
        return n, oracle.cover_pairs(leq)


# ------------------------------------------------------------ inputs

class Inputs:
    """Writes presented posets into workdir and collects ops."""

    def __init__(self, workload, seed, workdir):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workload = workload
        self.dir = workdir
        self.ops = []
        self.files = 0

    def present(self, shape):
        """A copy of the shape with a random element order and labels.

        Returns the poset and the order: element i of the shape becomes
        element order[i] of the copy.
        """
        n, covers = shape
        order = list(range(n))
        self.rng.shuffle(order)
        labels = [f"v{k}" for k in self.rng.sample(range(10 * n + 10), n)]
        return ({"labels": labels,
                 "covers": sorted([order[i], order[j]] for i, j in covers)},
                order)

    def write(self, prefix, obj):
        self.files += 1
        name = f"{prefix}{self.files:02d}.json"
        with open(os.path.join(self.dir, name), "w") as handle:
            json.dump(obj, handle, sort_keys=True)
        return name

    def poset_file(self, poset):
        return self.write("p", {"elements": poset["labels"],
                                "covers": poset["covers"]})

    def add(self, kind, argv, check, codes=(0,)):
        self.ops.append({
            "id": f"{self.workload}-{len(self.ops):02d}",
            "kind": kind,
            "argv": [kind] + argv + ["--format", "json"],
            "codes": list(codes),
            "check": check,
        })


def fixture(name):
    with open(os.path.join(FIXTURE_DIR, f"{name}.json")) as handle:
        obj = json.load(handle)
    return {"labels": obj["elements"], "covers": obj["covers"]}


def leq_of(poset):
    return oracle.closure(len(poset["labels"]), poset["covers"])


def names_csv(grp, values):
    return ",".join(grp.names[v] for v in values)


def equivalent_grading(rng, poset, grp, theta):
    """A random grading in theta's class: relabel by a random automorphism,
    then shift each connected component by a random group element."""
    leq = leq_of(poset)
    sigma = rng.choice(oracle.automorphisms(leq))
    owner = oracle.component_owner(leq)
    shifts = [rng.randrange(grp.order) for _ in range(max(owner) + 1)]
    n = len(theta)
    moved = [0] * n
    for i in range(n):
        moved[sigma[i]] = theta[i]
    return [grp.mul(shifts[owner[x]], moved[x]) for x in range(n)]


def realized_degrees(poset, grp, theta):
    pairs = oracle.component_pairs(leq_of(poset), grp, theta)
    return sorted(g for g, found in pairs.items() if found)


# ---------------------------------------------------------- workloads

def _classify(inp):
    rng = inp.rng
    # (shape, group), all with |G|^n <= 7776. Large k (antichains, disjoint
    # unions of chains) pays the |G|^k factor; the random connected posets
    # (k = 1) do not. The costs are spread so that op_p50_ms falls among
    # mid-size ops and op_tail_ms among five heavy ones.
    classify = [
        (antichain(5), "C2xC2"),
        (antichain(6), "C3"),
        (disjoint_chains(1, 1, 1, 1, 2), "C2xC2"),
        (disjoint_chains(2, 1, 1, 1, 1), "C2xC2"),
        (disjoint_chains(1, 1, 1, 2), "S3"),
        (antichain(4), "S3"),
        (random_order(rng, 5, 0.45, connected=True), "S3"),
        (random_order(rng, 6, 0.4, connected=True), "C2xC2"),
    ]
    count = [
        (antichain(5), "S3"),
        (random_order(rng, 6, 0.4, connected=True), "C3"),
    ]
    # Chain-transitive shapes, so transitivity-check never exits 2.
    transitive = [
        (antichain(5), "C2xC2"),
        (antichain(5), "C3"),
        (antichain(6), "C2"),
        (antichain(4), "S3"),
        (disjoint_chains(3, 3), "C3"),
        (bipartite(2, 2), "C2xC2"),
    ]
    for shape, spec in classify:
        poset, _ = inp.present(shape)
        inp.add("classify", ["--poset", inp.poset_file(poset), "--group", spec],
                {"poset": poset, "group": spec})
    for shape, spec in count:
        poset, _ = inp.present(shape)
        inp.add("count", ["--poset", inp.poset_file(poset), "--group", spec,
                          "--verify"],
                {"poset": poset, "group": spec})
    for shape, spec in transitive:
        poset, _ = inp.present(shape)
        inp.add("transitivity-check",
                ["--poset", inp.poset_file(poset), "--group", spec],
                {"poset": poset, "group": spec}, codes=(0, 1))


SLICES_POOL_SEED = "slices-pool-1"


def _slices_pool():
    """Fixed (shape, group, theta, two m=4 multidegrees, compare degree)
    entries; see the module docstring."""
    rng = random.Random(SLICES_POOL_SEED)
    pool = []
    for n, spec, degree in [(4, "C3", 4), (5, "C2", 4), (6, "C2", 4),
                            (6, "C3", 3), (7, "C2", 4), (7, "C3", 3)]:
        shape = random_order(rng, n, 0.4)
        grp = oracle.group(spec)
        theta = [rng.randrange(grp.order) for _ in range(n)]
        leq = oracle.closure(n, shape[1])
        pairs = oracle.component_pairs(leq, grp, theta)
        degrees = sorted(g for g, found in pairs.items() if found)
        multidegrees = [[rng.choice(degrees) for _ in range(4)] for _ in range(2)]
        pool.append((shape, spec, theta, multidegrees, degree))
    return pool


def _slices(inp):
    rng = inp.rng
    for shape, spec, theta, (md_slice, md_reduce), degree in _slices_pool():
        grp = oracle.group(spec)
        poset, order = inp.present(shape)
        placed = [0] * len(theta)
        for i in range(len(theta)):
            placed[order[i]] = theta[i]
        theta = equivalent_grading(rng, poset, grp, placed)
        mu = equivalent_grading(rng, poset, grp, theta)
        path = inp.poset_file(poset)
        base = ["--poset", path, "--group", spec, "--theta", names_csv(grp, theta)]
        check = {"poset": poset, "group": spec, "theta": theta}
        inp.add("slice", base + ["--multidegree", names_csv(grp, md_slice)],
                dict(check, multidegree=md_slice))
        inp.add("verify-reduction", base + ["--max-degree", "3"],
                dict(check, max_degree=3))
        inp.add("verify-reduction", base + ["--multidegree", names_csv(grp, md_reduce)],
                dict(check, multidegree=md_reduce))
        inp.add("compare-identities",
                base + ["--mu", names_csv(grp, mu), "--max-degree", str(degree)],
                dict(check, mu=mu, max_degree=degree))


def _algebra(inp):
    rng = inp.rng
    # Fixed shapes set the costs, and the random dense posets are drawn
    # with a narrow band of comparable pairs, so op_p50_ms and op_tail_ms
    # fall on fixed-shape ops whatever the seed.
    mobius = [chain(40), chain(34), chain(30), chain(26), chain(22),
              boolean_lattice(5),
              random_order(rng, 24, 0.2, pairs=range(150, 176)),
              random_order(rng, 28, 0.2, pairs=range(215, 251)),
              random_order(rng, 32, 0.15, pairs=range(225, 261))]
    for shape in mobius:
        poset, _ = inp.present(shape)
        inp.add("mobius", ["--poset", inp.poset_file(poset)], {"poset": poset})
    for shape in [chain(10), chain(9), chain(8), boolean_lattice(3),
                  disjoint_chains(5, 5), bipartite(2, 3)]:
        poset, _ = inp.present(shape)
        leq = leq_of(poset)
        pairs = oracle.comparable_pairs(leq)
        # phi = inner(r) . mult(s) . induced(sigma). r is nonzero on every
        # pair, so the density of the images is fixed by the shape.
        # s(x, y) = w(y) / w(x) is multiplicative for any nonzero weights w.
        r = {(x, y): Fraction(rng.choice((1, 2, 3, -1) if x == y else (1, 2, -1, -2)))
             for x, y in pairs}
        weight = [rng.choice((1, 2, 3, -1, -2)) for _ in poset["labels"]]
        s = {(x, y): Fraction(weight[y], weight[x]) for x, y in pairs}
        sigma = rng.choice(oracle.automorphisms(leq))
        images = oracle.automorphism_images(leq, r, s, sigma)
        morphism = [{"pair": [x, y],
                     "image": [[u, v, rational(c)] for (u, v), c in sorted(img.items())]}
                    for (x, y), img in sorted(images.items())]
        inp.add("decompose", ["--poset", inp.poset_file(poset),
                              "--morphism", inp.write("m", morphism)],
                {"poset": poset, "sigma": list(sigma), "morphism": morphism})


def rational(value):
    """incgrade's rational text form: 'num' or 'num/den'."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _small(inp):
    rng = inp.rng
    posets = [("fixture", name) for name in ("example", "diamond", "c4",
                                             "c2_disjoint_c3")]
    posets += [("file", random_order(rng, n, 0.35)) for n in (5, 6, 7, 8)]

    def pick():
        how, what = posets[len(inp.ops) % len(posets)]
        if how == "fixture":
            return fixture(what), what
        poset, _ = inp.present(what)
        return poset, inp.poset_file(poset)

    for kind in ("validate", "chains", "aut", "chain-transitive"):
        for _ in range(2):
            poset, arg = pick()
            inp.add(kind, ["--poset", arg], {"poset": poset})
    for spec in ("C2", "C3", "S3"):
        grp = oracle.group(spec)
        poset, arg = pick()
        n = len(poset["labels"])
        theta = [rng.randrange(grp.order) for _ in range(n)]
        base = ["--poset", arg, "--group", spec, "--theta", names_csv(grp, theta)]
        check = {"poset": poset, "group": spec, "theta": theta}
        inp.add("grade", base, check)
        mu = (equivalent_grading(rng, poset, grp, theta) if spec != "C3"
              else [rng.randrange(grp.order) for _ in range(n)])
        inp.add("equiv", base + ["--mu", names_csv(grp, mu)], dict(check, mu=mu))
        inp.add("monomials", base + ["--max-degree", "3"], dict(check, max_degree=3))
        degrees = realized_degrees(poset, grp, theta)
        for m in (1, 2):
            md = [rng.choice(degrees) for _ in range(m)]
            inp.add("slice", base + ["--multidegree", names_csv(grp, md)],
                    dict(check, multidegree=md))
        count = ["--poset", arg, "--group", spec]
        inp.add("count", count, {"poset": poset, "group": spec})
    poset, arg = pick()
    inp.add("count", ["--poset", arg, "--group", "C2xC2", "--verify"],
            {"poset": poset, "group": "C2xC2"})


MAKERS = {"classify": _classify, "slices": _slices,
          "algebra": _algebra, "small": _small}


def build(workload, seed, workdir):
    """Write the workload's inputs for this seed into workdir; return its ops."""
    inp = Inputs(workload, seed, workdir)
    MAKERS[workload](inp)
    return inp.ops
