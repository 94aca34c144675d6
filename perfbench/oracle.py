"""Reference mathematics for checking incgrade's outputs.

Nothing here imports incgrade: posets are boolean `leq` matrices, groups
are small explicit multiplication tables, incidence functions are dicts
from comparable pairs to Fractions. Every routine is a direct, slow
construction whose answer the benchmark compares with the CLI's output.
"""

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------- posets

def closure(n, covers):
    """Reflexive-transitive closure of the cover pairs as an n x n matrix."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in covers:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def cover_pairs(leq):
    """The cover relation of a closed order, in lexicographic order."""
    n = len(leq)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and leq[i][j]
            and not any(leq[i][z] and leq[z][j]
                        for z in range(n) if z not in (i, j))]


def comparable_pairs(leq):
    n = len(leq)
    return [(i, j) for i in range(n) for j in range(n) if leq[i][j]]


def components(leq):
    """Connected components under comparability, each sorted, ordered by
    least member."""
    n = len(leq)
    owner = list(range(n))
    for i in range(n):
        for j in range(n):
            if leq[i][j] and owner[i] != owner[j]:
                old, new = max(owner[i], owner[j]), min(owner[i], owner[j])
                owner = [new if c == old else c for c in owner]
    groups = {}
    for i in range(n):
        groups.setdefault(owner[i], []).append(i)
    return [groups[c] for c in sorted(groups)]


def component_owner(leq):
    owner = [0] * len(leq)
    for c, members in enumerate(components(leq)):
        for i in members:
            owner[i] = c
    return owner


def automorphisms(leq):
    """All order automorphisms as permutation tuples, sorted."""
    n = len(leq)
    found = []
    image = []

    def extend(i, used):
        if i == n:
            found.append(tuple(image))
            return
        for j in range(n):
            if j in used:
                continue
            if all(leq[i][k] == leq[j][image[k]] and leq[k][i] == leq[image[k]][j]
                   for k in range(i)):
                image.append(j)
                extend(i + 1, used | {j})
                image.pop()

    extend(0, frozenset())
    return sorted(found)


def maximal_chains(leq):
    """Maximal chains as ascending index tuples, sorted."""
    n = len(leq)
    up = {i: [j for (a, j) in cover_pairs(leq) if a == i] for i in range(n)}
    minimal = [i for i in range(n)
               if not any(leq[j][i] for j in range(n) if j != i)]
    chains = []
    stack = [(i,) for i in minimal]
    while stack:
        chain = stack.pop()
        if up[chain[-1]]:
            stack.extend(chain + (j,) for j in up[chain[-1]])
        else:
            chains.append(chain)
    return sorted(chains)


def longest_chain(leq):
    return max(len(c) for c in maximal_chains(leq))


# ---------------------------------------------------------------- groups

class Group:
    """A small group with the element names the incgrade CLI uses."""

    def __init__(self, names, table):
        self.names = list(names)
        self.table = table
        self.order = len(names)
        self.identity = next(e for e in range(self.order)
                             if all(table[e][a] == a for a in range(self.order)))
        self.inverse = [next(b for b in range(self.order)
                             if table[a][b] == self.identity)
                        for a in range(self.order)]

    def mul(self, a, b):
        return self.table[a][b]

    def index(self, name):
        return self.names.index(name)


def _cyclic(n):
    names = ["1"] + ["h" if k == 1 else f"h^{k}" for k in range(1, n)]
    return Group(names, [[(a + b) % n for b in range(n)] for a in range(n)])


def _cycle_name(perm):
    cycles, seen = [], set()
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        cycles.append(cycle)
    return "".join("(" + "".join(str(v + 1) for v in c) + ")"
                   for c in cycles) or "1"


def _symmetric(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
             for p in perms]
    return Group([_cycle_name(p) for p in perms], table)


def _product(a, b):
    m = b.order
    names = [f"{x}|{y}" for x in a.names for y in b.names]
    table = [[a.table[i // m][k // m] * m + b.table[i % m][k % m]
              for k in range(a.order * m)] for i in range(a.order * m)]
    return Group(names, table)


def group(spec):
    """The groups the benchmark uses: C<n>, S3 and products like C2xC2."""
    built = None
    for part in spec.split("x"):
        atom = _cyclic(int(part[1:])) if part[0] == "C" else _symmetric(int(part[1:]))
        built = atom if built is None else _product(built, atom)
    return built


def grade(grp, theta, x, y):
    return grp.mul(grp.inverse[theta[x]], theta[y])


def component_pairs(leq, grp, theta):
    """Degree -> comparable pairs of that degree, every degree present."""
    out = {g: [] for g in range(grp.order)}
    for x, y in comparable_pairs(leq):
        out[grade(grp, theta, x, y)].append((x, y))
    return out


# ---------------------------------------------------- grading orbits

def _generated(perms, n):
    """The permutation group generated by perms, as a set."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def generators(perms, n):
    """A small generating set of the group formed by perms."""
    gens, span = [], {tuple(range(n))}
    for p in perms:
        if p not in span:
            gens.append(p)
            span = _generated(gens, n)
    return gens


def grading_orbits(leq, grp):
    """Classes of maps theta: P -> G under relabeling by Aut(P) and
    left shifts per connected component, by union-find over all |G|^n maps.

    Returns a function mapping a theta tuple to its class root, and the
    number of classes.
    """
    n = len(leq)
    owner = component_owner(leq)
    k = max(owner) + 1
    auts = generators(automorphisms(leq), n)
    size = grp.order ** n
    parent = list(range(size))
    weights = [grp.order ** (n - 1 - i) for i in range(n)]

    def encode(theta):
        return sum(v * w for v, w in zip(theta, weights))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    shifts = [(c, h) for c in range(k) for h in range(grp.order)
              if h != grp.identity]
    for theta in itertools.product(range(grp.order), repeat=n):
        code = encode(theta)
        for sigma in auts:
            moved = [0] * n
            for i in range(n):
                moved[sigma[i]] = theta[i]
            union(code, encode(moved))
        for c, h in shifts:
            union(code, encode([grp.mul(h, v) if owner[i] == c else v
                                for i, v in enumerate(theta)]))
    classes = sum(1 for a in range(size) if find(a) == a)
    return (lambda theta: find(encode(theta))), classes


def equivalence_witness_ok(leq, grp, theta, mu, shifts, sigma):
    """mu(x) == shifts[c(x)] * theta(sigma^-1(x)) with sigma an automorphism."""
    n = len(leq)
    if sorted(sigma) != list(range(n)):
        return False
    if any(leq[i][j] != leq[sigma[i]][sigma[j]] for i in range(n) for j in range(n)):
        return False
    owner = component_owner(leq)
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v] = i
    return all(mu[x] == grp.mul(shifts[owner[x]], theta[inv[x]]) for x in range(n))


def are_equivalent(leq, grp, theta, mu):
    """Whether some automorphism and per-component shift carry theta to mu."""
    n = len(leq)
    comps = components(leq)
    for sigma in automorphisms(leq):
        moved = [0] * n
        for i in range(n):
            moved[sigma[i]] = theta[i]
        shifts = [grp.mul(mu[c[0]], grp.inverse[moved[c[0]]]) for c in comps]
        if equivalence_witness_ok(leq, grp, theta, mu, shifts, sigma):
            return True
    return False


def monomial_identities(leq, grp, theta, d):
    """Degree words whose monomial x_1...x_m vanishes, m <= d, sorted by
    (length, word)."""
    comps = component_pairs(leq, grp, theta)
    out = []
    for m in range(1, d + 1):
        for word in itertools.product(range(grp.order), repeat=m):
            reach = set(range(len(leq)))
            for g in word:
                reach = {v for (u, v) in comps[g] if u in reach}
            if not reach:
                out.append(word)
    return out


# --------------------------------------------------- identity slices

def rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    basis = []  # (pivot, row)
    for row in rows:
        work = [Fraction(v) for v in row]
        for pivot, prow in basis:
            if work[pivot]:
                factor = work[pivot] / prow[pivot]
                work = [a - factor * b for a, b in zip(work, prow)]
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is not None:
            basis.append((lead, work))
    return len(basis)


def evaluation_rows(leq, grp, theta, multidegree):
    """Distinct nonzero rows of the evaluation map of one multidegree.

    A row belongs to one substitution of basis pairs and one output pair;
    its entries mark the monomials x_{p(1)}...x_{p(m)} (permutations p of
    the variables in lexicographic order) whose product of basis elements
    is that output. Only substitutions that chain in some order give
    nonzero rows, so they are found by walking chains.
    """
    comps = component_pairs(leq, grp, theta)
    m = len(multidegree)
    perms = list(itertools.permutations(range(m)))
    hits = {}  # (substitution, output) -> set of permutation indices
    for idx, perm in enumerate(perms):
        def walk(step, cur, chosen):
            if step == m:
                sub = tuple(chosen[v] for v in range(m))
                start = chosen[perm[0]][0]
                hits.setdefault((sub, (start, cur)), set()).add(idx)
                return
            var = perm[step]
            for (u, v) in comps[multidegree[var]]:
                if cur is None or u == cur:
                    chosen[var] = (u, v)
                    walk(step + 1, v, chosen)
            chosen.pop(var, None)
        walk(0, None, {})
    rows = {tuple(1 if i in s else 0 for i in range(len(perms)))
            for s in hits.values()}
    return sorted(rows)


def slice_dimension(rows, m):
    return math.factorial(m) - rank(rows)


# -------------------------------------------------- incidence algebra

def convolve(leq, f, g):
    n = len(leq)
    out = {}
    for (x, z), a in f.items():
        for y in range(n):
            b = g.get((z, y))
            if b:
                out[(x, y)] = out.get((x, y), Fraction(0)) + a * b
    return {p: v for p, v in out.items() if v}


def invert(leq, f):
    """Convolution inverse by back-substitution from the top of each interval."""
    n = len(leq)
    inv = {}
    pairs = sorted(comparable_pairs(leq),
                   key=lambda p: sum(1 for z in range(n) if leq[p[0]][z] and leq[z][p[1]]))
    for x, y in pairs:
        if x == y:
            inv[(x, y)] = 1 / f[(x, x)]
            continue
        acc = sum((f.get((x, z), 0) * inv.get((z, y), 0)
                   for z in range(n) if z != x and leq[x][z] and leq[z][y]),
                  Fraction(0))
        inv[(x, y)] = -acc / f[(x, x)]
    return {p: v for p, v in inv.items() if v}


def automorphism_images(leq, r, s, sigma):
    """Images of every basis element e_xy under inner(r) . mult(s) .
    induced(sigma): r * s(u, v) e_uv * r^-1 with (u, v) = (sigma x, sigma y)."""
    r_inv = invert(leq, r)
    images = {}
    for x, y in comparable_pairs(leq):
        u, v = sigma[x], sigma[y]
        scaled = {(u, v): Fraction(s[(u, v)])}
        images[(x, y)] = convolve(leq, convolve(leq, r, scaled), r_inv)
    return images


def mobius_ok(leq, mu):
    """mu(x, x) = 1 and the sum of mu(x, z) over x <= z <= y is 0 for x < y,
    with mu supported on comparable pairs."""
    n = len(leq)
    if any(not leq[x][y] for (x, y) in mu):
        return False
    for x, y in comparable_pairs(leq):
        total = sum((mu.get((x, z), 0) for z in range(n)
                     if leq[x][z] and leq[z][y]), Fraction(0))
        if total != (1 if x == y else 0):
            return False
    return True
