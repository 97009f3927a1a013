"""Output checks that do not trust the package under test.

Every map is rebuilt here from its coefficient arrays and evaluated with
plain numpy, in homogeneous coordinates so that infinity needs no special
case. Each check either returns the amount of work the operation delivered
(rays, cells, curve lifts or periodic points) or raises CheckFailed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

CHORDAL_TOL = 1e-7  # ray landings are reported to 1e-6 in the plane
SAMPLE_TOL = 1e-8  # one backward fiber step of a ray sample
CYCLE_TOL = 1e-9  # reported basin cycle points
NEWTON_BOUND = 1e-9  # Newton distance of a periodic point, relative to 1 + |z|
DISTINCT_TOL = 1e-8  # two periodic points closer than this are one point
BASE_CURVE_TOL = 1e-9  # lift vertices pushed forward onto the base polygon
CELL_AGREEMENT = 0.99  # share of re-iterated sample cells matching the image
CELL_SAMPLE = 256
PAPER_G_ALPHA = (-1.0 - math.sqrt(17.0)) / 4.0  # landing of R_1/3 and R_2/3


class CheckFailed(Exception):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# --- maps on the sphere -----------------------------------------------------


def _pair(x) -> tuple[complex, complex]:
    """JSON point ('inf' or [re, im]) -> normalized homogeneous pair."""
    if x == "inf":
        return 1 + 0j, 0j
    z = complex(x[0], x[1])
    s = max(1.0, abs(z))
    return z / s, 1.0 / s


def chordal(z1, w1, z2, w2):
    """Chordal distance between homogeneous points (array-friendly)."""
    n1 = np.sqrt(np.abs(z1) ** 2 + np.abs(w1) ** 2)
    n2 = np.sqrt(np.abs(z2) ** 2 + np.abs(w2) ** 2)
    return 2.0 * np.abs(z1 * w2 - z2 * w1) / (n1 * n2)


class Map:
    """f = num/den from ascending coefficient arrays, as `catalog --coeffs`
    prints them."""

    def __init__(self, num, den):
        num = np.array([complex(a, b) for a, b in num])
        den = np.array([complex(a, b) for a, b in den])
        self.degree = max(len(num), len(den)) - 1
        self.num = np.zeros(self.degree + 1, dtype=complex)
        self.den = np.zeros(self.degree + 1, dtype=complex)
        self.num[:len(num)] = num
        self.den[:len(den)] = den
        # local degree of the fixed point at infinity, when it is one
        self.m_inf = (len(num) - 1) - (len(den) - 1)
        self._dnum = np.polynomial.polynomial.polyder(self.num)
        self._dden = np.polynomial.polynomial.polyder(self.den)

    def hom(self, z, w):
        """Homogeneous image (P(z, w), Q(z, w)), renormalized to max modulus 1."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        p = np.zeros_like(z)
        q = np.zeros_like(z)
        for k in range(self.degree, -1, -1):
            wk = w ** (self.degree - k)
            p = p * z + self.num[k] * wk
            q = q * z + self.den[k] * wk
        s = np.maximum(np.abs(p), np.abs(q))
        s = np.where(s == 0.0, 1.0, s)
        return p / s, q / s

    def of_complex(self, z):
        """Homogeneous image of finite points given as complex numbers."""
        z = np.asarray(z, dtype=complex)
        s = np.maximum(1.0, np.abs(z))
        return self.hom(z / s, 1.0 / s)

    def newton_distance(self, z0: complex, period: int) -> float:
        """|f^p(z) - z| / |(f^p)'(z) - 1| along the finite orbit of z0."""
        ev = np.polynomial.polynomial.polyval
        z, der = z0, 1.0 + 0j
        for _ in range(period):
            nv, dv = ev(z, self.num), ev(z, self.den)
            der *= (ev(z, self._dnum) * dv - nv * ev(z, self._dden)) / (dv * dv)
            z = nv / dv
        return abs(z - z0) / abs(der - 1.0)


def chordal_complex(a, b) -> float:
    s_a, s_b = max(1.0, abs(a)), max(1.0, abs(b))
    return float(chordal(a / s_a, 1.0 / s_a, b / s_b, 1.0 / s_b))


def _image_distance(f: Map, a: complex, b: complex) -> float:
    """Chordal distance between f(a) and b."""
    fz, fw = f.of_complex(a)
    s = max(1.0, abs(b))
    return float(chordal(fz, fw, b / s, 1.0 / s))


# --- rays -------------------------------------------------------------------


def _angle(text: str) -> Fraction:
    fr = Fraction(text)
    return fr - math.floor(fr)


def check_ray(doc: dict, f: Map, map_name: str, angles, samples: bool,
              colanding: bool) -> int:
    """Landing functoriality, co-landing where the map's combinatorics give
    it and, for `paper-g`, closed forms."""
    wanted = [_angle(a) for a in angles]
    got = [_angle(r["angle"]) for r in doc["rays"]]
    require(got == wanted, f"rays {got} for requested angles {wanted}")
    m = f.m_inf
    require(m >= 2, "infinity is not a superattracting fixed point")
    land = {}
    for t, r in zip(got, doc["rays"]):
        require(r["landed"] and r["landing"] is not None, f"ray {t} did not land")
        land[t] = complex(*r["landing"])
    for t, z in land.items():
        mt = (m * t) % 1
        if mt in land:
            err = _image_distance(f, z, land[mt])
            require(err < CHORDAL_TOL, f"f(landing {t}) misses landing {mt} by {err:.3g}")
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    if colanding and third in land and two_thirds in land:
        gap = chordal_complex(land[third], land[two_thirds])
        require(gap < CHORDAL_TOL, f"1/3 and 2/3 do not co-land (gap {gap:.3g})")
    sixth, five_sixths = Fraction(1, 6), Fraction(5, 6)
    if colanding and sixth in land and five_sixths in land and m == 2:
        # both map to the common landing point of 1/3 and 2/3, a fixed point
        a, b = f.of_complex(land[sixth]), f.of_complex(land[five_sixths])
        err = float(chordal(a[0], a[1], b[0], b[1]))
        require(err < CHORDAL_TOL, f"f(landing 1/6) != f(landing 5/6) by {err:.3g}")
        fa = f.hom(*a)
        err = float(chordal(fa[0], fa[1], a[0], a[1]))
        require(err < CHORDAL_TOL, f"f(landing 1/6) is not fixed ({err:.3g})")
        if map_name == "paper-g":
            err = float(chordal(a[0], a[1], PAPER_G_ALPHA, 1.0))
            require(err < CHORDAL_TOL, f"f(landing 1/6) misses (-1-sqrt 17)/4 by {err:.3g}")
            require(chordal_complex(land[sixth], land[five_sixths]) > 1e-3,
                    "1/6 and 5/6 land at one point")
    if map_name == "paper-g":
        closed = {Fraction(0): 2.0, third: PAPER_G_ALPHA, two_thirds: PAPER_G_ALPHA}
        for t, want in closed.items():
            if t in land:
                err = chordal_complex(land[t], want)
                require(err < CHORDAL_TOL, f"paper-g landing {t} off closed form by {err:.3g}")
    if samples:
        _check_samples(doc, f, got, m)
    return len(got)


def _check_samples(doc: dict, f: Map, angles, m: int):
    """Sample q of ray t maps onto sample q - s of ray m t, s = sublevels."""
    chains = {}
    for t, r in zip(angles, doc["rays"]):
        zs = np.array([complex(a, b) for a, b in r["samples"]])
        pots = np.array(r["potentials"])
        require(len(zs) == len(pots) and len(zs) > 1, f"ray {t}: bad sample chain")
        chains[t] = (zs, pots, r["potential_sublevels"])
    for t, (zs, pots, s) in chains.items():
        mt = (m * t) % 1
        if mt not in chains:
            continue
        tz, tp, _ = chains[mt]
        n = min(len(zs), len(tz) + s)
        fz, fw = f.of_complex(zs[s:n])
        tgt = tz[:n - s]
        sc = np.maximum(1.0, np.abs(tgt))
        err = chordal(fz, fw, tgt / sc, 1.0 / sc).max()
        require(err < SAMPLE_TOL, f"ray {t}: sample functoriality off by {err:.3g}")
        rel = np.abs(pots[s:n] ** m / tp[:n - s] - 1.0).max()
        require(rel < 1e-9, f"ray {t}: potentials do not scale by {m} ({rel:.3g})")


# --- basins -----------------------------------------------------------------


def read_ppm(path, width: int, height: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    require(data.startswith(header), "PPM header does not match the resolution")
    require(len(data) == len(header) + 3 * width * height, "PPM has the wrong size")
    return np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(height, width, 3)


def colour_classes(img: np.ndarray) -> np.ndarray:
    """Small integer per distinct colour, -1 for black (unresolved)."""
    packed = (img[..., 0].astype(np.int32) << 16) | (img[..., 1].astype(np.int32) << 8) \
        | img[..., 2].astype(np.int32)
    _, cls = np.unique(packed, return_inverse=True)
    cls = cls.reshape(packed.shape).astype(np.int32)
    black = packed == 0
    if black.any():
        cls[black] = -1
    return cls


def count_components(cls: np.ndarray) -> int:
    """4-connected components of equal non-negative class, by union-find with
    vectorized hooking and pointer jumping."""
    h, w = cls.shape
    flat = cls.ravel()
    idx = np.arange(h * w, dtype=np.int32).reshape(h, w)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    keep = (flat[a] == flat[b]) & (flat[a] >= 0)
    a, b = a[keep], b[keep]
    parent = np.arange(h * w, dtype=np.int32)
    while True:
        ra, rb = parent[a], parent[b]
        diff = ra != rb
        if not diff.any():
            break
        np.minimum.at(parent, np.maximum(ra[diff], rb[diff]), np.minimum(ra[diff], rb[diff]))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return int(np.unique(parent[flat >= 0]).size)


def scipy_components(cls: np.ndarray):
    """Same count by scipy.ndimage.label per colour class, or None."""
    try:
        from scipy import ndimage
    except ImportError:
        return None
    return sum(int(ndimage.label(cls == c)[1]) for c in np.unique(cls) if c >= 0)


def check_render(doc: dict, f: Map, cls: np.ndarray, bounds, rng) -> int:
    """Counts from the image, cycle dynamics and a re-iterated cell sample."""
    h, w = cls.shape
    require(doc["resolution"] == [w, h], "resolution differs from the request")
    require(int((cls < 0).sum()) == doc["unresolved_cells"],
            "black pixels differ from unresolved_cells")
    comps = count_components(cls)
    require(comps == doc["components"],
            f"components {doc['components']} but the image has {comps}")
    cycles = [[_pair(p) for p in cyc] for cyc in doc["cycles"]]
    require(cycles, "no cycles reported")
    for cyc in cycles:
        for i, (z, wz) in enumerate(cyc):
            nz, nw = cyc[(i + 1) % len(cyc)]
            fz, fw = f.hom(z, wz)
            err = float(chordal(fz, fw, nz, nw))
            require(err < CYCLE_TOL, f"cycle point does not map to the next ({err:.3g})")
    _check_cells(f, cls, bounds, cycles, rng)
    return w * h


def _check_cells(f: Map, cls, bounds, cycles, rng, trap: float = 1e-6,
                 max_iter: int = 200):
    """Iterate a seeded sample of cell centres to the trap disks; the class
    each reaches must match the image colour for CELL_AGREEMENT of them."""
    h, w = cls.shape
    xmin, xmax, ymin, ymax = bounds
    rows = rng.integers(0, h, CELL_SAMPLE)
    cols = rng.integers(0, w, CELL_SAMPLE)
    z0 = (xmin + (cols + 0.5) * (xmax - xmin) / w) + 1j * (ymax - (rows + 0.5) * (ymax - ymin) / h)
    s = np.maximum(1.0, np.abs(z0))
    z, wz = z0 / s, 1.0 / s + 0j
    found = np.full(CELL_SAMPLE, -1)
    traps = [(k, cz, cw) for k, (cz, cw) in enumerate(p for cyc in cycles for p in cyc)]
    for n in range(max_iter + 1):
        for k, cz, cw in traps:
            found = np.where((found < 0) & (chordal(z, wz, cz, cw) <= trap), k, found)
        if n < max_iter:
            z, wz = f.hom(z, wz)
    colour = cls[rows, cols]
    agree = int((colour[found < 0] < 0).sum())
    seen = set()  # the colour each trap's cells mostly carry
    for k in range(len(traps)):
        sel = found == k
        if not sel.any():
            continue
        vals, counts = np.unique(colour[sel], return_counts=True)
        c = int(vals[counts.argmax()])
        require(c not in seen, "two cycle points share one colour")
        seen.add(c)
        if c >= 0:
            agree += int(counts.max())
    share = agree / CELL_SAMPLE
    require(share >= CELL_AGREEMENT, f"only {share:.3f} of sampled cells match the image")


# --- lifts ------------------------------------------------------------------


def _cycle(perm, s0) -> list:
    out, s = [s0], perm[s0]
    while s != s0:
        out.append(s)
        s = perm[s]
    return out


def _polygon(center: complex, radius: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return center + radius * np.exp(2j * np.pi * k / n)


def _polyline_distance(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polyline."""
    a = verts[None, :]
    ab = np.roll(verts, -1)[None, :] - a
    p = pts[:, None]
    t = np.clip(((p - a) * ab.conj()).real / np.abs(ab) ** 2, 0.0, 1.0)
    return np.abs(p - (a + t * ab)).min(axis=1)


def _winding(verts: np.ndarray, p: complex) -> int:
    d = verts - p
    turn = np.angle(np.roll(d, -1) / d).sum()
    return int(round(turn / (2 * math.pi)))


def _orientation(verts: np.ndarray) -> int:
    area = (verts.real * np.roll(verts.imag, -1) - np.roll(verts.real, -1) * verts.imag).sum()
    return 1 if area > 0 else -1


def check_lift(doc: dict, f: Map, center: complex, radius: float, segments: int,
               omega) -> int:
    """Degrees against the monodromy, vertices against the base polygon,
    signs against an independent winding count."""
    d = f.degree
    lifts = doc["lifts"]
    require(doc["total_degree"] == d and sum(l["degree"] for l in lifts) == d,
            "lift degrees do not sum to the map degree")
    perm = doc["monodromy"]
    require(sorted(perm) == list(range(d)), "monodromy is not a permutation")
    cycles = [frozenset(_cycle(perm, l["strand"])) for l in lifts]
    require(all(len(c) == l["degree"] for c, l in zip(cycles, lifts))
            and len(set(cycles)) == len(lifts),
            "monodromy cycles differ from the lift degrees")
    base = _polygon(center, radius, segments)
    per_degree = {len(l["vertices"]) / l["degree"] for l in lifts}
    require(len(per_degree) == 1, "lifts do not share one refined base")
    for l in lifts:
        verts = np.array([complex(a, b) for a, b in l["vertices"]])
        fz, fw = f.of_complex(verts)
        require(np.all(np.abs(fw) > 0), "a lift vertex maps to infinity")
        err = _polyline_distance(fz / fw, base).max()
        require(err < BASE_CURVE_TOL * (1.0 + abs(center) + radius),
                f"lift vertex off the base polygon by {err:.3g}")
        wind = 0 if omega is None else _winding(verts, omega)
        require(abs(wind) <= 1, "lift winds more than once around omega")
        want = _orientation(verts) * (1 if wind == 0 else -1)
        require(l["sign"] == want, f"lift sign {l['sign']}, winding count gives {want}")
    return 1


def check_tower(doc: dict, f: Map, steps: int, omega_at_infinity: bool) -> int:
    """Sign bookkeeping along an iterated lift, and the dichotomy at infinity."""
    signs = doc["signs"]
    require(len(signs) == steps and len(doc["outermost_counts"]) == steps,
            "tower length differs from --steps")
    require(all(s in (-1, 1) for s in [doc["base_sign"]] + signs), "sign outside +-1")
    require(all(1 <= c <= f.degree for c in doc["outermost_counts"]),
            "outermost count outside 1..d")
    prev = [doc["base_sign"]] + signs[:-1]
    changes = sum(a != b for a, b in zip(prev, signs))
    require(doc["sign_changes"] == changes,
            f"sign_changes {doc['sign_changes']} but the signs change {changes} times")
    if omega_at_infinity:
        require(changes == 0, "sign changes with omega in the fixed basin")
    return steps


# --- periodic points --------------------------------------------------------


def check_periodic(doc: dict, f: Map, period: int) -> int:
    """d^p + 1 simple points, each a Newton-certified fixed point of f^p,
    the set invariant under f, minimal periods dividing p."""
    n = f.degree ** period + 1
    pts = doc["points"]
    require(doc["count"] == n, f"count {doc['count']}, expected {n}")
    mults = sorted({p["multiplicity"] for p in pts})
    require(mults == [1] and len(pts) == n,
            f"{len(pts)} points with multiplicities {mults}; a hyperbolic map has "
            f"{n} simple ones")
    hz = np.array([_pair(p["point"]) for p in pts])
    z, w = hz[:, 0], hz[:, 1]
    dist = chordal(z[:, None], w[:, None], z[None, :], w[None, :])
    np.fill_diagonal(dist, np.inf)
    require(dist.min() > DISTINCT_TOL, "two reported points coincide")
    worst = 0.0
    for p in pts:
        if p["point"] != "inf":
            zc = complex(*p["point"])
            worst = max(worst, f.newton_distance(zc, period) / (1.0 + abs(zc)))
    require(worst < NEWTON_BOUND, f"Newton distance {worst:.3g} above {NEWTON_BOUND:g}")
    fz, fw = f.hom(z, w)
    img = chordal(fz[:, None], fw[:, None], z[None, :], w[None, :]).min(axis=1)
    require(img.max() < 1e-6, f"f moves a point off the set by {img.max():.3g}")
    for i, p in enumerate(pts):
        q = p["minimal_period"]
        require(q >= 1 and period % q == 0, f"minimal period {q} does not divide {period}")
        a, b = z[i], w[i]
        for _ in range(q):
            a, b = f.hom(a, b)
        err = float(chordal(a, b, z[i], w[i]))
        require(err < 1e-6, f"point does not return after its minimal period ({err:.3g})")
    return n
