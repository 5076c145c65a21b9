"""Invariant derivations on the character ring.

The pseudo-Casimir D_A scales each lattice exponential e^mu by A(mu, mu);
the biderivation it induces, M_A(f, g) = D(fg) - f D(g) - D(f) g, is a
polynomial in the fundamental characters, and the matrix of M_A on those
characters generates all W-invariant derivations.  Entries are computed
in a q-evaluation shadow, on integers: with G_k^i the nu_k-weighted
q-image of f_i and A the datum's integer form, H_k^j = sum_l A[k][l]
G_l^j is built once per j, so M(f_i, f_j) = sum_k G_k^i H_k^j takes r
convolutions instead of r^2, each one integer product by Kronecker
substitution (charring.qdot).  The sum is converted by leading-term
elimination, whose monomial images all lead with coefficient 1.  One
orbit walk per fundamental character gives both its G_k^i and the plain
q-image the elimination reads.  The literal character-ring route, the
Casimir route and the r^2 rational route live in the tests, as
cross-checks.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .algsolve import CertificateError, FieldElement
from .charring import (
    DEFAULT_ORBIT_CAP,
    OrbitCapError,
    QevalContext,
    fundamental_characters,
    orbit_count,
    qdot,
    qsum,
)
from .polynomials import Poly, qq
from .rootdata import EnumerationCapError, RootDatum

CACHE_ENV = "CHARBOUNDS_CACHE"
CACHE_VERSION = "charbounds-matrix/1"
DEFAULT_RANK_CAP = 6


@dataclass(frozen=True)
class DerivationMatrix:
    datum: RootDatum
    entries: tuple        # r x r of Poly in f_1..f_r
    cache_hit: bool

    def entry(self, i, j):
        return self.entries[i][j]

    def to_json(self):
        datum = self.datum
        r = datum.rank
        return {
            "version": CACHE_VERSION,
            "datum": datum.name(),
            "hash": datum.content_hash(),
            "form_A": _form_json(datum),
            "entries": [
                [i, j, self.entries[i][j].to_json()]
                for i in range(r)
                for j in range(i, r)
            ],
        }


def _form_json(datum):
    return [[str(x) for x in row] for row in datum.form_A]


def _cache_path(datum, cache_dir):
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir is None:
        cache_dir = os.path.join(
            os.path.expanduser("~"), ".cache", "charbounds"
        )
    return os.path.join(cache_dir, "matrix-%s.json" % datum.content_hash())


def _load_cache(datum, path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    # valid JSON that is not an object is a miss like any other bad file
    if not isinstance(data, dict):
        return None
    if data.get("version") != CACHE_VERSION:
        return None
    if data.get("hash") != datum.content_hash():
        return None
    # the hash does not cover form_A, which a replaced datum may change
    if data.get("form_A") != _form_json(datum):
        return None
    r = datum.rank
    try:
        grid = [[None] * r for _ in range(r)]
        for i, j, terms in data["entries"]:
            p = Poly.from_json(r, terms)
            grid[i][j] = p
            grid[j][i] = p
        if any(e is None for row in grid for e in row):
            return None
        return tuple(tuple(row) for row in grid)
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def _store_cache(m, path):
    """Best-effort: a cache that cannot be written is left as it is."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(m.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def is_cached(datum, cache_dir=None):
    """True when the cache holds a valid matrix for the datum."""
    return _load_cache(datum, _cache_path(datum, cache_dir)) is not None


def derivation_matrix(
    datum,
    cache_dir=None,
    rank_cap=DEFAULT_RANK_CAP,
    allow_large=False,
):
    """The full matrix M[i][j] = M_A(f_i, f_j), disk-cached by datum hash."""
    if datum.rank > rank_cap and not allow_large:
        raise EnumerationCapError(
            "derivation matrix for rank %d refused (cap %d); pass the "
            "long-running flag to override" % (datum.rank, rank_cap)
        )
    # one entry serves (i, j) and (j, i): M_A is symmetric when A is
    A = datum.form_A
    if any(A[i][j] != A[j][i] for i in range(datum.rank) for j in range(i)):
        raise CertificateError("form_A of %s is not symmetric" % datum.name())
    # every q-coefficient is an integer when A is
    if any(a.denominator != 1 for row in A for a in row):
        raise CertificateError("form_A of %s is not integral" % datum.name())
    path = _cache_path(datum, cache_dir)
    entries = _load_cache(datum, path)
    if entries is not None:
        return DerivationMatrix(datum, entries, cache_hit=True)
    m = DerivationMatrix(datum, _entries_qeval(datum), cache_hit=False)
    _store_cache(m, path)
    return m


def _entries_qeval(datum):
    r = datum.rank
    tops = []
    for i in range(r):
        for j in range(i, r):
            w = tuple(
                a + b
                for a, b in zip(datum.fundamental_weights[i], datum.fundamental_weights[j])
            )
            tops.append(w)
    ctx = QevalContext(datum, sorted(set(tops)))
    # the products f_i f_j expand the orbits of every weight in the cone:
    # refuse before building any character
    weights = orbit_count(datum, ctx.cone)
    if weights > DEFAULT_ORBIT_CAP:
        raise OrbitCapError(
            "derivation matrix of %s refused: %d weights in the orbits of "
            "its cone, more than the orbit cap %d"
            % (datum.name(), weights, DEFAULT_ORBIT_CAP)
        )
    # nu_k-weighted q-images G_k^i of every fundamental character, and
    # H_k^j = sum_l A[k][l] G_l^j, so M(f_i, f_j) = sum_k G_k^i * H_k^j;
    # the same walk gives the plain q-images that ctx.solve reads
    plain, weighted = zip(*map(ctx.weighted_qpolys, fundamental_characters(datum)))
    ctx.fund_qpolys = list(plain)
    A = datum.form_A
    paired = [[qsum(A[k], weighted[j]) for k in range(r)] for j in range(r)]
    grid = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            poly = Poly(r, ctx.solve(qdot(weighted[i], paired[j])))
            grid[i][j] = poly
            grid[j][i] = poly
    return tuple(tuple(row) for row in grid)


def sigma_matrix(m):
    """M with rows permuted by -w0; equals M when -1 is in the Weyl group."""
    perm = m.datum.minus_w0
    entries = tuple(m.entries[perm[i]] for i in range(m.datum.rank))
    return DerivationMatrix(m.datum, entries, m.cache_hit)


def permute_variables(poly, perm):
    """sigma acting on T/W coordinates: f_i -> f_{perm(i)}."""
    out = {}
    for mono, c in poly.terms.items():
        key = tuple(mono[perm[i]] for i in range(len(mono)))
        out[key] = c
    return Poly(poly.nvars, out)


def evaluate_matrix(m, point):
    """Evaluate every entry at exact coordinates, rationals or elements of
    one number field; returns a list of lists of field elements."""
    lift = next(
        (x.field.from_rational for x in point if isinstance(x, FieldElement)), qq
    )
    vals = [x if isinstance(x, FieldElement) else lift(x) for x in point]
    # M holds one Poly for (i, j) and (j, i): evaluate each Poly once
    values = {}
    for row in m.entries:
        for e in row:
            if id(e) not in values:
                values[id(e)] = e.evaluate(vals, convert=lift)
    return [[values[id(e)] for e in row] for row in m.entries]
