"""Edge-perspective degree distributions and the catalog of named profiles."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "DegreeDistribution",
    "CatalogEntry",
    "parse_polynomial",
    "design_rate",
    "parse_catalog",
    "load_catalog",
]

_TERM_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*x(?:\s*\^\s*(\d+))?\s*$")

NORMALIZATION_TOL = 1e-3


@dataclass(frozen=True)
class DegreeDistribution:
    """Variable (lambda) and check (rho) edge fractions keyed by node degree.

    Terms are (node_degree, fraction) pairs with node_degree = exponent + 1;
    the catalog text keeps the exponent convention.  Fractions on each side
    sum to one (renormalized at parse time when within tolerance).
    """

    lambda_terms: tuple[tuple[int, float], ...]
    rho_terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for name, terms in (("lambda", self.lambda_terms), ("rho", self.rho_terms)):
            if not terms:
                raise ValueError(f"{name} side has no terms")
            degrees = [d for d, _ in terms]
            if sorted(degrees) != degrees or len(set(degrees)) != len(degrees):
                raise ValueError(f"{name} degrees must be strictly increasing")
            if any(d < 2 for d in degrees):
                raise ValueError(f"{name} node degrees must be >= 2")
            if any(not 0.0 < f <= 1.0 for _, f in terms):
                raise ValueError(f"{name} fractions must lie in (0, 1]")
            total = sum(f for _, f in terms)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"{name} fractions sum to {total}, expected 1")


@dataclass(frozen=True)
class CatalogEntry:
    code_id: str
    dist: DegreeDistribution
    one_minus_r2: float


def _normalized(terms: list[tuple[int, float]], side: str) -> tuple[tuple[int, float], ...]:
    total = sum(f for _, f in terms)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{side} fractions sum to {total:.6f}, off by more than {NORMALIZATION_TOL}")
    return tuple((d, f / total) for d, f in sorted(terms))


def parse_polynomial(text: str) -> tuple[tuple[int, float], ...]:
    """Parse "c1 x^e1 + c2 x^e2 + ..." into (node_degree, fraction) pairs.

    The text uses exponents; stored degrees are exponent + 1 (a term c x^e
    belongs to nodes of degree e+1).  Bare "x" means exponent 1.
    """
    terms: list[tuple[int, float]] = []
    for chunk in text.split("+"):
        if not chunk.strip():
            continue
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse polynomial term {chunk.strip()!r}")
        coeff = float(m.group(1))
        exponent = int(m.group(2)) if m.group(2) is not None else 1
        terms.append((exponent + 1, coeff))
    if not terms:
        raise ValueError("empty polynomial")
    return tuple(sorted(terms))


def design_rate(dist: DegreeDistribution) -> float:
    """1 - (sum rho_i/i) / (sum lambda_i/i); the code rate the profile aims at."""
    lam = sum(f / d for d, f in dist.lambda_terms)
    rho = sum(f / d for d, f in dist.rho_terms)
    rate = 1.0 - rho / lam
    if not 0.0 < rate < 1.0:
        raise ValueError(f"design rate {rate} outside (0, 1)")
    return rate


def parse_catalog(text: str) -> dict[str, CatalogEntry]:
    """Parse catalog blocks: code <id> / lambda: ... / rho: ... / one_minus_r2: ..."""
    entries: dict[str, CatalogEntry] = {}
    current: dict[str, str] = {}

    def flush():
        if not current:
            return
        for key in ("code", "lambda", "rho", "one_minus_r2"):
            if key not in current:
                raise ValueError(f"catalog entry {current.get('code', '?')!r} missing {key!r}")
        dist = DegreeDistribution(
            _normalized(list(parse_polynomial(current["lambda"])), "lambda"),
            _normalized(list(parse_polynomial(current["rho"])), "rho"),
        )
        code_id = current["code"]
        if code_id in entries:
            raise ValueError(f"duplicate catalog id {code_id!r}")
        entries[code_id] = CatalogEntry(code_id, dist, float(current["one_minus_r2"]))
        current.clear()

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("code "):
            flush()
            current["code"] = line.split(None, 1)[1].strip()
        elif ":" in line:
            key, value = line.split(":", 1)
            current[key.strip()] = value.strip()
        else:
            raise ValueError(f"unrecognized catalog line: {raw!r}")
    flush()
    return entries


def load_catalog() -> dict[str, CatalogEntry]:
    text = resources.files("wzkit.data").joinpath("catalog.txt").read_text("utf-8")
    return parse_catalog(text)
