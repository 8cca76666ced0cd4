"""End-to-end build pipeline with deterministic, content-addressed artifacts.

A run is described by a single JSON config (schema-validated).  Stages
execute in a fixed canonical order, each writing its artifacts, and the
manifest, through `jsonio.dumps` (compact canonical JSON: sorted keys, no
whitespace) so that reruns with the same config produce byte-identical
files.  The 3-XOR instance is the one text artifact.  The manifest links
every artifact path to its sha256 and inlines the headline numbers so that
report rendering never recomputes anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import string
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .csp import certify_unsat, emit_lin_instance, reduce_to_3xor, sos_level_bound
from .errors import ArtifactError, DomainError, MissingArtifact
from .expander import (
    CayleyMultigraph,
    default_generators,
    group_order,
    spectral_expansion,
)
from .gf import _supported_prime
from .inner import search_inner_pair
from .jsonio import dumps, read_artifact
from .tanner import (
    CONVENTIONS,
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_SSEXP_EXHAUSTIVE,
    SquareCayleyComplex,
    build_code,
    check_counting_bound,
    code_dimension,
    estimate_distance,
    estimate_ssexp,
    verify_planted,
)

import numpy as np

STAGE_DEPS = {
    "expander": (),
    "inner": (),
    "complex": ("expander",),
    "code": ("complex", "inner"),
    "verify": ("code",),
    "distance": ("code",),
    "ssexp": ("code",),
    "csp": ("code",),
}

PIPELINE_STAGES = tuple(STAGE_DEPS)  # the canonical order

DEFAULT_STAGES = tuple(s for s in PIPELINE_STAGES if s != "distance")

DEFAULT_BUDGETS = {
    "inner_candidates": 200,
    "falsify_trials": 400,
    "exact_certify": 2**14,
    "distance_budget": DEFAULT_DISTANCE_BUDGET,
    "distance_trials": 32,
    "ssexp_trials": 150,
    "ssexp_exhaustive": DEFAULT_SSEXP_EXHAUSTIVE,
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["field_p", "group", "delta", "k_a", "k_b"],
    "additionalProperties": False,
    "properties": {
        "field_p": {"type": "integer", "minimum": 2},
        "group": {
            "type": "object",
            "required": ["p", "m"],
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer", "minimum": 2},
                "m": {"type": "integer", "minimum": 1},
            },
        },
        "delta": {"type": "integer", "minimum": 3},
        "k_a": {"type": "integer", "minimum": 1},
        "k_b": {"type": "integer", "minimum": 1},
        "rho_target": {"type": ["number", "string"]},
        "seed": {"type": "integer", "minimum": 0},
        "convention": {"enum": list(CONVENTIONS)},
        "require_generation": {"type": "boolean"},
        "out_dir": {"type": "string"},
        "stages": {
            "type": "array",
            "items": {"enum": list(PIPELINE_STAGES)},
            "uniqueItems": True,
            "minItems": 1,
        },
        "ssexp_grid": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "minItems": 1,
        },
        "budgets": {
            "type": "object",
            "additionalProperties": False,
            # past int64 a count is no iteration budget (itertools.islice refuses it)
            "properties": dict.fromkeys(
                DEFAULT_BUDGETS, {"type": "integer", "minimum": 1, "maximum": 2**63 - 1}
            ),
        },
    },
}


def _round(x) -> float | None:
    return None if x is None else round(float(x), 12)


def stage_seed(root_seed: int, label: str) -> int:
    """Split one root seed into independent per-stage seeds by label."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _positive_rational(value) -> Fraction:
    try:
        rho = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        rho = None
    if rho is None or rho <= 0:
        raise DomainError(f"rho_target must be a positive rational, got {value!r}")
    return rho


@lru_cache(maxsize=1)
def _config_validator():
    """CONFIG_SCHEMA's validator, checked against its metaschema once.
    jsonschema loads here, on the first config, not with the module."""
    from jsonschema.validators import validator_for

    cls = validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline parameters.

    The congruence-group prime is independent of the code field: the
    flagship run pairs a 27-element group (prime 3) with binary inner
    codes so that the block length 27 * delta^2 stays coprime to 2.
    """

    field_p: int
    group_p: int
    group_m: int
    delta: int
    k_a: int
    k_b: int
    rho_target: Fraction = Fraction(1, 8)
    seed: int = 0
    convention: str = "paired"
    require_generation: bool = False
    out_dir: str = "run-artifacts"
    stages: tuple[str, ...] = DEFAULT_STAGES
    ssexp_grid: tuple[float, ...] | None = None
    budgets: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return group_order(self.group_p, self.group_m) * self.delta**2

    def budget(self, key: str) -> int:
        return self.budgets.get(key, DEFAULT_BUDGETS[key])

    @classmethod
    def from_mapping(cls, doc: dict) -> "RunConfig":
        from jsonschema.exceptions import best_match

        error = best_match(_config_validator().iter_errors(doc))
        if error is not None:  # the error `jsonschema.validate` would raise
            raise DomainError(f"config schema violation: {error.message}")
        for name, value in (("field_p", doc["field_p"]), ("group p", doc["group"]["p"])):
            if not _supported_prime(value):
                raise DomainError(f"{name} must be a prime up to 2^16, got {value}")
        # A is a planted code of dimension k_a <= delta, B a sum-zero code,
        # whose dimension is at most delta - 1
        if doc["k_a"] > doc["delta"] or doc["k_b"] >= doc["delta"]:
            raise DomainError("inner dimensions need k_a <= delta and k_b <= delta - 1")
        # every other key is stored as given, every absent one takes its default
        convert = {
            "rho_target": _positive_rational,
            "stages": tuple,
            "ssexp_grid": tuple,
            "budgets": dict,
        }
        values = {k: convert[k](v) if k in convert else v for k, v in doc.items()}
        group = values.pop("group")
        config = cls(group_p=group["p"], group_m=group["m"], **values)
        for stage in config.stages:
            missing = [d for d in STAGE_DEPS[stage] if d not in config.stages]
            if missing:
                raise DomainError(f"stage '{stage}' requires {missing} in the stage list")
        # planting precheck: block length must be coprime to the code field
        g = math.gcd(config.n, config.field_p)
        if g != 1:
            raise DomainError(
                f"coprimality precheck failed: gcd(|G| * delta^2 = {config.n}, "
                f"p = {config.field_p}) = {g}; the planted all-ones word needs "
                "gcd = 1"
            )
        return config

    def to_mapping(self) -> dict:
        """The config as a document, as the manifest records it: every
        budget is written, its default where the config gave none."""
        doc = asdict(self)
        doc.update(
            group={"p": doc.pop("group_p"), "m": doc.pop("group_m")},
            rho_target=str(self.rho_target),
            stages=list(self.stages),
            ssexp_grid=self.ssexp_grid and list(self.ssexp_grid),
            budgets={**DEFAULT_BUDGETS, **self.budgets},
        )
        return doc


def load_config(path) -> RunConfig:
    return read_artifact(path, RunConfig.from_mapping, "config file")


# ---- stages ------------------------------------------------------------
# Each stage returns (artifacts, summary); artifacts map a short key to
# (filename, text), the text written by `dumps` except for the 3-XOR dump.
# Summaries are inlined into the manifest and are the only thing report
# rendering reads.


def _stage_expander(config: RunConfig, ctx: dict):
    gens = default_generators(
        config.group_p,
        config.group_m,
        config.delta,
        seed=stage_seed(config.seed, "expander"),
        require_generation=config.require_generation,
    )
    ctx["gens"] = gens
    graph = CayleyMultigraph(gens)
    spectrum = spectral_expansion(graph)
    artifacts = {
        "generators": ("generators.json", dumps(gens)),
        "spectrum": ("spectrum.json", dumps(spectrum)),
    }
    summary = {key: getattr(spectrum, key) for key in ("num_vertices", "degree", "is_ramanujan")}
    summary.update(
        second_eigenvalue=_round(spectrum.second_eigenvalue), ratio=_round(spectrum.ratio)
    )
    return artifacts, summary


def _stage_inner(config: RunConfig, ctx: dict):
    pair = search_inner_pair(
        config.field_p,
        config.delta,
        config.k_a,
        config.k_b,
        rho_target=config.rho_target,
        budget=config.budget("inner_candidates"),
        seed=stage_seed(config.seed, "inner"),
        exact_budget=config.budget("exact_certify"),
        falsify_trials=config.budget("falsify_trials"),
    )
    ctx["pair"] = pair
    keys = ("certification", "certification_primal", "certification_dual", "candidates_tried")
    summary = {key: pair.provenance.get(key) for key in keys}
    summary.update(
        rho_target=str(config.rho_target), dim_a=pair.code_a.dim, dim_b=pair.code_b.dim
    )
    return {"inner_pair": ("inner_pair.json", dumps(pair))}, summary


def _stage_complex(config: RunConfig, ctx: dict):
    cxp = SquareCayleyComplex(ctx["gens"], ctx["gens"], config.convention)
    ctx["complex"] = cxp
    summary = dict(cxp.summary(), num_vertices=cxp.num_vertices)
    return {"complex": ("complex.json", dumps(cxp))}, summary


def _stage_code(config: RunConfig, ctx: dict):
    code = build_code(ctx["complex"], ctx["pair"])
    ctx["code"] = code
    summary = {key: getattr(code, key) for key in ("n", "m_x", "m_z", "locality", "p")}
    return {"code": ("code.json", dumps(code))}, summary


def verify_document(code) -> dict:
    """Planting report, dimension and counting bound of a code, as written
    to verify.json."""
    # the dimension's budget check comes first, so a code too large for it
    # is refused before either check matrix is eliminated
    dimension = code_dimension(code)
    return {
        "planted": verify_planted(code),
        "dimension": dimension,
        "check_counting_bound": check_counting_bound(code),
    }


def _stage_verify(config: RunConfig, ctx: dict):
    doc = verify_document(ctx["code"])
    summary = dict(doc, planted=doc["planted"].planted)
    return {"verify": ("verify.json", dumps(doc))}, summary


def _stage_distance(config: RunConfig, ctx: dict):
    report = estimate_distance(
        ctx["code"],
        budget=config.budget("distance_budget"),
        seed=stage_seed(config.seed, "distance"),
        trials=config.budget("distance_trials"),
    )
    doc = report.to_doc()
    summary = {key: doc[key] for key in ("upper_bound", "exact", "method", "side")}
    return {"distance": ("distance.json", dumps(doc))}, summary


def _stage_ssexp(config: RunConfig, ctx: dict):
    code = ctx["code"]
    n = code.n
    grid = list(config.ssexp_grid) if config.ssexp_grid else [1 / n, 2 / n, 4 / n]
    curve = estimate_ssexp(
        code,
        grid,
        trials=config.budget("ssexp_trials"),
        seed=stage_seed(config.seed, "ssexp"),
        exhaustive_limit=config.budget("ssexp_exhaustive"),
    )
    ctx["curve"] = curve
    summary = {
        "grid": [_round(e) for e in grid],
        "boundary_constant": _round(curve.boundary_constant),
        "coboundary_constant": _round(curve.coboundary_constant),
        "exact_cosets": curve.exact_cosets,
    }
    return {"ssexp_curve": ("ssexp_curve.json", dumps(curve))}, summary


def _stage_csp(config: RunConfig, ctx: dict):
    code = ctx["code"]
    instance = emit_lin_instance(code, np.ones(code.n, dtype=np.int64))
    unsat = certify_unsat(instance, code.rowspace_z)
    artifacts = {
        "instance": ("csp_instance.json", dumps(instance)),
        "unsat": ("csp_unsat.json", dumps(unsat)),
    }
    keys = ("num_constraints", "num_vars", "arity_bound")
    summary = {key: getattr(instance, key) for key in keys}
    summary.update(
        consistent=unsat.consistent, certificate_size=len(unsat.certificate or [])
    )
    if code.p == 2:
        xor = reduce_to_3xor(instance)
        artifacts["xor"] = ("csp_instance.xor", xor.to_text())
        summary["xor_vars"] = xor.num_vars
        summary["xor_clauses"] = xor.num_clauses
    curve = ctx.get("curve")
    bound = None
    caveat = "ssexp stage not run; no empirical constants available"
    if curve is not None:
        c2 = curve.boundary_constant
        c1 = max(
            (pt.epsilon for pt in curve.points if pt.boundary_min is not None),
            default=None,
        )
        if c1 and c2 and c2 > 0:
            bound = _round(sos_level_bound(c1, c2, instance.num_vars, code.locality))
            caveat = (
                "constants taken from the empirical expansion curve "
                f"(c1={_round(c1)}, c2={_round(c2)}), not certified"
            )
        else:
            caveat = "empirical curve yielded no positive boundary constant"
    summary["sos_level_bound"] = bound
    summary["sos_caveat"] = caveat
    return artifacts, summary


# run_pipeline looks each stage up here as it calls it, so a wrapper put in
# an entry (the benchmark's tracer does) sees every call
_STAGE_FNS = {name: globals()[f"_stage_{name}"] for name in PIPELINE_STAGES}


def run_pipeline(config: RunConfig, out_dir=None) -> dict:
    """Execute the configured stages and persist artifacts plus manifest.

    Returns the manifest dict.  Reruns with the same config are
    byte-identical (paths inside the manifest are relative).
    """
    target = Path(out_dir if out_dir is not None else config.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    ordered = [s for s in PIPELINE_STAGES if s in config.stages]
    ctx: dict = {}
    stages: dict = {}
    written: list[str] = []
    for name in ordered:
        try:
            artifacts, summary = _STAGE_FNS[name](config, ctx)
        except ArtifactError as exc:
            context = ", ".join(written) or "none"
            raise type(exc)(
                f"stage '{name}' failed (artifacts so far: {context}): {exc}"
            ) from exc
        entry: dict = {"artifacts": {}, "summary": summary}
        for key, (filename, text) in artifacts.items():
            data = text.encode()
            (target / filename).write_bytes(data)
            digest = hashlib.sha256(data).hexdigest()
            entry["artifacts"][key] = {"path": filename, "sha256": digest}
            written.append(f"{filename}:{digest[:8]}")
        stages[name] = entry
    manifest = {
        "config": config.to_mapping(),
        "n": config.n,
        "order": ordered,
        "stages": stages,
    }
    (target / "manifest.json").write_text(dumps(manifest) + "\n")
    return manifest


# The report lines of each stage, filled from its summary.
_REPORT_LINES = {
    "expander": "expander: {num_vertices} vertices at degree {degree}, "
    "lambda = {second_eigenvalue} (lambda/degree = {ratio})",
    "inner": "inner: dims ({dim_a},{dim_b}), certification = {certification} "
    "(primal {certification_primal}, dual {certification_dual}), "
    "rho target = {rho_target}, candidates tried = {candidates_tried}",
    "complex": "complex: {num_faces} faces, {num_vertices} vertices, convention = {convention}",
    "code": "code: n = {n}, m_x = {m_x}, m_z = {m_z}, locality <= {locality}",
    # verdict is the one field computed from others
    "verify": "verify: dimension = {dimension}{verdict}; "
    "check-counting bound = {check_counting_bound}",
    "distance": "distance: upper bound {upper_bound} "
    "({method}, exact = {exact}, side = {side})",
    "ssexp": "ssexp: grid = {grid}, boundary constant = {boundary_constant}, "
    "coboundary constant = {coboundary_constant}, exact cosets = {exact_cosets}",
    "csp": "csp: {num_constraints} constraints on {num_vars} variables, "
    "arity <= {arity_bound}, consistent = {consistent}, certificate size = {certificate_size}\n"
    "csp: sos_level_bound = {sos_level_bound} ({sos_caveat})",
}


class _ReportFormatter(string.Formatter):
    """Strings are written bare, every other value as JSON; a field the
    document lacks raises KeyError."""

    def format_field(self, value, format_spec):
        return value if isinstance(value, str) else json.dumps(value)


_fill = _ReportFormatter().format  # _fill(template, **doc)


def render_report(manifest: dict) -> str:
    """Human-readable summary.  Every number is echoed verbatim from the
    manifest; nothing is recomputed."""
    if "stages" not in manifest or "config" not in manifest:
        raise MissingArtifact("manifest lacks config/stages sections")
    lines = [
        "pipeline report",
        "===============",
        _fill(
            "parameters: field p={field_p}, group ({group[p]},{group[m]}), "
            "delta={delta}, inner dims ({k_a},{k_b}), seed={seed}",
            **manifest["config"],
        ),
        _fill("block length n = {n}", **manifest),
    ]
    for name in PIPELINE_STAGES:
        entry = manifest["stages"].get(name)
        if entry is None:
            lines.append(f"{name}: skipped")
            continue
        summary = entry["summary"]
        if name == "verify":
            planted = summary["planted"]
            if planted and summary["dimension"] >= 1:
                verdict = " >= 1 (planted)"
            else:
                verdict = f" (planted flags {'pass' if planted else 'fail'})"
            summary = dict(summary, verdict=verdict)
        lines.append(_fill(_REPORT_LINES[name], **summary))
    return "\n".join(lines) + "\n"
