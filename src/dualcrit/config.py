"""Flat key = value design configs, and the registry of design kinds.

One key per line, ``#`` starts a comment line, values are numbers,
identifiers, or a comma-separated list for ``grid``. Keys are the design
field names and each may appear once in the file and once among the
overrides, which replace file values. Rates are proportions (0.075, never 7.5).

``DESIGNS`` maps each (endpoint, design_kind) pair to the one object that
builds its design from a config and provides what the commands do with it.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from pathlib import Path

from . import binary as binary_mod
from . import oracle
from . import three_outcome as three_mod
from . import tte as tte_mod
from .distributions import BetaParams, check_integer, std_normal_cdf
from .outcomes import Decision
from .tables import fmt3, fmt_full

DEFAULT_SEED = 42
# The run parameters every design kind accepts, which ``ResolvedDesign``
# carries; overriding only these keeps a config's label.
RUN_KEYS = ("label", "grid", "seed", "reps")

# key -> parser; also fixes the canonical dump order.
_SCHEMA: dict[str, str] = {
    "endpoint": "str",
    "design_kind": "str",
    "label": "str",
    "alpha": "float",
    "beta": "float",
    "null_hr": "float",
    "decision_hr": "float",
    "alt_hr": "float",
    "sigma": "float",
    "n_events": "int",
    "factor": "float",
    "level": "float",
    "prior_a": "float",
    "prior_b": "float",
    "prior_mean": "float",
    "null_orr": "float",
    "sig_prob": "float",
    "decision_orr": "float",
    "n": "int",
    "p0": "float",
    "p1": "float",
    "eta": "float",
    "pi": "float",
    "r_go": "int",
    "r_nogo": "int",
    "n_max": "int",
    "seed": "int",
    "reps": "int",
    "grid": "grid",
}


def _number(text: str, integral: bool):
    """The number ``text`` spells: a float, or with ``integral`` an int,
    which an integral float such as "4.0e2" also spells. The ValueError
    names what ``text`` is not: "a number" or "an integer"."""
    if integral:
        # int() keeps integers past 2**53 exact, where float() would round them.
        try:
            return int(text)
        except ValueError:
            pass
    try:
        value = float(text)
    except ValueError:
        raise ValueError("a number") from None
    if integral and not value.is_integer():
        raise ValueError("an integer")
    return int(value) if integral else value


def _parse_scalar(key: str, text: str):
    value_type = _SCHEMA[key]
    if value_type == "str":
        return text
    if value_type == "grid":
        items = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not items:
            raise ValueError(f"grid must list at least one value, got {text!r}")
        try:
            return [float(piece) for piece in items]
        except ValueError:
            raise ValueError(f"grid values must be numbers, got {text!r}") from None
    try:
        return _number(text, integral=value_type == "int")
    except ValueError as exc:
        raise ValueError(f"value for {key!r} must be {exc}, got {text!r}") from None


def parse_value(key: str, text: str):
    if key not in _SCHEMA:
        raise ValueError(f"unknown config key {key!r}")
    return _parse_scalar(key, text.strip())


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}, first set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            cfg[key] = parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return cfg


def load_config(path: str | Path) -> dict:
    """Parse the config file at ``path``, read as UTF-8. A leading
    byte-order mark, which many editors write, is dropped, so that it does
    not hide the first line's comment or key."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``key=value`` override strings on top of a parsed config; a
    key may be overridden once. An override of any key but the
    ``RUN_KEYS`` drops the config's label, which names the design as
    written, so the design's own caption is printed."""
    overrides = {}
    for item in assignments:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise ValueError(f"{key!r} may be overridden only once")
        overrides[key] = parse_value(key, value)
    if overrides.keys() - RUN_KEYS:
        cfg = {key: value for key, value in cfg.items() if key != "label"}
    return {**cfg, **overrides}


def _format_value(value) -> str:
    """A config value as ``dump_config`` writes it and a caption shows it."""
    if isinstance(value, list):  # a grid
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, BetaParams):
        return f"Beta({_format_value(value.a)}, {_format_value(value.b)})"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: dict, path: str | Path) -> None:
    """Write the effective config so it re-parses to the identical design."""
    lines = [f"{key} = {_format_value(cfg[key])}" for key in _SCHEMA if key in cfg]
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _require(cfg: dict, *keys: str) -> None:
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ValueError(f"missing required key(s) for this design: {', '.join(missing)}")


def _require_fields(make, cfg: dict, *given: str) -> None:
    """Reject a config that lacks a parameter of ``make`` without a default;
    ``given`` names the parameters that do not come from the config."""
    params = inspect.signature(make).parameters.values()
    _require(cfg, *(p.name for p in params if p.default is p.empty and p.name not in given))


def _build(make, cfg: dict, **given):
    """Call ``make``, a design class or a sizing search, with the config
    values of its parameters (config keys are their names) and ``given``.
    A parameter without a default must be in the config; the others keep
    their defaults when it leaves them out."""
    _require_fields(make, cfg, *given)
    params = inspect.signature(make).parameters
    return make(**{key: cfg[key] for key in params if key in cfg and key not in given}, **given)


def prior_of(cfg: dict) -> BetaParams:
    b = cfg.get("prior_b", 1.0)
    if "prior_a" in cfg and "prior_mean" in cfg:
        raise ValueError("give prior_a or prior_mean, not both")
    if "prior_a" in cfg:
        return BetaParams(a=cfg["prior_a"], b=b)
    if "prior_mean" in cfg:
        return binary_mod.prior_from_mean(cfg["prior_mean"], b=b)
    raise ValueError("binary designs need prior_a (or prior_mean), plus prior_b")


def _observed(text: str, what: str, integral: bool):
    try:
        return _number(text, integral)
    except ValueError:
        raise ValueError(f"--observed must be {what}, got {text!r}") from None


def _decision_lines(decision: Decision, values: str, statistical: str, clinical: str) -> list[str]:
    label = decision.tag.value
    if decision.is_inconclusive:
        label = f"INCONCLUSIVE (case {decision.case})"
    return [
        f"{label}: {values}",
        f"statistical criterion: {statistical} -> " + ("met" if decision.significant else "not met"),
        f"clinical criterion: {clinical} -> " + ("met" if decision.relevant else "not met"),
    ]


def _precision_line(at: str, sigma: float, n_events: int, level: float) -> str:
    return (
        f"implied CI half-width factor at {at} (level {fmt_full(level)}) = "
        f"{fmt3(tte_mod.implied_precision_factor(sigma, n_events, level))}"
    )


class DesignEntry:
    """What one (endpoint, design_kind) pair provides to the commands.

    Every entry has ``design``, its design class; ``keys``, the config keys
    it reads beyond ``COMMON_KEYS``; ``build(cfg)``, which returns the
    design, at its derived size when the config gives none (by default
    ``design`` called with the config's values); and ``size(cfg, design)``.
    An entry whose design has a ``cut_rule`` declares the ``title`` and
    ``caption_fields`` of its OC table caption, each value written as
    ``dump_config`` writes it. ``decide(design, observed)``, which returns
    the posterior or None and the lines to print, and ``simulate`` for
    verify are None where the kind lacks them. Entries write no files. The
    true effect's heading follows from the endpoint, not the entry. Library
    functions are called through their modules, so a patched module
    attribute reaches every call; design classes are held directly, since
    patching a method changes the class itself.
    """

    title = None
    caption_fields = ()
    decide = simulate = None

    def build(self, cfg):
        return _build(self.design, cfg)

    def caption(self, design) -> str:
        values = (f"{key}={_format_value(getattr(design, key))}" for key in self.caption_fields)
        return f"{self.title}: {', '.join(values)}"


class _TTEDual(DesignEntry):
    design = tte_mod.DualCriterionTTEDesign
    keys = ("alpha", "decision_hr", "n_events", "null_hr", "sigma", "level")
    title = "dual-criterion (tte)"
    caption_fields = ("alpha", "null_hr", "decision_hr", "sigma", "n_events")

    def size(self, cfg, d):
        level = cfg.get("level", tte_mod.DEFAULT_LEVEL)
        n_min = tte_mod.min_events_dual(d.alpha, d.null_hr, d.decision_hr, d.sigma)
        # The estimate threshold for a GO is the tighter of the decision
        # value and the significance threshold.
        t_sig = tte_mod.significance_threshold(d.alpha, d.null_hr, d.sigma, n_min)
        lines = [
            f"n_min = {n_min}",
            f"estimate threshold at n_min = {fmt3(min(d.decision_hr, t_sig))}",
            _precision_line("n_min", d.sigma, n_min, level),
        ]
        if "n_events" in cfg:
            t_sig = d.significance_threshold
            lines += [
                f"n_events = {d.n_events}",
                f"GO threshold at n_events = {fmt3(min(d.decision_hr, t_sig))}",
                f"significance threshold at n_events = {fmt3(t_sig)}",
                _precision_line("n_events", d.sigma, d.n_events, level),
            ]
        return lines

    def decide(self, design, observed):
        estimate = _observed(observed, "an estimated hazard ratio", integral=False)
        decision = tte_mod.decide_tte(design, estimate)
        s = design.sigma / math.sqrt(design.n_events)
        p_value = std_normal_cdf((math.log(estimate) - math.log(design.null_hr)) / s)
        return None, _decision_lines(
            decision,
            f"p_value={fmt3(p_value)}, estimate={fmt3(estimate)}",
            f"estimate <= {fmt3(design.significance_threshold)}"
            f" (one-sided alpha {fmt_full(design.alpha)})",
            f"estimate <= {fmt3(design.decision_hr)}",
        )

    def simulate(self, design, true_hr, sim_cfg):
        return oracle.simulate_tte_oc(design, true_hr, sim_cfg)


class _TTEStandard(DesignEntry):
    design = tte_mod.StandardTTEDesign
    keys = ("alpha", "beta", "alt_hr", "null_hr", "sigma", "n_events", "level")
    title = "standard (tte)"
    caption_fields = ("alpha", "beta", "alt_hr", "n_events")

    def size(self, cfg, d):
        return [
            f"n = {d.n_events}",
            f"estimate threshold at n = {fmt3(d.significance_threshold)}",
            _precision_line("n", d.sigma, d.n_events, cfg.get("level", tte_mod.DEFAULT_LEVEL)),
        ]


class _TTEPrecision(DesignEntry):
    design = tte_mod.PrecisionTTEDesign
    keys = ("factor", "level", "sigma")

    def size(self, cfg, design):
        return [f"n = {tte_mod.precision_events(design)}"]


class _Binary(DesignEntry):
    def simulate(self, design, true_orr, sim_cfg):
        return oracle.simulate_binary_oc(design, true_orr, sim_cfg)


class _BinaryDual(_Binary):
    design = binary_mod.DualCriterionBinaryDesign
    keys = ("prior_a", "prior_b", "prior_mean", "null_orr", "sig_prob", "decision_orr", "n", "n_max")
    title = "dual-criterion (binary)"
    caption_fields = ("prior", "null_orr", "sig_prob", "decision_orr", "n")

    def build(self, cfg):
        _require_fields(self.design, cfg, "prior", "n")
        prior = prior_of(cfg)
        if "n" not in cfg:
            cfg = {**cfg, "n": _build(binary_mod.min_sample_size_grid, cfg, prior=prior)}
        return _build(self.design, cfg, prior=prior)

    def size(self, cfg, design):
        if "n" not in cfg:
            return [f"n_min = {design.n}"]
        n_min = _build(binary_mod.min_sample_size_grid, cfg, prior=design.prior)
        r_go = binary_mod.min_responders(design)
        return [
            f"n_min = {n_min}",
            f"n = {design.n}",
            "min responders for GO at n = " + ("unreachable" if r_go is None else str(r_go)),
        ]

    def decide(self, design, observed):
        r = _observed(observed, "a responder count", integral=True)
        decision = binary_mod.decide_binary(design, r)
        summary = binary_mod.posterior_summary(design, r)
        return summary.posterior, _decision_lines(
            decision,
            f"prob_positive={fmt3(summary.prob_positive)}, median={fmt3(summary.median)}",
            f"prob_positive >= {fmt_full(design.sig_prob)}",
            f"median >= {fmt_full(design.decision_orr)}",
        )


class _ThreeOutcome(_Binary):
    design = three_mod.ThreeOutcomeDesign
    keys = ("p0", "p1", "alpha", "beta", "eta", "pi", "n", "r_go", "r_nogo", "n_max")
    title = "three-outcome (binary)"
    caption_fields = ("n", "r_nogo", "r_go")

    def build(self, cfg):
        boundary_keys = [key for key in ("n", "r_go", "r_nogo") if key in cfg]
        if len(boundary_keys) == 3:
            return _build(self.design, cfg)
        if boundary_keys:
            raise ValueError("three_outcome designs need either all of n, r_go, r_nogo or none")
        return _build(three_mod.find_three_outcome_design, cfg)

    def size(self, cfg, d):
        lines = [f"n = {d.n}", f"NO-GO at r <= {d.r_nogo}", f"GO at r >= {d.r_go}"]
        if d.r_go - d.r_nogo > 1:
            lines.append(f"inconclusive at r in [{d.r_nogo + 1}, {d.r_go - 1}]")
        pairs = three_mod.feasible_pairs(d.n, d.p0, d.p1, d.alpha, d.beta, d.eta, d.pi)
        lines.append(
            "feasible (r_nogo, r_go) pairs at n = "
            + "; ".join(f"({rn}, {rg})" for rn, rg in pairs)
        )
        return lines

    def decide(self, design, observed):
        r = _observed(observed, "a responder count", integral=True)
        outcome = design.decision_table[check_integer(r, "responder count", design.n)].value
        return None, [f"{outcome}: r={r} (NO-GO at r <= {design.r_nogo}, GO at r >= {design.r_go})"]


DESIGNS: dict[tuple[str, str], DesignEntry] = {
    ("tte", "dual"): _TTEDual(),
    ("tte", "standard"): _TTEStandard(),
    ("tte", "precision"): _TTEPrecision(),
    ("binary", "dual"): _BinaryDual(),
    ("binary", "three_outcome"): _ThreeOutcome(),
}
ENDPOINTS, DESIGN_KINDS = (tuple(dict.fromkeys(names)) for names in zip(*DESIGNS))
# Keys every design kind accepts.
COMMON_KEYS = ("endpoint", "design_kind", *RUN_KEYS)


def _choice(cfg: dict, key: str, choices: tuple[str, ...]) -> str:
    _require(cfg, key)
    if cfg[key] not in choices:
        raise ValueError(f"{key} must be one of {choices}, got {cfg[key]!r}")
    return cfg[key]


@dataclass(frozen=True)
class ResolvedDesign:
    """A built design, its registry entry, and the run parameters the
    commands share."""

    endpoint: str
    kind: str
    entry: DesignEntry
    design: object
    label: str | None
    grid: list[float] | None
    seed: int
    reps: int


def resolve_design(cfg: dict) -> ResolvedDesign:
    """Build the design a config describes.

    A config without a size gets the design kind's derived one. A key the
    design kind does not read is an error, so a value meant for another
    kind is never silently dropped.
    """
    endpoint = _choice(cfg, "endpoint", ENDPOINTS)
    kind = _choice(cfg, "design_kind", DESIGN_KINDS)
    if (endpoint, kind) not in DESIGNS:
        raise ValueError(f"design_kind {kind!r} is not available for endpoint {endpoint!r}")
    entry = DESIGNS[endpoint, kind]
    unread = [key for key in cfg if key not in COMMON_KEYS and key not in entry.keys]
    if unread:
        raise ValueError(f"{endpoint} {kind} designs do not read key(s): {', '.join(unread)}")
    return ResolvedDesign(
        endpoint=endpoint,
        kind=kind,
        entry=entry,
        design=entry.build(cfg),
        label=cfg.get("label"),
        grid=cfg.get("grid"),
        seed=cfg.get("seed", DEFAULT_SEED),
        reps=cfg.get("reps", oracle.SimulationConfig.n_replicates),
    )
