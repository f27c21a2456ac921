"""Problem-space back end: realize feature perturbations as invisible HTML.

Additions only - removals could break a live page - so a plan holds a
non-negative element count per addable feature.  Injection is textual: the
original markup is left byte-for-byte intact and one hidden container (plus
head metadata) is spliced in, which makes the original element sequence a
subsequence of the result by construction.  The splice offsets come from
the page's one parse (``WebPage.events``), the parse feature extraction
reads.  Re-extraction after injection is how side-effect features (an
injected mailto anchor also counts as an href, redirect stubs are also
scripts) are observed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackPlan, perturb
from .errors import InfeasibleInjectionError, SchemaError, UnsupportedFeatureError
from .models import Model, labels, predict_score
from .webfeatures import WEB_FEATURE_NAMES, WebFeatureVector, WebPage, extract_features

CONTAINER_ATTR = "data-pad-container"
_HIDDEN_STYLE = "display:none!important;visibility:hidden!important"

# one generator per repeatable HTML feature; index k keeps markup unique
_GENERATORS = {
    "href": lambda k: f'<a href="#pad{k}" style="{_HIDDEN_STYLE}"></a>',
    "javascript": lambda k: f'<script style="{_HIDDEN_STYLE}">void {k};</script>',
    "images": lambda k: (
        f'<img src="data:image/gif;base64,R0lGODlhAQABAAAAACw=" alt=""'
        f' width="0" height="0" style="{_HIDDEN_STYLE}">'
    ),
    "forms": lambda k: f'<form action="https://pad.invalid/f{k}" style="{_HIDDEN_STYLE}"></form>',
    "iframes": lambda k: f'<iframe src="about:blank" width="0" height="0" style="{_HIDDEN_STYLE}"></iframe>',
    "hidden_text": lambda k: f'<input type="hidden" name="pad{k}" value="p" style="{_HIDDEN_STYLE}">',
    "redirects": lambda k: (
        f'<script style="{_HIDDEN_STYLE}">if(false){{window.location.href="#pad{k}";}}</script>'
    ),
    "submit_to_mail": lambda k: f'<a href="mailto:pad{k}@pad.invalid" style="{_HIDDEN_STYLE}"></a>',
}
_HEAD_GENERATORS = {
    "meta": lambda k: f'<meta name="pad{k}" content="p">',
}


@dataclass(frozen=True)
class InjectionPlan:
    """Per-feature element counts to add; zero entries are dropped."""

    additions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for name, count in self.additions.items():
            count = int(count)
            if count < 0:
                raise InfeasibleInjectionError(f"negative addition for {name}")
            if count:
                cleaned[name] = count
        object.__setattr__(self, "additions", cleaned)

    @property
    def is_empty(self) -> bool:
        return not self.additions


def plan_injection(
    original: WebFeatureVector, adversarial: WebFeatureVector, schema
) -> InjectionPlan:
    """Difference the vectors into additions; non-addable moves are infeasible.

    Negative deltas on addable features floor to 0 (that part of the
    perturbation is simply lost; nothing is ever removed).  ``schema`` is
    a schema over the 52 page features in table order; only the features
    that moved are looked at, in that order.
    """
    if schema.names != WEB_FEATURE_NAMES:
        raise SchemaError("injection plans need a schema over the 52 page features, in table order")
    moved = adversarial.values - original.values
    additions: dict[str, int] = {}
    for i in np.flatnonzero(moved):
        spec = schema.features[i]
        name = spec.name
        delta = float(moved[i])
        if spec.addable:
            if delta > 0:
                additions[name] = int(round(delta))
        elif abs(delta) > 1e-9:
            raise InfeasibleInjectionError(
                f"feature {name!r} changed by {delta:+g} but is not addable in problem space"
            )
    return InjectionPlan(additions=additions)


def inject(page: WebPage, plan: InjectionPlan) -> WebPage:
    """Append a hidden container (and head metadata) realizing the plan.

    An empty plan returns the page byte-identical.  Missing </head> sends
    metadata into the hidden container; missing </body> appends the
    container before </html> or at the document end, ahead of any markup
    left unfinished there.  Only end tags the page's parse sees count, not
    ones inside comments, raw-text elements or attribute values; the offsets
    come from ``page.events``, so a page extracted before is not parsed again.
    """
    if plan.is_empty:
        return page
    unsupported = [n for n in plan.additions if n not in _GENERATORS and n not in _HEAD_GENERATORS]
    if unsupported:
        raise UnsupportedFeatureError(f"no HTML generator for: {sorted(unsupported)}")

    head_parts: list[str] = []
    body_parts: list[str] = []
    for name in WEB_FEATURE_NAMES:  # canonical order keeps output deterministic
        count = plan.additions.get(name, 0)
        for k in range(count):
            if name in _HEAD_GENERATORS:
                head_parts.append(_HEAD_GENERATORS[name](k))
            else:
                body_parts.append(_GENERATORS[name](k))

    html = page.html
    head, body = page.events.head_end, page.events.body_end
    if head is None:
        body_parts = head_parts + body_parts  # no head: metadata rides in the container
        head, head_parts = body, []
    container = (
        f'<div {CONTAINER_ATTR}="1" aria-hidden="true" style="{_HIDDEN_STYLE}">'
        + "".join(body_parts)
        + "</div>"
    )
    (at, chunk), (later_at, later_chunk) = sorted([(head, "".join(head_parts)), (body, container)],
                                                  key=lambda splice: splice[0])
    injected = html[:at] + chunk + html[at:later_at] + later_chunk + html[later_at:]
    return WebPage(url=page.url, html=injected)


@dataclass(frozen=True)
class ProblemSpaceRecord:
    """What one page attack did, side effects included."""

    baseline_label: int
    attack_label: int
    baseline_score: float
    attack_score: float
    planned: dict[str, int]
    side_effects: dict[str, float]
    evaded: bool


def check_problem_space(schema, feature_mask: frozenset[int] | None) -> None:
    """Refuse a schema not over the 52 page features, or a mask that lets a feature no addition realizes move."""
    if schema.names != WEB_FEATURE_NAMES:
        raise InfeasibleInjectionError(
            "problem-space attacks need a schema over the 52 page features (see `synth --dataset webpages`)"
        )
    if feature_mask is None or not feature_mask <= set(schema.addable_indices()):
        raise InfeasibleInjectionError(
            "problem-space attacks need config.feature_mask restricted to addable features"
        )


def problem_space_attack(
    page: WebPage, plan: AttackPlan, model: Model
) -> tuple[WebPage, ProblemSpaceRecord]:
    """Extract, perturb, inject, re-extract, classify.

    The attack plan must mask its selection to addable features; the
    re-extraction is what the classifier sees, so unplanned side effects
    count for (or against) the attacker.  The model scores the original
    and the re-extracted vector once each, and each label is drawn from
    its score as :func:`~tabevade.models.predict` draws it.
    """
    check_problem_space(plan.schema, plan.config.feature_mask)
    original = extract_features(page)
    adversarial = WebFeatureVector(values=perturb(original.values, plan))
    injection = plan_injection(original, adversarial, plan.schema)
    new_page = inject(page, injection)
    reextracted = extract_features(new_page)

    baseline_score, attack_score = (predict_score(model, v.values) for v in (original, reextracted))
    baseline_label, attack_label = (int(labels(score)[0]) for score in (baseline_score, attack_score))
    planned = dict(injection.additions)
    side_effects = {}
    for i, name in enumerate(WEB_FEATURE_NAMES):
        drift = float(reextracted.values[i] - original.values[i]) - planned.get(name, 0)
        if abs(drift) > 1e-9:
            side_effects[name] = drift
    record = ProblemSpaceRecord(
        baseline_label=baseline_label,
        attack_label=attack_label,
        baseline_score=float(baseline_score[0]),
        attack_score=float(attack_score[0]),
        planned=planned,
        side_effects=side_effects,
        evaded=baseline_label == 1 and attack_label == 0,
    )
    return new_page, record
