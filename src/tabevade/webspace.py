"""Problem-space back end: realize feature perturbations as invisible HTML.

Additions only - removals could break a live page - so a plan holds a
non-negative element count per addable feature.  Injection is textual: the
original markup is left byte-for-byte intact and one hidden container (plus
head metadata) is spliced in, which makes the original element sequence a
subsequence of the result by construction.  Re-extraction after injection
is how side-effect features (an injected mailto anchor also counts as an
href, redirect stubs are also scripts) are observed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

from .attack import AttackPlan, perturb
from .errors import ExtractionError, InfeasibleInjectionError, UnsupportedFeatureError
from .models import Model, labels, predict_score
from .webfeatures import (
    _ATTRS,
    _NAME,
    _RAW_TEXT_ELEMENTS,
    _WS,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    extract_features,
)

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
    perturbation is simply lost; nothing is ever removed).
    """
    additions: dict[str, int] = {}
    for spec in schema.features:
        name = spec.name
        delta = adversarial[name] - original[name]
        if spec.addable:
            if delta > 0:
                additions[name] = int(round(delta))
        elif abs(delta) > 1e-9:
            raise InfeasibleInjectionError(
                f"feature {name!r} changed by {delta:+g} but is not addable in problem space"
            )
    return InjectionPlan(additions=additions)


_BODY_CLOSE_RE = re.compile(r"</body\s*>", re.IGNORECASE)
_HTML_CLOSE_RE = re.compile(r"</html\s*>", re.IGNORECASE)
_HEAD_CLOSE_RE = re.compile(r"</head\s*>", re.IGNORECASE)

# Plain markup as the page tokenizer in webfeatures reads it (text, start and
# end tags, raw-text elements holding only text), plus declarations such as
# <!DOCTYPE html>.  Every "<" in it opens a tag that each CPython html.parser
# reads the same way, so an end tag matched right after such a prefix is a
# real one; any other page is settled by parsing it.
_RAW_NAMES = "|".join(_RAW_TEXT_ELEMENTS)
_PLAIN_PREFIX_RE = re.compile(
    rf"[^<]*(?:(?:</{_NAME}>"
    rf"|<(?!(?i:{_RAW_NAMES}|plaintext)(?![A-Za-z0-9])){_NAME}{_ATTRS}{_WS}*/?>"
    rf"|<((?i:{_RAW_NAMES})){_ATTRS}{_WS}*>[^<]*</(?i:\1)>"
    rf"|<![A-Za-z][^<>]*>)[^<]*)*"
)


def _last_start(pattern: re.Pattern, html: str) -> int | None:
    matches = list(pattern.finditer(html))
    return matches[-1].start() if matches else None


class _EndTagScanner(HTMLParser):
    """Offsets of a page's real </head>, </body> and </html> end tags, and
    of the unfinished markup (an unclosed comment, tag or raw-text element)
    that the parser holds back at the page's end."""

    def __init__(self, html: str) -> None:
        super().__init__(convert_charrefs=True)
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", html)]
        self.ends: dict[str, int] = {}  # tag -> offset of its last real end tag
        self._last_start_tag = 0
        try:
            self.feed(html)  # no close(): what the parser holds back stays unfinished
        except Exception as exc:  # as in extraction: the stdlib parser is lenient, anything else is fatal
            raise ExtractionError(f"cannot parse page: {exc}") from exc
        self.unfinished = self._last_start_tag if self.cdata_elem else len(html) - len(self.rawdata)

    def _offset(self) -> int:
        line, column = self.getpos()
        return self._line_starts[line - 1] + column

    def handle_starttag(self, tag, attrs):
        self._last_start_tag = self._offset()

    def handle_startendtag(self, tag, attrs):  # <body/> opens nothing and closes nothing
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag.lower() in ("head", "body", "html"):
            self.ends[tag.lower()] = self._offset()


def _splice_points(html: str) -> tuple[int | None, int]:
    """Where head metadata and the hidden container go.

    Metadata goes before the last real </head> (None when there is none);
    the container before the last real </body>, else the last real
    </html>, else at the end of the page's finished markup.  "Real" means
    an end tag the feature extractor's parser sees, not one inside a
    comment, script or attribute value.  The last regex match of each is
    taken as it is when the markup before it is plain; only other pages
    are parsed.
    """
    head = _last_start(_HEAD_CLOSE_RE, html)
    body = _last_start(_BODY_CLOSE_RE, html)
    if body is None:
        body = _last_start(_HTML_CLOSE_RE, html)
    if body is None:
        body = len(html)
    if _PLAIN_PREFIX_RE.fullmatch(html, 0, body if head is None else max(head, body)):
        return head, body  # every "<" in plain markup opens a real tag, so both matches are real
    scanner = _EndTagScanner(html)
    body = scanner.ends.get("body", scanner.ends.get("html", scanner.unfinished))
    return scanner.ends.get("head"), body


def inject(page: WebPage, plan: InjectionPlan) -> WebPage:
    """Append a hidden container (and head metadata) realizing the plan.

    An empty plan returns the page byte-identical.  Missing </head> sends
    metadata into the hidden container; missing </body> appends the
    container before </html> or at the document end, ahead of any markup
    left unfinished there.  End tags inside comments, raw-text elements or
    attribute values do not count (see :func:`_splice_points`).
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
    head, body = _splice_points(html)
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
    if plan.schema.names != WEB_FEATURE_NAMES:
        raise InfeasibleInjectionError(
            "problem-space attacks need a plan built over the 52 page features"
        )
    addable = set(plan.schema.addable_indices())
    if plan.config.feature_mask is None or not set(plan.config.feature_mask) <= addable:
        raise InfeasibleInjectionError(
            "problem-space attacks need config.feature_mask restricted to addable features"
        )
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
